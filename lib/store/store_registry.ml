(* DEAD001 here and below: the lists the store tests iterate. *)
let[@lint.allow "DEAD001"] exact : (module Timer_store.S) list =
  [
    Timer_store.wheel ~slots:512 ();
    (module Eventq_store);
    (module Lawn);
  ]

let[@lint.allow "DEAD001"] approximate : (module Timer_store.S) list = [ (module Pacing_wheel) ]

let all = exact @ approximate

let names =
  List.map (fun (module M : Timer_store.S) -> M.name) all

(* Store names are hyphenated; accept underscores too so CLI users can
   write --store pacing_wheel as the docs do. *)
let normalize name = String.map (fun c -> if c = '_' then '-' else c) name

let find name =
  let name = normalize name in
  List.find_opt (fun (module M : Timer_store.S) -> String.equal M.name name) all
