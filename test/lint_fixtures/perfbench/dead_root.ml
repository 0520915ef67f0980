(* Lint fixture: a perfbench-shaped root.  Every binding here is a root,
   and each reaches one export of lib/dead_fix.ml through one use form. *)

module type S = sig val packed : int end
module Make (X : sig end) = struct let made = 0 end
module Extended = struct include Dead_fix.Via_include end
module Applied = Make (Dead_fix.Via_functor)

let direct () = Dead_fix.live 1 + Dead_fix.stale_allow 2
let opened () = let open Dead_fix.Via_open in opened
let local_open () = Dead_fix.Via_local_open.(1 +! 2)
let packed () = (module Dead_fix.Via_pack : S)

(* Reaches nothing: each name is a local that shadows the export. *)
let shadowing () =
  let open Dead_fix in
  let by_let = 1 in
  let f by_fun = by_fun + by_let in
  match f 2 with by_match -> by_match
