type counter = string
type histogram = string
type kind = K_counter | K_histogram

(* RACE002: the declared names, extended only at module initialisation
   (before any domain spawns) and only read afterwards. *)
let declared : (string * kind) list ref = ref [] [@@lint.allow "RACE002"]

let declare kind name =
  (match List.assoc_opt name !declared with
  | Some k when k = kind -> ()
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is declared with another kind" name)
  | None -> declared := (name, kind) :: !declared);
  name

let counter name = declare K_counter name
let histogram name = declare K_histogram name

(* Registrations: [cells] newest first; [hdrs] oldest first, one per
   name until contexts are absorbed; [probes] one closure per name. *)
type t = {
  lists_declared : bool;
  mutable cells : (string * int ref) list;
  mutable hdrs : (string * Hdr.t) list;
  mutable probes : (string * (unit -> float)) list;
}

let fresh () = { lists_declared = true; cells = []; hdrs = []; probes = [] }
let create () = { (fresh ()) with lists_declared = false }
let key : t Domain.DLS.key = Domain.DLS.new_key fresh
let current () = Domain.DLS.get key

let cell t name =
  let c = ref 0 in
  t.cells <- (name, c) :: t.cells;
  c

let hdr t name =
  match List.assoc_opt name t.hdrs with
  | Some h -> h
  | None ->
    let h = Hdr.create () in
    t.hdrs <- t.hdrs @ [ (name, h) ];
    h

let probe t name f = t.probes <- (name, f) :: List.remove_assoc name t.probes

let reset t =
  t.cells <- [];
  t.hdrs <- [];
  t.probes <- []

module Local = struct
  let swap ctx =
    let prev = current () in
    Domain.DLS.set key ctx;
    prev

  let swap_fresh () = swap (fresh ())

  let absorb ctx =
    let t = current () in
    t.cells <- ctx.cells @ t.cells;
    t.hdrs <- t.hdrs @ ctx.hdrs;
    List.iter (fun (name, f) -> probe t name f) ctx.probes
end

type value =
  | Counter of int
  | Histogram of Hdr.t
  | Probe of float

module Names = Map.Make (String)

let iter t f =
  let seed =
    if not t.lists_declared then Names.empty
    else
      List.fold_left
        (fun m (name, kind) ->
          Names.add name
            (match kind with K_counter -> Counter 0 | K_histogram -> Histogram (Hdr.create ()))
            m)
        Names.empty !declared
  in
  let add_cell m (name, c) =
    Names.update name
      (function Some (Counter n) -> Some (Counter (n + !c)) | _ -> Some (Counter !c))
      m
  in
  let add_hdr m (name, h) =
    Names.update name
      (function Some (Histogram a) -> Some (Histogram (Hdr.merge a h)) | _ -> Some (Histogram h))
      m
  in
  let m = List.fold_left add_cell seed t.cells in
  let m = List.fold_left add_hdr m t.hdrs in
  let m = List.fold_left (fun m (name, p) -> Names.add name (Probe (p ())) m) m t.probes in
  Names.iter f m

let dump t =
  let b = Buffer.create 1024 in
  iter t (fun name v ->
      match v with
      | Counter c -> Buffer.add_string b (Printf.sprintf "%-42s %12d\n" name c)
      | Probe p -> Buffer.add_string b (Printf.sprintf "%-42s %12.3f\n" name p)
      | Histogram h ->
        let n = Hdr.count h in
        if n = 0 then Buffer.add_string b (Printf.sprintf "%-42s      (empty)\n" name)
        else
          Buffer.add_string b
            (Printf.sprintf "%-42s n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f\n" name n
               (Hdr.mean h) (Hdr.quantile h 0.5) (Hdr.quantile h 0.99) (Hdr.max h)));
  Buffer.contents b
