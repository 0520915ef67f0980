(* The two Hashtbl iterations below never let bucket order reach any
   output: [reset] zeroes instruments regardless of visit order, and
   [iter] folds the names out only to sort them before reading. *)
[@@@lint.allow "DET004"]

type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Domain-local instruments are dense integer handles into per-domain
   value arrays (below); the registry only remembers the id, so the
   handle binding itself carries no mutable state and the RACE rules
   have nothing to flag at registration sites. *)
type dcounter = int
type dhistogram = int

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_hdr of Hdr.t
  | I_probe of (unit -> float)
  | I_dcounter of int
  | I_dhdr of int

type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

(* ------------------------------------------------------------------ *)
(* Domain-local value storage.  Ids are allocated process-wide (module
   initialisation runs before any domain spawns, so the id space is
   fixed by the time workers exist); each domain lazily grows a private
   array pair, and the parallel runner merges worker contexts back into
   the parent in deterministic job order via [Local].                   *)

let next_dcounter = Atomic.make 0
let next_dhdr = Atomic.make 0

type local = { mutable lc : int array; mutable lh : Hdr.t array }

let local_key : local Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { lc = [||]; lh = [||] })

let ensure_lc l n =
  if Array.length l.lc < n then begin
    let a = Array.make (let m = n * 2 in if m < 64 then 64 else m) 0 in
    Array.blit l.lc 0 a 0 (Array.length l.lc);
    l.lc <- a
  end

(* ALLOC001: growth, once per newly registered histogram. *)
let ensure_lh l n =
  if Array.length l.lh < n then begin
    let old = l.lh in
    let len = Array.length old in
    let a =
      Array.init
        (let m = n * 2 in if m < 8 then 8 else m)
        (fun i -> if i < len then old.(i) else Hdr.create ())
    in
    l.lh <- a
  end
[@@lint.allow "ALLOC001"]

let dincr ?(by = 1) (id : dcounter) =
  let l = Domain.DLS.get local_key in
  ensure_lc l (id + 1);
  l.lc.(id) <- l.lc.(id) + by

let dcounter_value (id : dcounter) =
  let l = Domain.DLS.get local_key in
  if id < Array.length l.lc then l.lc.(id) else 0

let drecord (id : dhistogram) v =
  let l = Domain.DLS.get local_key in
  ensure_lh l (id + 1);
  Hdr.record l.lh.(id) v

let dhistogram_hdr (id : dhistogram) =
  let l = Domain.DLS.get local_key in
  ensure_lh l (id + 1);
  l.lh.(id)

module Local = struct
  type ctx = local

  let swap ctx =
    let prev = Domain.DLS.get local_key in
    Domain.DLS.set local_key ctx;
    prev

  let swap_fresh () = swap { lc = [||]; lh = [||] }

  let absorb (ctx : ctx) =
    let l = Domain.DLS.get local_key in
    ensure_lc l (Array.length ctx.lc);
    Array.iteri (fun i v -> if v <> 0 then l.lc.(i) <- l.lc.(i) + v) ctx.lc;
    ensure_lh l (Array.length ctx.lh);
    Array.iteri
      (fun i h -> if Hdr.count h > 0 then l.lh.(i) <- Hdr.merge l.lh.(i) h)
      ctx.lh
end

(* RACE002: the process-wide registry all library instruments hang off.
   The table itself is only extended during module init and sequential
   setup (instrument interning), never from parallel jobs; the
   instruments hanging off it are separate toplevel states, and those
   stay flagged — frozen as known single-domain debt in
   tools/lint/BASELINE.json until the planned SMP work (ROADMAP item 2)
   moves them to Domain.DLS or Atomic. *)
let default = create () [@@lint.allow "RACE002"]

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_hdr _ -> "histogram"
  | I_probe _ -> "probe"
  | I_dcounter _ -> "domain-local counter"
  | I_dhdr _ -> "domain-local histogram"

let wrong_kind name want got =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name got) want)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_counter c) -> c
  | Some other -> wrong_kind name "counter" other
  | None ->
    let c = { c = 0 } in
    Hashtbl.replace t.tbl name (I_counter c);
    c

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_gauge g) -> g
  | Some other -> wrong_kind name "gauge" other
  | None ->
    let g = { g = nan } in
    Hashtbl.replace t.tbl name (I_gauge g);
    g

let set_gauge g v = g.g <- v
let gauge_value g = g.g

let hdr t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_hdr h) -> h
  | Some other -> wrong_kind name "histogram" other
  | None ->
    let h = Hdr.create () in
    Hashtbl.replace t.tbl name (I_hdr h);
    h

let probe t name f =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_probe _) | None -> Hashtbl.replace t.tbl name (I_probe f)
  | Some other -> wrong_kind name "probe" other

let dcounter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_dcounter id) -> id
  | Some other -> wrong_kind name "domain-local counter" other
  | None ->
    let id = Atomic.fetch_and_add next_dcounter 1 in
    Hashtbl.replace t.tbl name (I_dcounter id);
    id

let dhistogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_dhdr id) -> id
  | Some other -> wrong_kind name "domain-local histogram" other
  | None ->
    let id = Atomic.fetch_and_add next_dhdr 1 in
    Hashtbl.replace t.tbl name (I_dhdr id);
    id

let reset t =
  (* Instruments are held by reference at registration sites, so zero
     them in place.  Probes are kept: they are registered explicitly
     (often at module init or facility attach) and dropping them made
     the second run in one process silently lose its pull-style metrics
     — a re-registration under the same name still replaces. *)
  Hashtbl.iter
    (fun _name i ->
      match i with
      | I_counter c -> c.c <- 0
      | I_gauge g -> g.g <- nan
      | I_hdr h -> Hdr.clear h
      | I_probe _ -> ()
      | I_dcounter id ->
        let l = Domain.DLS.get local_key in
        if id < Array.length l.lc then l.lc.(id) <- 0
      | I_dhdr id ->
        let l = Domain.DLS.get local_key in
        if id < Array.length l.lh then Hdr.clear l.lh.(id))
    t.tbl

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Hdr.t
  | Probe of float

let iter t f =
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [] in
  List.iter
    (fun name ->
      match Hashtbl.find t.tbl name with
      | I_counter c -> f name (Counter c.c)
      | I_gauge g -> f name (Gauge g.g)
      | I_hdr h -> f name (Histogram h)
      | I_probe p -> f name (Probe (p ()))
      | I_dcounter id -> f name (Counter (dcounter_value id))
      | I_dhdr id -> f name (Histogram (dhistogram_hdr id)))
    (List.sort String.compare names)

let dump t =
  let b = Buffer.create 1024 in
  iter t (fun name v ->
      match v with
      | Counter c -> Buffer.add_string b (Printf.sprintf "%-42s %12d\n" name c)
      | Gauge g -> Buffer.add_string b (Printf.sprintf "%-42s %12.3f\n" name g)
      | Probe p -> Buffer.add_string b (Printf.sprintf "%-42s %12.3f\n" name p)
      | Histogram h ->
        let n = Hdr.count h in
        if n = 0 then Buffer.add_string b (Printf.sprintf "%-42s      (empty)\n" name)
        else
          Buffer.add_string b
            (Printf.sprintf "%-42s n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f\n" name n
               (Hdr.mean h) (Hdr.quantile h 0.5) (Hdr.quantile h 0.99) (Hdr.max h)));
  Buffer.contents b
