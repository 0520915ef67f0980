let name = "wheel"

type state = Pending | Cancelled | Fired

type 'a handle = {
  mutable hstate : state;
  mutable hdeadline : Time_ns.t;
  mutable hseq : int;  (* tie position of the handle's current placement *)
  value : 'a;
}

(* One bucket placement of a handle.  A re-arm places the handle again
   under a fresh tie position and leaves the old placement behind as a
   corpse: a placement is live iff its handle is pending and still
   carries the placement's tie position. *)
type 'a entry = { seq : int; h : 'a handle }

type 'a t = {
  slots_n : int;
  tick_span : Time_ns.span;
  buckets : 'a entry list array;
  mutable count : int;
  mutable cancelled : int;  (* corpse placements not yet physically removed *)
  mutable next_seq : int;
  mutable last_tick : int;  (* tick index up to (and incl.) which slots were swept *)
  mutable min_cache : Time_ns.t option;
      (* [Some m]: [m] is the earliest pending deadline (while any is
         pending); [None]: unknown until the next [next_deadline]
         sweeps.  Held as the option [next_deadline] returns, so a
         cached answer allocates nothing. *)
}

let create ?(slots = 256) ~tick () =
  if Time_ns.(tick <= 0L) then invalid_arg "Timing_wheel.create: tick must be positive";
  if slots <= 0 then invalid_arg "Timing_wheel.create: slots must be positive";
  {
    slots_n = slots;
    tick_span = tick;
    buckets = Array.make slots [];
    count = 0;
    cancelled = 0;
    next_seq = 0;
    last_tick = 0;
    min_cache = None;
  }

let slots t = t.slots_n
let tick t = t.tick_span
let pending t = t.count
let resident t = t.count + t.cancelled
let handle_deadline _t h = h.hdeadline
let handle_pending _t h = h.hstate = Pending
let live e = e.h.hstate = Pending && e.h.hseq = e.seq

(* Tick indices are immediate ints.  A quotient beyond the int range
   (a deadline past 2^62 ticks) saturates; such an entry keeps its exact
   deadline and is found by the full-pass sweeps.  ALLOC003: the Int64
   intermediates are unboxed once inlined. *)
let[@inline] tick_of t at =
  let q = Int64.div at t.tick_span in
  if Int64.compare q (Int64.of_int max_int) > 0 then max_int
  else if Int64.compare q (Int64.of_int min_int) < 0 then min_int
  else Int64.to_int q
[@@lint.allow "ALLOC003"]

let[@inline] slot_of t tk =
  let r = tk mod t.slots_n in
  if r < 0 then r + t.slots_n else r

(* Corpses (cancelled or re-armed-away placements) are normally
   reclaimed lazily when their slot is swept, but a schedule/cancel
   churn loop targeting slots far ahead of the sweep horizon would
   otherwise grow bucket lists without bound (the cancel-leak).  Once
   the corpses outnumber both the live entries and the slot count, one
   O(resident) pass removes them all; the thresholds make that pass
   amortized O(1) per cancellation while keeping
   [resident t <= 2 * max (pending t) (slots t)]. *)
let e_compact = Profile.intern [ "wheel"; "compact_pass" ]
let e_sweep = Profile.intern [ "wheel"; "sweep_min_scan" ]

let compact t =
  Profile.event e_compact;
  for i = 0 to t.slots_n - 1 do
    t.buckets.(i) <- List.filter live t.buckets.(i)
  done;
  t.cancelled <- 0

let maybe_compact t = if t.cancelled >= t.slots_n && t.cancelled > t.count then compact t

(* Give [h] a fresh tie position and a placement in the slot of its
   deadline.  The new tie position is taken first, so a compaction pass
   triggered here already sees a re-armed handle's old placement as a
   corpse.  The sole pending entry is its own minimum, whatever the
   cache held. *)
let place t h =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  h.hseq <- seq;
  maybe_compact t;
  let at = h.hdeadline in
  (* Deadlines before the sweep horizon land in the current slot so they
     are found by the next sweep; the exact deadline is preserved. *)
  let idx = slot_of t (Int.max (tick_of t at) t.last_tick) in
  t.buckets.(idx) <- { seq; h } :: t.buckets.(idx);
  (if t.count = 0 then t.min_cache <- Some at
   else
     match t.min_cache with
     | Some m when Time_ns.(at < m) -> t.min_cache <- Some at
     | Some _ | None -> ());
  t.count <- t.count + 1

let schedule t ~at value =
  let h = { hstate = Pending; hdeadline = at; hseq = 0; value } in
  place t h;
  h

let schedule_i t ~at_i value = schedule t ~at:(Int64.of_int at_i) value

(* Turn a pending handle's placement into a corpse.  Only removing the
   (possibly) earliest entry can change the minimum. *)
let unplace t h =
  t.count <- t.count - 1;
  t.cancelled <- t.cancelled + 1;
  match t.min_cache with
  | Some m when t.count > 0 && Time_ns.(h.hdeadline <= m) -> t.min_cache <- None
  | Some _ | None -> ()

let cancel t h =
  if h.hstate = Pending then begin
    h.hstate <- Cancelled;
    unplace t h
  end

let rearm t h ~at =
  h.hstate = Pending
  && begin
       unplace t h;
       h.hdeadline <- at;
       place t h;
       true
     end

(* Earliest live deadline in [l], or [best] if none is earlier; returns
   one of the existing boxes. *)
let rec bucket_min best l =
  match l with
  | [] -> best
  | e :: rest ->
    bucket_min (if live e && Time_ns.(e.h.hdeadline < best) then e.h.hdeadline else best) rest

(* Earliest pending deadline: scan slots in time order starting at the
   sweep horizon.  An entry due within the slot currently being visited
   dominates everything in later slots, so the scan usually exits after
   a handful of slots; a full pass (visiting every bucket once) is the
   worst case and yields the exact minimum.  Called with entries
   pending, so a full pass that finds nothing below [Int64.max_int]
   means every pending deadline is [Int64.max_int].  ALLOC003: the slot
   end is an unboxed Int64 temporary, compared and dropped. *)
let rec sweep_from t i best =
  if i >= t.slots_n then best
  else begin
    let tk = t.last_tick + i in
    let best = bucket_min best t.buckets.(slot_of t tk) in
    let slot_end = Int64.mul (Int64.of_int (tk + 1)) t.tick_span in
    if Int64.compare best slot_end < 0 then best else sweep_from t (i + 1) best
  end
[@@lint.allow "ALLOC003"]

let sweep_min t =
  Profile.event e_sweep;
  sweep_from t 0 Int64.max_int

(* ALLOC002: a cache miss (a cancel or a batch invalidated the minimum)
   allocates the new cached [Some]; every later check until the
   minimum moves answers with that same cell. *)
let[@hot] next_deadline t =
  if t.count = 0 then None
  else
    match t.min_cache with
    | Some _ as cached -> cached
    | None ->
      let m = Some (sweep_min t) [@lint.allow "ALLOC002"] in
      t.min_cache <- m;
      m

(* A due entry the batch does not dispatch (budget exhausted, or an
   earlier callback raised) goes back into the wheel with its deadline
   and tie position intact, so the next call dispatches it in the same
   order; [last_tick] already advanced past its slot, hence the clamp.
   A corpse met here was counted by its cancel or re-arm.  ALLOC002:
   the cons cell is paid only by withheld entries — the truncated tail
   of a batch, never a fully fired one. *)
let withhold t e =
  if live e then begin
    let idx = slot_of t (Int.max (tick_of t e.h.hdeadline) t.last_tick) in
    t.buckets.(idx) <- (e :: t.buckets.(idx) [@lint.allow "ALLOC002"])
  end
  else if t.cancelled > 0 then t.cancelled <- t.cancelled - 1

let rec withhold_all t l =
  match l with
  | [] -> ()
  | e :: rest ->
    withhold t e;
    withhold_all t rest

let rec has_removable now l =
  match l with
  | [] -> false
  | e :: rest -> (not (live e)) || Time_ns.(e.h.hdeadline <= now) || has_removable now rest

(* Empty bucket [idx] (whose entries are the list being walked): drop
   its corpses, push its due entries onto [due] and put the rest back.
   Bucket order carries no meaning (a batch is sorted, a sweep takes a
   minimum), so the survivors go back reversed.  ALLOC002: the cons
   cells are the batch and the survivors of a bucket that held due
   entries or corpses. *)
let rec sift t now idx keep due l =
  match l with
  | [] ->
    t.buckets.(idx) <- keep;
    due
  | e :: rest ->
    if not (live e) then begin
      t.cancelled <- t.cancelled - 1;
      sift t now idx keep due rest
    end
    else if Time_ns.(e.h.hdeadline <= now) then
      sift t now idx keep (e :: due [@lint.allow "ALLOC002"]) rest
    else sift t now idx (e :: keep [@lint.allow "ALLOC002"]) due rest

let by_deadline a b =
  let c = Time_ns.compare a.h.hdeadline b.h.hdeadline in
  if c <> 0 then c else Int.compare a.seq b.seq

(* Run the sorted batch, at most [limit] callbacks; returns the count. *)
let rec dispatch t f limit fired batch =
  match batch with
  | [] -> fired
  | e :: rest ->
    (* Re-check before dispatch: an earlier callback in this batch may
       have cancelled or re-armed this entry after it left its bucket. *)
    if live e && fired < limit then begin
      e.h.hstate <- Fired;
      t.count <- t.count - 1;
      (match f e.h.hdeadline e.h.value with
      | () -> ()
      | exception exn ->
        (* A raising callback withholds the rest of the batch, as an
           exhausted budget would, before the exception leaves. *)
        let bt = Printexc.get_raw_backtrace () in
        withhold_all t rest;
        Printexc.raise_with_backtrace exn bt);
      dispatch t f limit (fired + 1) rest
    end
    else begin
      withhold t e;
      dispatch t f limit fired rest
    end

(* Snapshot-batch contract: due entries leave their buckets into a list
   before any callback runs.  A batch of one needs no sort.  ALLOC002:
   the sort's cells are paid only by batches of two or more. *)
let[@hot] fire_due t ?prefetch:_ ~now ~limit f =
  maybe_compact t;
  let now_tick = tick_of t now in
  match next_deadline t with
  | Some m when Time_ns.(m <= now) ->
    let first = t.last_tick in
    let span = now_tick - first in
    let sweep_count = if span >= t.slots_n - 1 then t.slots_n else span + 1 in
    let due = ref [] in
    for i = 0 to sweep_count - 1 do
      let idx = slot_of t (first + i) in
      let bucket = t.buckets.(idx) in
      if has_removable now bucket then due := sift t now idx [] !due bucket
    done;
    t.last_tick <- Int.max t.last_tick now_tick;
    t.min_cache <- None;
    let batch =
      match !due with
      | ([] | [ _ ]) as one -> one
      | many -> (List.sort by_deadline many [@lint.allow "ALLOC002"])
    in
    let scanned = List.length batch in
    Fire_outcome.pack ~scanned ~fired:(dispatch t f limit 0 batch)
  | Some _ | None ->
    (* Nothing due: intermediate slots can hold no due entries, so the
       sweep horizon may jump ahead in O(1). *)
    t.last_tick <- Int.max t.last_tick now_tick;
    Fire_outcome.pack ~scanned:0 ~fired:0

(* Analytic heap-footprint estimate, 64-bit words.  Per resident
   placement: cons cell (3) + entry record (3) + handle (5) + one
   shared boxed int64 deadline (3) = 14 words (a re-arm corpse shares
   its live handle, so it is over-counted by 8); the wheel itself is
   its record (9), the bucket array (slots+1), the boxed tick (3) and
   the cached minimum's option cell and its deadline box (5; the box
   is usually a handle's, counted again there). *)
let words t = 17 + (t.slots_n + 1) + (14 * (t.count + t.cancelled))

let iter_pending t f =
  Array.iter
    (fun bucket -> List.iter (fun e -> if live e then f e.h.hdeadline e.h.value) bucket)
    t.buckets
