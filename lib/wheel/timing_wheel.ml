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
  mutable last_tick : int64;  (* tick index up to (and incl.) which slots were swept *)
  mutable cached_min : Time_ns.t;  (* meaningful only when [min_valid] *)
  mutable min_valid : bool;
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
    last_tick = 0L;
    cached_min = Time_ns.zero;
    min_valid = true;  (* vacuously: the wheel is empty *)
  }

let slots t = t.slots_n
let tick t = t.tick_span
let pending t = t.count
let resident t = t.count + t.cancelled
let handle_deadline _t h = h.hdeadline
let handle_pending _t h = h.hstate = Pending
let live e = e.h.hstate = Pending && e.h.hseq = e.seq

(* ALLOC003: deadlines are int64 nanoseconds at the wheel API, so tick
   math boxes its result — a handful of boxes per fire_due/schedule
   call, not per resident timer. *)
let tick_of t at = (Int64.div at t.tick_span [@lint.allow "ALLOC003"])

let slot_of t tk =
  Int64.to_int ((Int64.rem tk (Int64.of_int t.slots_n) [@lint.allow "ALLOC003"]))
  [@@lint.allow "ALLOC003"]

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

(* ALLOC001: one filter closure per O(resident) compaction pass —
   amortized O(1) per cancellation by the thresholds above. *)
let compact t =
  Profile.event e_compact;
  for i = 0 to t.slots_n - 1 do
    t.buckets.(i) <- List.filter live t.buckets.(i)
  done;
  t.cancelled <- 0
[@@lint.allow "ALLOC001"]

let maybe_compact t = if t.cancelled >= t.slots_n && t.cancelled > t.count then compact t

(* Give [h] a fresh tie position and a placement in the slot of its
   deadline.  The new tie position is taken first, so a compaction pass
   triggered here already sees a re-armed handle's old placement as a
   corpse. *)
let place t h =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  h.hseq <- seq;
  maybe_compact t;
  let at = h.hdeadline in
  (* Deadlines before the sweep horizon land in the current slot so they
     are found by the next sweep; the exact deadline is preserved. *)
  let idx = slot_of t (Int64.max (tick_of t at) t.last_tick) in
  t.buckets.(idx) <- { seq; h } :: t.buckets.(idx);
  if t.min_valid then
    if t.count = 0 then t.cached_min <- at else t.cached_min <- Time_ns.min t.cached_min at;
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
  if t.min_valid && t.count > 0 && Time_ns.(h.hdeadline <= t.cached_min) then
    t.min_valid <- false

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

(* Earliest pending deadline: scan slots in time order starting at the
   sweep horizon.  An entry due within the slot currently being visited
   dominates everything in later slots, so the scan usually exits after
   a handful of slots; a full pass (visiting every bucket once) is the
   worst case and yields the exact minimum. *)
(* ALLOC001/2/3: the cache-miss repair path — runs only when a cancel
   invalidated the cached minimum; its option cells, consider closure
   and tick boxes are bounded by one slot scan, and the common
   next_deadline call answers from the cache without reaching here. *)
let sweep_min t =
  Profile.event e_sweep;
  let best = ref None in
  let consider e =
    if live e then
      match !best with
      | None -> best := Some e.h.hdeadline
      | Some m -> if Time_ns.(e.h.hdeadline < m) then best := Some e.h.hdeadline
  in
  let exception Found in
  (try
     for i = 0 to t.slots_n - 1 do
       let tk = Int64.add t.last_tick (Int64.of_int i) in
       List.iter consider t.buckets.(slot_of t tk);
       let slot_end = Int64.mul (Int64.add tk 1L) t.tick_span in
       match !best with
       | Some m when Time_ns.(m < slot_end) -> raise Found
       | Some _ | None -> ()
     done
   with Found -> ());
  !best
[@@lint.allow "ALLOC001"] [@@lint.allow "ALLOC002"] [@@lint.allow "ALLOC003"]

(* ALLOC002: returning [Some deadline] is the API contract; on the
   cached fast path it is the sole allocation per trigger-state check. *)
let[@hot] next_deadline t =
  if t.count = 0 then None
  else if t.min_valid then Some t.cached_min
  else begin
    match sweep_min t with
    | Some m ->
      t.cached_min <- m;
      t.min_valid <- true;
      Some m
    | None -> None  (* unreachable: count > 0 implies a pending entry *)
  end
[@@lint.allow "ALLOC002"]

(* A due entry the batch does not dispatch (budget exhausted, or an
   earlier callback raised) goes back into the wheel with its deadline
   and tie position intact, so the next call dispatches it in the same
   order; [last_tick] already advanced past its slot, hence the clamp.
   A corpse met here was counted by its cancel or re-arm.
   ALLOC002/3: the cons cell and tick box are paid only by withheld
   entries — the truncated tail of a batch, never a fully fired one. *)
let withhold t e =
  if live e then begin
    let idx = slot_of t (Int64.max (tick_of t e.h.hdeadline) t.last_tick) in
    t.buckets.(idx) <- e :: t.buckets.(idx)
  end
  else if t.cancelled > 0 then t.cancelled <- t.cancelled - 1
[@@lint.allow "ALLOC002"] [@@lint.allow "ALLOC003"]

(* ALLOC001/2/3: snapshot-batch contract — due entries leave their
   buckets into a list before any callback runs, so the cons cells,
   filter/sort/dispatch closures and tick boxes are proportional to the
   swept slots and fired batch; the nothing-due case exits after the
   O(1) next_deadline check. *)
let[@hot] fire_due t ?prefetch:_ ~now ~limit f =
  maybe_compact t;
  let now_tick = tick_of t now in
  match next_deadline t with
  | None ->
    t.last_tick <- Int64.max t.last_tick now_tick;
    Fire_outcome.pack ~scanned:0 ~fired:0
  | Some m when Time_ns.(m > now) ->
    (* Nothing due: intermediate slots can hold no due entries, so the
       sweep horizon may jump ahead in O(1). *)
    t.last_tick <- Int64.max t.last_tick now_tick;
    Fire_outcome.pack ~scanned:0 ~fired:0
  | Some _ ->
    let due = ref [] in
    let first = t.last_tick in
    let span64 = Int64.sub now_tick first in
    let sweep_count =
      if Int64.compare span64 (Int64.of_int (t.slots_n - 1)) >= 0 then t.slots_n
      else Int64.to_int span64 + 1
    in
    for i = 0 to sweep_count - 1 do
      let idx = slot_of t (Int64.add first (Int64.of_int i)) in
      let keep =
        List.filter
          (fun e ->
            if not (live e) then begin
              t.cancelled <- t.cancelled - 1;
              false
            end
            else if Time_ns.(e.h.hdeadline <= now) then begin
              due := e :: !due;
              false
            end
            else true)
          t.buckets.(idx)
      in
      t.buckets.(idx) <- keep
    done;
    t.last_tick <- Int64.max t.last_tick now_tick;
    let due = List.sort (fun a b ->
      let c = Time_ns.compare a.h.hdeadline b.h.hdeadline in
      if c <> 0 then c else Int.compare a.seq b.seq) !due
    in
    t.min_valid <- false;
    let scanned = List.length due in
    let fired = ref 0 in
    let rec dispatch = function
      | [] -> ()
      | e :: rest ->
        (* Re-check before dispatch: an earlier callback in this batch
           may have cancelled or re-armed this entry after it left its
           bucket. *)
        if live e && !fired < limit then begin
          e.h.hstate <- Fired;
          t.count <- t.count - 1;
          incr fired;
          (try f e.h.hdeadline e.h.value
           with exn ->
             (* A raising callback withholds the rest of the batch, as
                an exhausted budget would, before the exception leaves. *)
             let bt = Printexc.get_raw_backtrace () in
             List.iter (withhold t) rest;
             Printexc.raise_with_backtrace exn bt);
          dispatch rest
        end
        else begin
          withhold t e;
          dispatch rest
        end
    in
    dispatch due;
    Fire_outcome.pack ~scanned ~fired:!fired
[@@lint.allow "ALLOC001"] [@@lint.allow "ALLOC002"] [@@lint.allow "ALLOC003"]

(* Analytic heap-footprint estimate, 64-bit words.  Per resident
   placement: cons cell (3) + entry record (3) + handle (5) + one
   shared boxed int64 deadline (3) = 14 words (a re-arm corpse shares
   its live handle, so it is over-counted by 8); the wheel itself is
   its record (10), the bucket array (slots+1) and three boxed int64
   fields (9). *)
let words t = 19 + (t.slots_n + 1) + (14 * (t.count + t.cancelled))

let iter_pending t f =
  Array.iter
    (fun bucket -> List.iter (fun e -> if live e then f e.h.hdeadline e.h.value) bucket)
    t.buckets
