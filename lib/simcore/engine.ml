(* The event queue is an {!Eventq} (4-ary heap over unboxed (time,
   seq) int keys) whose payloads index a slot table of pooled event
   records.  Scheduling allocates nothing beyond the caller's closure:
   a slot is popped from the freelist, mutated in place, and its index
   pushed into the heap; firing or cancelling returns it.

   Handles are immediate ints packing (seq, slot index).  [seq] is
   unique per engine, so a handle stays valid across slot reuse: a
   stale handle's seq no longer matches the slot's occupant and every
   handle operation degrades to a no-op, exactly the semantics the old
   record-per-event representation had.

   Cancellation is lazy (the heap entry stays behind and is skipped on
   pop) with threshold-triggered compaction: once dead entries exceed
   both a floor and half the queue, one O(n) {!Eventq.rebuild} sheds
   them, so cancel-heavy workloads (rate-based clocking reschedules
   per packet) keep O(live) residency — the same fix PR 1 applied to
   the timing wheel.

   Times ride as immediate ints internally ([Time_ns.t] is int64 at
   the API); the boxed clock is refreshed only when the clock actually
   advances, so same-instant event cascades re-box nothing. *)

type slot = {
  mutable seq : int;  (* unique id of the occupant; -1 when free *)
  mutable action : unit -> unit;
}

(* Handle layout: [seq lsl idx_bits | idx].  25 index bits allow 33M
   concurrent events; the remaining 37 seq bits allow 1.4e11 schedules
   per engine.  Both are far beyond any simulation here and checked
   where cheap. *)
let idx_bits = 25
let idx_mask = (1 lsl idx_bits) - 1

type handle = int

(* Its index [idx_mask] lies beyond any slot table ([grow_slots] stops
   below it), so every handle operation treats it as stale. *)
let null_handle = -1

type t = {
  mutable clock : Time_ns.t;  (* boxed mirror of [clock_i] *)
  mutable clock_i : int;
  mutable next_seq : int;
  mutable live : int;  (* scheduled, not yet run, not cancelled *)
  mutable dead : int;  (* cancelled entries still in the heap *)
  q : Eventq.t;
  mutable slots : slot array;
  mutable free : int array;  (* stack of free slot indices *)
  mutable free_top : int;
}

let nop () = ()

let create () =
  {
    clock = Time_ns.zero;
    clock_i = 0;
    next_seq = 0;
    live = 0;
    dead = 0;
    q = Eventq.create ();
    slots = [||];
    free = [||];
    free_top = 0;
  }

let now t = t.clock
let now_i t = t.clock_i
let pending t = t.live

let queue_length t = Eventq.length t.q
(* Heap residency including dead entries; exposed so tests can bound
   the lazy-cancellation overhead. *)

(* Array.make needs a fill element; every new index is immediately
   overwritten with a fresh record by [alloc_slot].  RACE002: written
   once at module init and never mutated afterwards (its fields only
   exist to satisfy the slot type), so sharing it across domains is
   safe. *)
let dummy_slot = { seq = -1; action = nop } [@@lint.allow "RACE002"]

let grow_slots t =
  let cap = Array.length t.slots in
  let ncap = if cap = 0 then 16 else cap * 2 in
  if ncap > idx_mask then invalid_arg "Engine: too many concurrent events";
  let nslots = Array.make ncap dummy_slot in
  Array.blit t.slots 0 nslots 0 cap;
  t.slots <- nslots

(* [t.free_top <= Array.length t.free] always; the unsafe accesses
   below stay inside the in-capacity branches. *)
let free_push t idx =
  let cap = Array.length t.free in
  if t.free_top = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nfree = Array.make ncap 0 in
    Array.blit t.free 0 nfree 0 t.free_top;
    t.free <- nfree
  end;
  Array.unsafe_set t.free t.free_top idx;
  t.free_top <- t.free_top + 1

(* The freed slot keeps its action closure until the slot is reused:
   clearing it to [nop] would cost a write barrier per event, and the
   retention is bounded by the engine's peak concurrency. *)
let release t idx (s : slot) =
  s.seq <- -1;
  free_push t idx

(* Pop a free slot index, growing the table when exhausted. *)
let alloc_slot t =
  if t.free_top = 0 then begin
    let cap = Array.length t.slots in
    grow_slots t;
    let ncap = Array.length t.slots in
    (* Push new indices high-to-low so the lowest pops first.
       ALLOC002: the fresh records are pool growth — amortized O(1)
       per schedule and precisely the allocation the pool exists to
       front-load. *)
    for i = ncap - 1 downto cap do
      t.slots.(i) <- ({ seq = -1; action = nop } [@lint.allow "ALLOC002"]);
      free_push t i
    done
  end;
  let top = t.free_top - 1 in
  t.free_top <- top;
  Array.unsafe_get t.free top

let[@hot] schedule_i t time_i f =
  let idx = alloc_slot t in
  let s = Array.unsafe_get t.slots idx in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  s.seq <- seq;
  s.action <- f;
  t.live <- t.live + 1;
  Eventq.push t.q ~time:time_i ~seq ~payload:idx;
  (seq lsl idx_bits) lor idx

let[@hot] schedule_at t time f =
  let time_i = Int64.to_int time in
  (* Clamp times in the past (including anything that overflowed the
     int range) to the current instant. *)
  let time_i = if time_i < t.clock_i then t.clock_i else time_i in
  schedule_i t time_i f

(* All-immediate arithmetic: no boxed intermediates on the relative
   scheduling path every subsystem uses. *)
let[@hot] schedule_after_i t d_i f =
  let d_i = if d_i < 0 then 0 else d_i in
  schedule_i t (t.clock_i + d_i) f

let[@hot] schedule_after t d f = schedule_after_i t (Int64.to_int d) f

(* An entry is live iff its seq still matches the slot occupant's:
   firing and cancelling invalidate the slot, and slot reuse installs
   a fresh seq.  Payloads in the queue always index within [t.slots]
   (the table never shrinks), so the lookups are unsafe-safe. *)

let is_scheduled t h =
  let idx = h land idx_mask in
  idx < Array.length t.slots && (Array.unsafe_get t.slots idx).seq = h lsr idx_bits

(* Shed dead heap entries once they exceed both a floor (compaction is
   O(n); don't bother for small queues) and half the residency (so the
   amortized cost per cancel is O(1) and residency stays O(live)). *)
let compact_threshold = 64

let maybe_compact t =
  if t.dead > compact_threshold && t.dead * 2 > Eventq.length t.q then begin
    (* ALLOC001: the [~keep] closure is one allocation per O(n)
       compaction, not per cancel — amortized away by the threshold. *)
    Eventq.rebuild t.q
      ~keep:((fun ~seq ~payload -> t.slots.(payload).seq = seq) [@lint.allow "ALLOC001"]);
    t.dead <- 0
  end

let[@hot] cancel t h =
  let idx = h land idx_mask in
  if idx < Array.length t.slots then begin
    let s = Array.unsafe_get t.slots idx in
    if s.seq = h lsr idx_bits then begin
      release t idx s;
      t.live <- t.live - 1;
      t.dead <- t.dead + 1;
      maybe_compact t
    end
  end

(* The single choke point that skips lazily-cancelled entries: after
   [drop_stale] the queue is either empty or headed by a live event.
   Both [step] and [run_until] go through it. *)
let[@hot] drop_stale t =
  let q = t.q in
  while
    (not (Eventq.is_empty q))
    && (Array.unsafe_get t.slots (Eventq.min_payload q)).seq <> Eventq.min_seq q
  do
    Eventq.drop_min q;
    t.dead <- t.dead - 1
  done

(* Fire the head event (caller guarantees it is live): advance the
   clock, release the slot, then run the action.  The slot is released
   before the action runs so the handle reads as no-longer-scheduled
   inside its own handler, matching the old state-machine order. *)
let[@hot] fire_head t =
  let q = t.q in
  let time = Eventq.min_time q in
  let idx = Eventq.min_payload q in
  Eventq.drop_min q;
  let s = Array.unsafe_get t.slots idx in
  let action = s.action in
  release t idx s;
  t.live <- t.live - 1;
  if time > t.clock_i then begin
    t.clock_i <- time;
    (* ALLOC003: the boxed mirror is refreshed only when the clock
       actually advances; same-instant cascades skip this branch. *)
    t.clock <- (Int64.of_int time [@lint.allow "ALLOC003"])
  end;
  action ()

let[@hot] step t =
  drop_stale t;
  if Eventq.is_empty t.q then false
  else begin
    fire_head t;
    true
  end

let[@hot] run_until t limit =
  let limit_i = Int64.to_int (Time_ns.max limit 0L) in
  (* A while loop rather than a local [let rec loop]: the recursive
     closure captured [t]/[limit_i] and cost one allocation per call;
     the [continue] ref compiles to a stack variable
     (Simplif.eliminate_ref). *)
  let continue = ref true in
  while !continue do
    drop_stale t;
    if Eventq.is_empty t.q then continue := false
    else begin
      (* Immediate-int key comparison (DET003 targets boxed Time_ns). *)
      let head = Eventq.min_time t.q in
      if head <= limit_i then fire_head t else continue := false
    end
  done;
  if limit_i > t.clock_i then begin
    t.clock_i <- limit_i;
    t.clock <- limit
  end

let run t = while step t do () done
