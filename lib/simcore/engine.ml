(* The event queue is an {!Eventq} (4-ary heap over unboxed (time,
   seq) int keys) whose payloads index a slot table of plain int
   arrays: the occupant's kind and its int payload.  An event is those
   two ints; what it does is its kind's handler, registered once when
   the component that owns the kind is created.  Posting allocates
   nothing: a slot index is popped from the freelist, two ints are
   written, and the index is pushed into the heap; firing returns it.

   Closure events ([schedule_at] and friends) are one built-in kind,
   [closure_kind], whose payload is the slot's own index into a
   per-slot closure array, so the engine keeps one dispatch path:
   [handlers.(kind) payload].

   A post always runs: the engine has no cancellation, so every heap
   entry is live and the heap holds exactly the pending posts.  An
   occurrence that a component replaces or withdraws is a timer
   instead.  Timers live beside the heap: a timer is a kind and a fixed
   payload with at most one pending occurrence, in a small table of
   parallel int arrays with the earliest armed timer's index cached.
   Arming takes its seq from [next_seq] like a post and overwrites the
   occurrence in place; disarming clears it, so neither leaves a heap
   entry behind.  [step] and [run_until] fire whichever of the heap
   head and the earliest timer comes first in (time, seq) order,
   exactly as if both were in the heap.  The table is scanned whenever
   its minimum may have moved, so it suits a handful of timers: one per
   CPU (quantum completion), per hardware pacer (its tick) and per TCP
   sender (its retransmission timeout).

   Time is an immediate int inside the engine ([clock_i]); [Time_ns.t]
   is int64 only at the API, and enters through [Time_ns.to_int], which
   saturates: a time past the int range is [max_int], the end of time,
   never a wrapped instant in the past; [schedule_after] saturates
   there too.  The boxed clock is built on demand by [now] and cached
   until the clock next advances, so an advance no one asks the box of
   allocates nothing, and repeated calls at one instant share one
   box. *)

(* The slot table stops growing below [max_slots] entries, far beyond
   the concurrency of any simulation here. *)
let max_slots = 1 lsl 25

type handle = unit
type kind = int
type timer = int

let closure_kind = 0
let null_kind = -1

(* Beyond every timer table, so the bounds-checked access of each timer
   operation rejects it. *)
let null_timer = -1

type t = {
  mutable clock_i : int;
  mutable boxed : Time_ns.t;  (* [boxed_at] boxed, built by [now] *)
  mutable boxed_at : int;
  mutable next_seq : int;
  mutable live : int;  (* posted or armed, not yet run *)
  q : Eventq.t;
  (* The slot table, one entry per index in each array. *)
  mutable kinds : int array;
  mutable payloads : int array;
  mutable actions : (unit -> unit) array;  (* closure events' closures *)
  mutable free : int array;  (* stack of free slot indices *)
  mutable free_top : int;
  (* The timer table, one entry per timer in each array: timer [i] is
     armed, due at [(tt.(i), ts.(i))], iff [ts.(i) >= 0]. *)
  mutable tt : int array;  (* deadline *)
  mutable ts : int array;  (* seq of the occurrence; -1 when disarmed *)
  mutable tk : int array;  (* kind *)
  mutable tp : int array;  (* payload *)
  mutable n_timers : int;
  mutable first : int;  (* the earliest armed timer; -1 if none *)
  (* The kind table, indexed by kind. *)
  mutable handlers : (int -> unit) array;
  mutable names : string array;
  mutable runs : int array;
  mutable n_kinds : int;
}

let nop () = ()

(* [a]'s first [n] elements in a fresh array of length [ncap]. *)
let grown a n ncap fill =
  let b = Array.make ncap fill in
  Array.blit a 0 b 0 n;
  b

let register t ~name handler =
  let k = t.n_kinds in
  if k = Array.length t.handlers then begin
    let ncap = if k = 0 then 16 else 2 * k in
    t.handlers <- grown t.handlers k ncap handler;
    t.names <- grown t.names k ncap name;
    t.runs <- grown t.runs k ncap 0
  end;
  t.handlers.(k) <- handler;
  t.names.(k) <- name;
  t.n_kinds <- k + 1;
  k

let create () =
  let t =
    {
      clock_i = 0;
      boxed = Time_ns.zero;
      boxed_at = 0;
      next_seq = 0;
      live = 0;
      q = Eventq.create ();
      kinds = [||];
      payloads = [||];
      actions = [||];
      free = [||];
      free_top = 0;
      tt = [||];
      ts = [||];
      tk = [||];
      tp = [||];
      n_timers = 0;
      first = -1;
      handlers = [||];
      names = [||];
      runs = [||];
      n_kinds = 0;
    }
  in
  (* A closure event's payload is its own slot index.  The slot is free
     by the time this runs, but nothing reuses it before the call. *)
  let k = register t ~name:"closure" (fun idx -> (Array.unsafe_get t.actions idx) ()) in
  assert (k = closure_kind);
  t

(* The clock never moves backwards, so a box built at the current
   instant stays right until the next advance. *)
let now t =
  if t.boxed_at = t.clock_i then t.boxed
  else begin
    let b = Int64.of_int t.clock_i in
    t.boxed <- b;
    t.boxed_at <- t.clock_i;
    b
  end

let now_i t = t.clock_i
let pending t = t.live

(* DEAD001: an acceptance probe, compared across changes. *)
let[@lint.allow "DEAD001"] kind_runs t =
  List.init t.n_kinds (fun k -> (t.names.(k), t.runs.(k)))

let grow_slots t =
  let cap = Array.length t.kinds in
  let ncap = if cap = 0 then 16 else cap * 2 in
  if ncap >= max_slots then invalid_arg "Engine: too many concurrent events";
  t.kinds <- grown t.kinds cap ncap 0;
  t.payloads <- grown t.payloads cap ncap 0;
  t.actions <- grown t.actions cap ncap nop

(* [t.free_top <= Array.length t.free] always; the unsafe accesses
   below stay inside the in-capacity branches. *)
let free_push t idx =
  let cap = Array.length t.free in
  if t.free_top = cap then t.free <- grown t.free cap (if cap = 0 then 16 else cap * 2) 0;
  Array.unsafe_set t.free t.free_top idx;
  t.free_top <- t.free_top + 1

(* Pop a free slot index, growing the table when exhausted. *)
let alloc_slot t =
  if t.free_top = 0 then begin
    let cap = Array.length t.kinds in
    grow_slots t;
    (* Push new indices high-to-low so the lowest pops first. *)
    for i = Array.length t.kinds - 1 downto cap do
      free_push t i
    done
  end;
  let top = t.free_top - 1 in
  t.free_top <- top;
  Array.unsafe_get t.free top

(* [idx] comes from [alloc_slot], so it indexes every slot array. *)
let[@hot] enqueue t time_i kind payload idx =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Array.unsafe_set t.kinds idx kind;
  Array.unsafe_set t.payloads idx payload;
  t.live <- t.live + 1;
  Eventq.push t.q ~time:time_i ~seq ~payload:idx

let[@hot] post_at_i t time_i kind payload =
  if kind <= closure_kind || kind >= t.n_kinds then invalid_arg "Engine.post: unknown kind";
  (* Clamp times in the past to the current instant. *)
  let time_i = if time_i < t.clock_i then t.clock_i else time_i in
  enqueue t time_i kind payload (alloc_slot t)

(* All-immediate arithmetic: no boxed intermediates on the relative
   scheduling path every subsystem uses. *)
let[@hot] post_after_i t d_i kind payload =
  post_at_i t (if d_i < 0 then t.clock_i else t.clock_i + d_i) kind payload

let[@hot] schedule_i t time_i f =
  let idx = alloc_slot t in
  Array.unsafe_set t.actions idx f;
  enqueue t time_i closure_kind idx idx

let[@hot] schedule_at t time f =
  (* Clamp times in the past to the current instant. *)
  schedule_i t (Int.max (Time_ns.to_int time) t.clock_i) f

(* [d_i] ns from now: a negative delay is now, and a sum past the int
   range is [max_int]. *)
let[@inline] after t d_i =
  if d_i <= 0 then t.clock_i else if d_i > max_int - t.clock_i then max_int else t.clock_i + d_i

let[@hot] schedule_after t d f = schedule_i t (after t (Time_ns.to_int d)) f

let timer t kind ~payload =
  if kind <= closure_kind || kind >= t.n_kinds then invalid_arg "Engine.timer: unknown kind";
  let i = t.n_timers in
  if i = Array.length t.tt then begin
    let ncap = if i = 0 then 4 else 2 * i in
    t.tt <- grown t.tt i ncap 0;
    t.ts <- grown t.ts i ncap (-1);
    t.tk <- grown t.tk i ncap 0;
    t.tp <- grown t.tp i ncap 0
  end;
  t.ts.(i) <- -1;
  t.tk.(i) <- kind;
  t.tp.(i) <- payload;
  t.n_timers <- i + 1;
  i

(* Armed timer [i] is due before armed timer [j].  Every timer index
   below passed a bounds-checked access of [ts] first, and the four
   timer arrays share one length. *)
let[@inline] earlier t i j =
  let ti = Array.unsafe_get t.tt i and tj = Array.unsafe_get t.tt j in
  ti < tj || (ti = tj && Array.unsafe_get t.ts i < Array.unsafe_get t.ts j)

(* Recompute [first] by a scan of the table: a handful of timers. *)
let[@hot] refresh_first t =
  let best = ref (-1) in
  for i = 0 to t.n_timers - 1 do
    if Array.unsafe_get t.ts i >= 0 && (!best < 0 || earlier t i !best) then best := i
  done;
  t.first <- !best

let[@hot] arm_after t i d_i =
  let at = after t d_i in
  if t.ts.(i) < 0 then t.live <- t.live + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Array.unsafe_set t.tt i at;
  Array.unsafe_set t.ts i seq;
  (* Re-arming the earliest timer may have moved it behind another. *)
  if t.first = i then refresh_first t
  else if t.first < 0 || earlier t i t.first then t.first <- i

let[@hot] disarm t i =
  if t.ts.(i) >= 0 then begin
    Array.unsafe_set t.ts i (-1);
    t.live <- t.live - 1;
    if t.first = i then refresh_first t
  end

(* Fire the head event: advance the clock, free the slot, then dispatch
   to the kind's handler.  The heap entry is dropped and the slot freed
   before the handler runs, so a handler that raises leaves the queue
   consistent: the next [step] or [run_until] resumes with the
   remaining events.  A freed closure slot keeps its closure until the
   slot is reused: clearing it to [nop] would cost a write barrier per
   event, and the retention is bounded by the engine's peak
   concurrency. *)
let[@hot] fire_head t =
  let q = t.q in
  let time = Eventq.min_time q in
  let idx = Eventq.min_payload q in
  Eventq.drop_min q;
  let kind = Array.unsafe_get t.kinds idx in
  let payload = Array.unsafe_get t.payloads idx in
  free_push t idx;
  t.live <- t.live - 1;
  if time > t.clock_i then t.clock_i <- time;
  Array.unsafe_set t.runs kind (Array.unsafe_get t.runs kind + 1);
  (Array.unsafe_get t.handlers kind) payload

(* Whether the earliest armed timer comes before the heap head. *)
let[@hot] timer_next t =
  let f = t.first in
  f >= 0
  && (Eventq.is_empty t.q
     ||
     let ft = Array.unsafe_get t.tt f and ht = Eventq.min_time t.q in
     ft < ht || (ft = ht && Array.unsafe_get t.ts f < Eventq.min_seq t.q))

(* Fire the earliest timer as [fire_head] fires the head event: it is
   disarmed before its handler runs, so the handler may re-arm it and a
   raise leaves it disarmed. *)
let[@hot] fire_timer t =
  let f = t.first in
  let time = Array.unsafe_get t.tt f in
  Array.unsafe_set t.ts f (-1);
  t.live <- t.live - 1;
  refresh_first t;
  if time > t.clock_i then t.clock_i <- time;
  let kind = Array.unsafe_get t.tk f in
  Array.unsafe_set t.runs kind (Array.unsafe_get t.runs kind + 1);
  (Array.unsafe_get t.handlers kind) (Array.unsafe_get t.tp f)

let[@hot] step t =
  if timer_next t then begin
    fire_timer t;
    true
  end
  else if Eventq.is_empty t.q then false
  else begin
    fire_head t;
    true
  end

let[@hot] run_until t limit =
  let limit_i = Int.max (Time_ns.to_int limit) 0 in
  (* A while loop rather than a local [let rec loop]: the recursive
     closure captured [t]/[limit_i] and cost one allocation per call;
     the [continue] ref compiles to a stack variable
     (Simplif.eliminate_ref). *)
  let continue = ref true in
  while !continue do
    if timer_next t then begin
      if Array.unsafe_get t.tt t.first <= limit_i then fire_timer t else continue := false
    end
    else if Eventq.is_empty t.q then continue := false
    else begin
      (* Immediate-int key comparison (DET003 targets boxed Time_ns). *)
      let head = Eventq.min_time t.q in
      if head <= limit_i then fire_head t else continue := false
    end
  done;
  if limit_i > t.clock_i then t.clock_i <- limit_i

let run t = while step t do () done
