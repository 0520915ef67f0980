let prio_intr = 0
let prio_softintr = 1
let prio_kernel = 2
let prio_user = 3
let prio_background = 4
(* DEAD001 here and below: CPU accounting the tests check. *)
let[@lint.allow "DEAD001"] prio_count = 5

(* Work classes for delay attribution: priorities double as classes, plus
   one extra for soft-timer handler execution, which runs at softintr
   priority but must be distinguishable in the trace ("handler of another
   timer" is its own cause in the why-late breakdown). *)
let klass_timer = 5

(* Priorities 0 and 1 model interrupt handlers and spl-protected
   software-interrupt processing: once running they are never preempted. *)
let preemptible prio = prio >= prio_kernel

(* Fallback attributions for quanta whose submitter did not tag them:
   unattributed work still lands in the tree, keeping the conservation
   invariant (attributed total = busy_ns) independent of coverage.
   Individual immutable bindings, not an array: the RACE rules treat a
   toplevel array literal as cross-domain shared state. *)
let ua_intr = Profile.intern [ "unattributed"; "intr" ]
let ua_softintr = Profile.intern [ "unattributed"; "softintr" ]
let ua_kernel = Profile.intern [ "unattributed"; "kernel" ]
let ua_user = Profile.intern [ "unattributed"; "user" ]
let ua_background = Profile.intern [ "unattributed"; "background" ]

let default_attr prio =
  match prio with
  | 0 -> ua_intr
  | 1 -> ua_softintr
  | 2 -> ua_kernel
  | 3 -> ua_user
  | _ -> ua_background

let no_cb (_ : int) = ()

(* The quanta live in a per-CPU slot arena of parallel arrays, one slot
   per queued or running quantum, recycled through a free stack: a
   quantum costs no record and no queue cell.  Each priority's run queue
   is a ring deque of slot indices.  Every ring is as long as the arena
   (a slot sits in at most one ring), so a ring never overflows and all
   of them grow with it; the length is a power of two, so ring indices
   wrap with a mask.  A new quantum joins the back of its ring, unless
   it would be the next popped and starts at once; a preempted one goes
   back to the front, which is where it resumes — at most one quantum
   per priority is ever preempted, since another of that priority can
   only start after it.  Only the callback, and an
   attribution passed explicitly, are pointers: trigger states and
   flags are immediates, so a quantum writes no other pointer into the
   arena.  A freed slot keeps its callback until the slot is reused, as
   the engine's timer slots do: resetting it would cost a write barrier
   per quantum, and what it keeps reachable is bounded by the arena's
   peak. *)
type t = {
  engine : Engine.t;
  cpu_id : int;
  (* Slot arena; [remaining] is integer nanoseconds, [trigger] the
     trigger state the completion reports (through the CPU's trigger
     hook, when [has_trigger]) before [cb] runs; [attr] is read only
     when [has_attr], else the priority's default applies. *)
  mutable s_klass : int array;  (* work class for Trace.Cpu_run; defaults to the priority *)
  mutable s_has_attr : bool array;
  mutable s_attr : Profile.attr array;
  mutable s_remaining : int array;
  mutable s_has_trigger : bool array;
  mutable s_trigger : Trigger.kind array;
  mutable s_cb : (int -> unit) array;  (* receives the completion instant, ns *)
  mutable free : int array;  (* free-slot stack *)
  mutable n_free : int;
  rings : int array array;  (* per priority; length = arena capacity *)
  heads : int array;
  lens : int array;
  mutable current : int;  (* running slot; -1 while nothing runs *)
  mutable cur_prio : int;  (* priority of [current] *)
  mutable started : int;  (* dispatch instant of [current], ns *)
  mutable quantum : Engine.timer;  (* completion of [current]; armed while it runs *)
  mutable busy : int;
  busy_by_prio : int array;
  mutable idle_hook : int -> unit;
  mutable resume_hook : int -> unit;
  mutable trigger_hook : Trigger.kind -> unit;
  mutable depth : int;
}

let running t = t.current >= 0

let is_idle t = (not (running t)) && t.depth = 0
let[@lint.allow "DEAD001"] busy_ns t = Int64.of_int t.busy
let[@lint.allow "DEAD001"] busy_ns_at t prio = Int64.of_int t.busy_by_prio.(prio)
let set_idle_hook t f = t.idle_hook <- f
let set_resume_hook t f = t.resume_hook <- f
let set_trigger_hook t f = t.trigger_hook <- f

let doubled a fill =
  let n = Array.length a in
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

(* Double the arena and every ring, unrolling each ring to start at 0;
   the new slots join the free stack. *)
let grow t =
  let cap = Array.length t.s_klass in
  let ncap = 2 * cap in
  t.s_klass <- doubled t.s_klass 0;
  t.s_has_attr <- doubled t.s_has_attr false;
  t.s_attr <- doubled t.s_attr ua_background;
  t.s_remaining <- doubled t.s_remaining 0;
  t.s_has_trigger <- doubled t.s_has_trigger false;
  t.s_trigger <- doubled t.s_trigger Trigger.Idle;
  t.s_cb <- doubled t.s_cb no_cb;
  for p = 0 to prio_count - 1 do
    let ring = t.rings.(p) and b = Array.make ncap 0 in
    for i = 0 to t.lens.(p) - 1 do
      b.(i) <- ring.((t.heads.(p) + i) land (cap - 1))
    done;
    t.rings.(p) <- b;
    t.heads.(p) <- 0
  done;
  t.free <- Array.make ncap 0;
  for i = 0 to cap - 1 do
    t.free.(i) <- ncap - 1 - i
  done;
  t.n_free <- cap

let[@hot] alloc_slot t =
  if t.n_free = 0 then grow t;
  t.n_free <- t.n_free - 1;
  t.free.(t.n_free)

let[@hot] free_slot t slot =
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1

let[@hot] push_back t prio slot =
  let ring = t.rings.(prio) in
  ring.((t.heads.(prio) + t.lens.(prio)) land (Array.length ring - 1)) <- slot;
  t.lens.(prio) <- t.lens.(prio) + 1

let[@hot] push_front t prio slot =
  let ring = t.rings.(prio) in
  let h = (t.heads.(prio) - 1) land (Array.length ring - 1) in
  ring.(h) <- slot;
  t.heads.(prio) <- h;
  t.lens.(prio) <- t.lens.(prio) + 1

let[@hot] pop_front t prio =
  let ring = t.rings.(prio) in
  let h = t.heads.(prio) in
  t.heads.(prio) <- (h + 1) land (Array.length ring - 1);
  t.lens.(prio) <- t.lens.(prio) - 1;
  ring.(h)

(* No quantum of priority [p .. prio] is queued. *)
let rec ahead_of_queue t p prio = p > prio || (t.lens.(p) = 0 && ahead_of_queue t (p + 1) prio)

(* Most urgent priority with a queued quantum; -1 if none. *)
let rec ready_prio t prio =
  if prio >= prio_count then -1 else if t.lens.(prio) > 0 then prio else ready_prio t (prio + 1)

(* The single point through which all busy time flows — attribution
   here is what makes the Profile conservation invariant structural, and
   emitting [Cpu_run] here is what makes the why-late busy coverage
   complete: every charged interval [now - span, now] reaches the trace
   exactly once, tagged with its work class.  The boxed span is built
   only for a live profiler. *)
let[@hot] charge t slot span =
  let prio = t.cur_prio in
  t.busy <- t.busy + span;
  t.busy_by_prio.(prio) <- t.busy_by_prio.(prio) + span;
  if Profile.enabled () then
    Profile.charge
      (if t.s_has_attr.(slot) then t.s_attr.(slot) else default_attr prio)
      ~cpu:t.cpu_id (Int64.of_int span [@lint.allow "ALLOC003"]);
  if span > 0 && Trace.on () then
    Trace.cpu_run ~at:(Engine.now_i t.engine) ~cpu:t.cpu_id ~klass:t.s_klass.(slot) ~dur:span

let[@hot] start t prio slot =
  t.current <- slot;
  t.cur_prio <- prio;
  t.started <- Engine.now_i t.engine;
  Engine.arm_after t.engine t.quantum t.s_remaining.(slot)

let[@hot] rec dispatch t =
  let prio = ready_prio t 0 in
  if prio < 0 then begin
    t.current <- -1;
    let now = Engine.now_i t.engine in
    Trace.cpu_idle ~at:now ~cpu:t.cpu_id;
    t.idle_hook now
  end
  else begin
    let slot = pop_front t prio in
    t.depth <- t.depth - 1;
    start t prio slot
  end

(* The completion of [current]: preemption disarms the CPU's quantum
   timer, so the occurrence that fires is always the running quantum's.
   The slot is freed before the hook and callback run, so work they
   submit may reuse it.  They may have submitted work and dispatched it;
   only dispatch here if the CPU is still unoccupied, also when one of
   them raises, so the queued work still runs. *)
and[@hot] complete t =
  let slot = t.current in
  charge t slot t.s_remaining.(slot);
  let has_trigger = t.s_has_trigger.(slot) and trigger = t.s_trigger.(slot) in
  let cb = t.s_cb.(slot) in
  t.current <- -1;
  free_slot t slot;
  match
    if has_trigger then t.trigger_hook trigger;
    cb (Engine.now_i t.engine)
  with
  | () -> if not (running t) then dispatch t
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    if not (running t) then dispatch t;
    Printexc.raise_with_backtrace e bt

let initial_slots = 16

let create ?(id = 0) engine =
  let n = initial_slots in
  let t =
    {
      engine;
      cpu_id = id;
      s_klass = Array.make n 0;
      s_has_attr = Array.make n false;
      s_attr = Array.make n ua_background;
      s_remaining = Array.make n 0;
      s_has_trigger = Array.make n false;
      s_trigger = Array.make n Trigger.Idle;
      s_cb = Array.make n no_cb;
      free = Array.init n (fun i -> n - 1 - i);
      n_free = n;
      rings = Array.init prio_count (fun _ -> Array.make n 0);
      heads = Array.make prio_count 0;
      lens = Array.make prio_count 0;
      current = -1;
      cur_prio = 0;
      started = 0;
      quantum = Engine.null_timer;
      busy = 0;
      busy_by_prio = Array.make prio_count 0;
      idle_hook = (fun _ -> ());
      resume_hook = (fun _ -> ());
      trigger_hook = (fun _ -> ());
      depth = 0;
    }
  in
  let k = Engine.register engine ~name:"cpu.complete" (fun _ -> complete t) in
  t.quantum <- Engine.timer engine k ~payload:0;
  t

let[@hot] preempt t =
  let slot = t.current in
  Engine.disarm t.engine t.quantum;
  let elapsed = Engine.now_i t.engine - t.started in
  charge t slot elapsed;
  t.s_remaining.(slot) <- t.s_remaining.(slot) - elapsed;
  push_front t t.cur_prio slot;
  t.depth <- t.depth + 1;
  t.current <- -1

let[@hot] submit t ?attr ?klass ~prio ~work ~trigger cb =
  if prio < 0 || prio >= prio_count then invalid_arg "Cpu.submit: bad priority";
  if work < 0 then invalid_arg "Cpu.submit: negative work";
  let was_idle = is_idle t in
  let slot = alloc_slot t in
  t.s_klass.(slot) <- (match klass with Some k -> k | None -> prio);
  (match attr with
  | Some a ->
    t.s_has_attr.(slot) <- true;
    t.s_attr.(slot) <- a
  | None -> t.s_has_attr.(slot) <- false);
  t.s_remaining.(slot) <- work;
  (match trigger with
  | Some kind ->
    t.s_has_trigger.(slot) <- true;
    t.s_trigger.(slot) <- kind
  | None -> t.s_has_trigger.(slot) <- false);
  t.s_cb.(slot) <- cb;
  if running t && preemptible t.cur_prio && prio < t.cur_prio then preempt t;
  (* A quantum the CPU would pop next, ahead of everything queued, starts
     without the round trip through its ring: a preempting one, or one a
     completion submits.  A CPU leaving idle takes the ring, so its
     resume hook sees the quantum queued. *)
  if (not (running t)) && (not was_idle) && ahead_of_queue t 0 prio then start t prio slot
  else begin
    push_back t prio slot;
    t.depth <- t.depth + 1;
    if was_idle then begin
      let now = Engine.now_i t.engine in
      Trace.cpu_busy ~at:now ~cpu:t.cpu_id;
      t.resume_hook now
    end;
    if not (running t) then dispatch t
  end
