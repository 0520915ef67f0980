let prio_intr = 0
let prio_softintr = 1
let prio_kernel = 2
let prio_user = 3
let prio_background = 4
let prio_count = 5

(* Work classes for delay attribution: priorities double as classes, plus
   one extra for soft-timer handler execution, which runs at softintr
   priority but must be distinguishable in the trace ("handler of another
   timer" is its own cause in the why-late breakdown). *)
let klass_timer = 5
let klass_count = 6

let klass_name = function
  | 0 -> "intr"
  | 1 -> "softintr"
  | 2 -> "kernel"
  | 3 -> "user"
  | 4 -> "background"
  | 5 -> "timer"
  | _ -> "other"

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

(* A quantum.  [remaining] is integer nanoseconds; [trigger] is the
   trigger state its completion reports (through the CPU's trigger hook)
   before [cb] runs. *)
type task = {
  prio : int;
  klass : int;  (* work class for Trace.Cpu_run; defaults to [prio] *)
  attr : Profile.attr;
  mutable remaining : int;
  trigger : Trigger.kind option;
  cb : int -> unit;  (* receives the completion instant, ns *)
}

(* The running quantum lives in mutable fields rather than in a fresh
   record per dispatch: [current] is the CPU's own [none] sentinel while
   nothing runs, and every dispatch posts the CPU's one completion kind. *)
type t = {
  engine : Engine.t;
  cpu_id : int;
  fronts : task list ref array;  (* resumed quanta, run before the queue *)
  queues : task Queue.t array;
  none : task;
  mutable current : task;
  mutable started : int;  (* dispatch instant of [current], ns *)
  mutable handle : Engine.handle;  (* completion event of [current] *)
  mutable k_complete : Engine.kind;
  mutable busy : int;
  busy_by_prio : int array;
  mutable idle_hook : int -> unit;
  mutable resume_hook : int -> unit;
  mutable trigger_hook : Trigger.kind -> unit;
  mutable depth : int;
}

let running t = t.current != t.none

let id t = t.cpu_id

let is_idle t = (not (running t)) && t.depth = 0
let busy_ns t = Int64.of_int t.busy
let busy_ns_at t prio = Int64.of_int t.busy_by_prio.(prio)
let set_idle_hook t f = t.idle_hook <- f
let set_resume_hook t f = t.resume_hook <- f
let set_trigger_hook t f = t.trigger_hook <- f
let queue_depth t = t.depth

(* Most urgent priority with a resumed or queued quantum; -1 if none. *)
let rec ready_prio t prio =
  if prio >= prio_count then -1
  else
    match !(t.fronts.(prio)) with
    | _ :: _ -> prio
    | [] -> if Queue.is_empty t.queues.(prio) then ready_prio t (prio + 1) else prio

let pop t prio =
  let front = t.fronts.(prio) in
  match !front with
  | task :: rest ->
    front := rest;
    task
  | [] -> Queue.pop t.queues.(prio)

(* The single point through which all busy time flows — attribution
   here is what makes the Profile conservation invariant structural, and
   emitting [Cpu_run] here is what makes the why-late busy coverage
   complete: every charged interval [now - span, now] reaches the trace
   exactly once, tagged with its work class.  The boxed span is built
   only for a live profiler. *)
let[@hot] charge t task span =
  t.busy <- t.busy + span;
  t.busy_by_prio.(task.prio) <- t.busy_by_prio.(task.prio) + span;
  if Profile.enabled () then
    Profile.charge task.attr ~cpu:t.cpu_id (Int64.of_int span [@lint.allow "ALLOC003"]);
  if span > 0 then
    Trace.cpu_run ~at:(Engine.now_i t.engine) ~cpu:t.cpu_id ~klass:task.klass ~dur:span

let[@hot] rec dispatch t =
  let prio = ready_prio t 0 in
  if prio < 0 then begin
    t.current <- t.none;
    let now = Engine.now_i t.engine in
    Trace.cpu_idle ~at:now ~cpu:t.cpu_id;
    t.idle_hook now
  end
  else begin
    let task = pop t prio in
    t.depth <- t.depth - 1;
    t.current <- task;
    t.started <- Engine.now_i t.engine;
    t.handle <- Engine.post_after_i t.engine task.remaining t.k_complete 0
  end

(* The completion event of [current]: a preempted quantum's event is
   cancelled, so the one that fires is always the running quantum's. *)
and[@hot] complete t =
  let task = t.current in
  charge t task task.remaining;
  task.remaining <- 0;
  t.current <- t.none;
  (match task.trigger with Some kind -> t.trigger_hook kind | None -> ());
  task.cb (Engine.now_i t.engine);
  (* The callback may have submitted work and triggered a dispatch; only
     dispatch here if the CPU is still unoccupied. *)
  if not (running t) then dispatch t

let create ?(id = 0) engine =
  let none =
    { prio = prio_background; klass = prio_background; attr = ua_background; remaining = 0;
      trigger = None; cb = ignore }
  in
  let t =
    {
      engine;
      cpu_id = id;
      fronts = Array.init prio_count (fun _ -> ref []);
      queues = Array.init prio_count (fun _ -> Queue.create ());
      none;
      current = none;
      started = 0;
      handle = Engine.null_handle;
      k_complete = Engine.null_kind;
      busy = 0;
      busy_by_prio = Array.make prio_count 0;
      idle_hook = (fun _ -> ());
      resume_hook = (fun _ -> ());
      trigger_hook = (fun _ -> ());
      depth = 0;
    }
  in
  t.k_complete <- Engine.register engine ~name:"cpu.complete" (fun _ -> complete t);
  t

(* ALLOC002: the resumed-front cell, once per preemption. *)
let[@hot] preempt t =
  let task = t.current in
  Engine.cancel t.engine t.handle;
  let elapsed = Engine.now_i t.engine - t.started in
  charge t task elapsed;
  task.remaining <- task.remaining - elapsed;
  let front = t.fronts.(task.prio) in
  (front := task :: !front) [@lint.allow "ALLOC002"];
  t.depth <- t.depth + 1;
  t.current <- t.none

(* ALLOC002: the task record is the quantum itself — one per submission,
   like the queue cell that holds it. *)
let[@hot] submit_i t ?attr ?klass ~prio ~work_i ~trigger cb =
  if prio < 0 || prio >= prio_count then invalid_arg "Cpu.submit: bad priority";
  if work_i < 0 then invalid_arg "Cpu.submit: negative work";
  let was_idle = is_idle t in
  let attr = match attr with Some a -> a | None -> default_attr prio in
  let klass = match klass with Some k -> k | None -> prio in
  let task = { prio; klass; attr; remaining = work_i; trigger; cb } [@lint.allow "ALLOC002"] in
  Queue.add task t.queues.(prio);
  t.depth <- t.depth + 1;
  if was_idle then begin
    let now = Engine.now_i t.engine in
    Trace.cpu_busy ~at:now ~cpu:t.cpu_id;
    t.resume_hook now
  end;
  if not (running t) then dispatch t
  else if preemptible t.current.prio && prio < t.current.prio then begin
    preempt t;
    dispatch t
  end

let submit t ?attr ?klass ~prio ~work cb =
  submit_i t ?attr ?klass ~prio ~work_i:(Int64.to_int work) ~trigger:None cb
