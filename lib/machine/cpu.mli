(** Single simulated CPU with prioritised, partially-preemptible work.

    All computation in the simulated machine — interrupt handlers,
    software-interrupt protocol processing, system-call bodies and user
    code — is expressed as {e quanta}: a duration plus a completion
    callback.  The CPU executes the highest-priority quantum available.

    Priorities (smaller = more urgent) mirror the BSD execution levels
    the paper discusses:

    - {!prio_intr} (0): hardware interrupt handlers.  Never preempted —
      interrupts are disabled while one runs.
    - {!prio_softintr} (1): BSD software interrupts (TCP/IP input
      processing).  Not preempted either: this stands in for the
      spl-protected critical sections that delay — and can lose —
      periodic timer interrupts in FreeBSD (paper §5.7).
    - {!prio_kernel} (2): system-call and trap bodies.  Preemptible.
    - {!prio_user} (3): user-mode computation.  Preemptible.

    When a more urgent quantum arrives while a preemptible one runs, the
    running quantum is suspended with its remaining work and resumed
    afterwards; its completion callback fires once, at true completion.
    Arrival during a non-preemptible quantum waits for that quantum to
    finish — this bounded delay is exactly the trigger-state latency and
    interrupt-latency mechanism of the paper.

    The running quantum's completion is the CPU's one {!Engine.timer}
    (kind ["cpu.complete"]): dispatch arms it for the quantum's
    remaining work and preemption disarms it, so a preempted quantum
    leaves no dead event in the engine's heap. *)

type t

val prio_intr : int
val prio_softintr : int
val prio_kernel : int
val prio_user : int

val prio_background : int
(** Below user: CPU-bound processes whose scheduler priority has decayed
    (the paper's compute-bound background process, §5.3). *)

val prio_count : int

val klass_timer : int
(** Work class for soft-timer handler execution: runs at
    {!prio_softintr} but is tagged separately in {!Trace.Cpu_run} so the
    why-late breakdown can attribute gap time to "handler of another
    timer" (see [Delay_audit]). *)

val create : ?id:int -> Engine.t -> t
(** [id] (default 0) labels this CPU's busy/idle transitions in traces
    ({!Trace.Cpu_busy}/{!Trace.Cpu_idle}); {!Machine.create} numbers its
    CPUs 0..n-1. *)

val submit :
  t ->
  ?attr:Profile.attr ->
  ?klass:int ->
  prio:int ->
  work:int ->
  trigger:Trigger.kind option ->
  (int -> unit) ->
  unit
(** [submit t ~prio ~work ~trigger cb] enqueues a quantum of [work]
    integer nanoseconds at the back of its priority's run queue; when
    its cumulative execution reaches [work], a [Some kind] trigger is
    reported to the hook set by {!set_trigger_hook}, and then [cb] runs
    with the completion instant in integer nanoseconds.  Zero-work
    quanta complete as soon as they are dispatched.  [attr] names the
    quantum's cycle-attribution category (defaults to {!default_attr}
    for its priority); all of the quantum's execution time — including
    partial charges under preemption — is attributed to it.  [klass]
    (default: the priority itself) is the work class stamped on the
    quantum's {!Trace.Cpu_run} records; pass {!klass_timer} for
    soft-timer handler execution.  The quantum takes a slot of the
    CPU's arena and a place in its priority's ring: nothing is
    allocated once the arena has grown to the peak number of queued
    quanta.
    @raise Invalid_argument for out-of-range priority or negative work. *)

val set_trigger_hook : t -> (Trigger.kind -> unit) -> unit
(** Receives the trigger kind of every completing quantum submitted
    with [~trigger:(Some kind)] ({!Machine} installs its trigger-state
    dispatch here). *)

val default_attr : int -> Profile.attr
(** Fallback attribution ([unattributed;<prio-name>]) used for quanta
    submitted without [?attr]. *)

val is_idle : t -> bool
(** No quantum running and none queued. *)

val busy_ns : t -> Time_ns.span
(** Cumulative execution time, over all priorities. *)

val busy_ns_at : t -> int -> Time_ns.span
(** Cumulative execution time of quanta submitted at one priority. *)

val set_idle_hook : t -> (int -> unit) -> unit
(** Called, with the instant in ns, at every transition to idle (after
    the last completion callback has run and found nothing to
    dispatch). *)

val set_resume_hook : t -> (int -> unit) -> unit
(** Called, with the instant in ns, at every transition out of idle. *)
