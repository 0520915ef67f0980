(** The simulated computer: CPU + interrupt controller + periodic clock
    + trigger-state plumbing.

    A [Machine.t] assembles the pieces and owns the trigger-state
    dispatch: every kernel entry point ({!Kernel}), interrupt return
    ({!Interrupt}) and idle-loop iteration reports a trigger state here,
    which (a) feeds measurement observers and (b) runs the soft-timer
    facility's check hook, when one is attached (see {!Softtimer}).

    The machine does not know what a soft timer is; the facility layers
    on top through {!set_check_hook} and {!set_idle_deadline_fn}. *)

type t

val create : ?profile:Costs.profile -> ?cpus:int -> Engine.t -> t
(** A machine with [cpus] idle CPUs (default 1) and no periodic clock
    running.  [profile] defaults to {!Costs.pentium_ii_300}.
    @raise Invalid_argument if [cpus < 1]. *)

val engine : t -> Engine.t

val cpu : t -> Cpu.t
(** CPU 0 (the boot CPU — every single-CPU consumer uses this). *)

val cpu_count : t -> int

val nth_cpu : t -> int -> Cpu.t
(** @raise Invalid_argument for an out-of-range index. *)

val any_cpu_idle : t -> bool
(** Whether at least one CPU is idle — the condition under which
    soft-timer network polling reverts to interrupts (§5.9) and the
    facility can fire events exactly on time (§5.3). *)

val total_busy_ns : t -> Time_ns.span
(** Busy time summed over all CPUs. *)

val profile : t -> Costs.profile

val set_locality : t -> Cache.locality -> unit
(** Declare the locality sensitivity of the running workload (scales
    interrupt pollution costs from now on). *)

(** {2 Trigger states} *)

val fire_trigger : t -> Trigger.kind -> unit
(** Report that a trigger state of the given kind was reached now.
    Normally called by {!Kernel} and {!Interrupt}; exposed for tests and
    for synthetic trigger-process generators. *)

val add_observer : t -> (Trigger.kind -> int -> unit) -> unit
(** Measurement tap: called at every trigger state, with its kind and
    the instant in integer nanoseconds, before the check hook. *)

val set_check_hook : t -> (Trigger.kind -> int -> unit) option -> unit
(** The soft-timer facility's per-trigger-state check, called with the
    current instant (the engine's clock) in integer nanoseconds; it
    receives the
    kind of the trigger state that reached it, so dispatches can be
    attributed to their trigger source (paper Table 1).  While a hook is
    attached, every trigger-bearing quantum is lengthened by the
    profile's [softtimer_check_us] so the check's (tiny) cost is
    accounted (and, when profiling, attributed to [softtimer;check]). *)

val check_hook_attached : t -> bool

val trigger_count : t -> Trigger.kind -> int
(** Trigger states observed so far, by kind. *)

val trigger_total : t -> int

(** {2 Quanta and interrupts} *)

val submit_quantum :
  t ->
  ?cpu:int ->
  ?attr:Profile.attr ->
  ?klass:int ->
  prio:int ->
  work_us:float ->
  trigger:Trigger.kind option ->
  (int -> unit) ->
  unit
(** Submit CPU work (to CPU 0 unless [cpu] says otherwise); when it
    completes, fire the given trigger kind (if any) and then run the
    callback with the completion instant in integer nanoseconds.  The
    soft-timer check surcharge is added automatically
    when a hook is attached and [trigger] is [Some _]; with profiling
    live the surcharge is attributed to [softtimer;check] and the rest
    of the quantum to [attr] (default: the priority's
    {!Cpu.default_attr}).  [klass] is passed through to {!Cpu.submit}
    (the work class on the quantum's [Cpu_run] trace records).
    @raise Invalid_argument if [work_us] is NaN or infinite (negative
    work counts as zero). *)

val submit_work_ns :
  t -> ?cpu:int -> ?attr:Profile.attr -> ?klass:int -> prio:int -> work_ns:int -> (int -> unit) -> unit
(** [submit_quantum ~trigger:None] of work already in integer
    nanoseconds, for a caller that submits the same work many times.
    @raise Invalid_argument if [work_ns] is negative. *)

val work_ns : t -> checked:bool -> float -> int
(** [work_us] in integer nanoseconds as {!submit_quantum} charges it:
    with the profile's [softtimer_check_us] added before the one
    rounding when [checked].  For work fixed where it is defined, which
    {!submit_fixed_ns} then submits.
    @raise Invalid_argument if [work_us] is NaN or infinite. *)

val submit_fixed_ns :
  t ->
  ?attr:Profile.attr ->
  prio:int ->
  work_ns:int ->
  checked_ns:int ->
  trigger:Trigger.kind option ->
  (int -> unit) ->
  unit
(** {!submit_quantum} on CPU 0 of work converted once by {!work_ns}:
    the quantum charges [checked_ns] when a check hook is attached and
    [trigger] is [Some _], else [work_ns]. *)

val submit_quantum_at :
  t ->
  ?attr:Profile.attr ->
  prio:int ->
  float array ->
  int ->
  trigger:Trigger.kind option ->
  (int -> unit) ->
  unit
(** [submit_quantum_at t ~prio works i ~trigger cb] is
    [submit_quantum t ~prio ~work_us:works.(i) ~trigger cb] on CPU 0,
    reading the work where it lies: a float passed to a function that
    is not inlined is boxed, and builds with [-opaque] inline nothing
    across modules, so a script's drawn work is handed over as its
    array and index. *)

val interrupt_line :
  t ->
  name:string ->
  source:Trigger.kind ->
  ?latch_depth:int ->
  ?spl_blockable:bool ->
  ?cpu:int ->
  ?handler_work_us:float ->
  handler:(int -> unit) ->
  unit ->
  Interrupt.line
(** Register a device interrupt line (see {!Interrupt.line}) whose
    handler does [handler_work_us] of work per delivery (default 0).
    @raise Invalid_argument if [handler_work_us] is NaN or infinite. *)

val start_spl_sections : t -> ?rate_per_sec:float -> ?duration_us:Dist.t -> seed:int -> unit -> unit
(** Generate the kernel's interrupt-disabled critical sections (see
    {!Interrupt.start_spl_sections}); they defer and occasionally lose
    ticks of spl-blockable timer lines. *)

val raise_irq : t -> Interrupt.line -> bool
(** Assert a line; [false] when the interrupt was lost. *)

(** {2 Clocks} *)

val start_interrupt_clock : t -> unit
(** Start the periodic system timer at the profile's
    [interrupt_clock_hz].  Each tick is a real interrupt (cost, trigger
    state [Clock_tick]); it is the backup that bounds soft-timer delay. *)

val interrupt_clock_running : t -> bool

val add_periodic_timer :
  t -> hz:float -> ?handler_work_us:float -> (int -> unit) -> Interrupt.line
(** An additional periodic hardware timer (the paper's §5.1 experiment
    adds one with a null handler at 0–100 kHz).  Returns the line so
    callers can read loss statistics.  Ticks raise interrupts
    unconditionally; latch-full ticks are lost, as on real hardware.
    @raise Invalid_argument if [hz <= 0] or [handler_work_us] is NaN
    or infinite. *)

(** {2 Idle loop} *)

val set_idle_poll : t -> Time_ns.span option -> unit
(** When set, an idle CPU reports an [Idle] trigger state every given
    span — the idle-loop polling visible in the paper's Table 1 (ST-nfs
    shows ~2 us intervals).  [None] (default) disables idle polling:
    the CPU halts when idle, and only interrupts produce triggers.

    On a multi-CPU machine, §5.2's arbitration applies: at most one
    idle CPU polls (the {e checker}); the others halt.  When the
    checker resumes work, another idle CPU (if any) takes over. *)

val checking_cpu : t -> int option
(** The idle CPU currently checking for soft-timer events, if any. *)

val notify_deadline_changed : t -> due:int -> unit
(** The facility scheduled an event at [due] (int ns).  When a CPU is
    checking and the idle-deadline oracle reports [due] as the earliest,
    re-arm its wake-up; the oracle is not read when no CPU is idle. *)

val set_idle_deadline_fn : t -> (unit -> int) option -> unit
(** The facility's "earliest pending soft-timer deadline" oracle, in
    integer nanoseconds, [max_int] when nothing is pending.  While
    the CPU is idle, the machine arranges an [Idle] trigger state exactly
    at that deadline — semantically, the idle loop's continuous check
    firing the event the instant it is due (paper §3/§5.2: the idle loop
    checks for pending soft timer events; the CPU halts only when none
    are due before the next clock tick). *)
