(** Interrupt controller.

    Devices raise interrupts on {e lines}.  Delivering an interrupt
    submits a non-preemptible quantum at {!Cpu.prio_intr} whose duration
    is the profile's save/restore cost, plus the cache/TLB pollution
    cost scaled by the current workload locality, plus the device
    handler's own work.  When the quantum completes, the line's handler
    callback runs and the machine observes a trigger state (the "return
    from interrupt" point of the paper's §3).

    Each line latches at most one interrupt while another is in flight
    (in service or queued), like the 8259/8253 pair of the paper's
    testbed: a third coincident interrupt is {e lost}.  This is the
    mechanism behind the paper's observation that hardware-timer-driven
    rate clocking misses its target rate ("some timer interrupts are
    lost during periods when interrupts are disabled", §5.7). *)

type t

type line

val create :
  engine:Engine.t ->
  cpus:Cpu.t array ->
  profile:Costs.profile ->
  on_trigger:(Trigger.kind -> int -> unit) ->
  unit ->
  t

val set_locality : t -> Cache.locality -> unit
(** Locality sensitivity of the currently-running workload; scales the
    pollution component of every subsequent delivery.  Defaults to
    {!Cache.neutral}. *)

val line :
  t ->
  name:string ->
  source:Trigger.kind ->
  ?latch_depth:int ->
  ?spl_blockable:bool ->
  ?cpu:int ->
  handler:(int -> unit) ->
  handler_work_ns:int ->
  unit ->
  line
(** Register an interrupt line.  [source] is the trigger-state kind
    observed when the handler returns; [handler] receives the completion
    time of each delivered interrupt, in integer nanoseconds.
    [handler_work_ns] is the device handler's own processing time per
    delivery (negative counts as zero).
    [latch_depth] is the number of in-flight interrupts the line can
    hold before losing new ones:
    2 (default) for ordinary device lines (one in service + one latched
    in the PIC), 1 for periodic timers whose tick is simply gone if the
    previous one has not been serviced in time.  A [spl_blockable] line
    (default false) is additionally subject to the kernel's
    interrupt-disabled windows (see {!start_spl_sections}): a tick
    raised inside a window is deferred to its end, and a second tick in
    the same window is lost — the mechanism behind the paper's Â§5.7
    observation that hardware-timer pacing misses its target rate.
    [cpu] is the line's interrupt affinity (default CPU 0). *)

val start_spl_sections :
  t -> rng:Prng.t -> ?rate_per_sec:float -> ?duration_us:Dist.t -> unit -> unit
(** Generate interrupt-disabled windows: they begin as a Poisson process
    of the given rate (default 1300/s) and last [duration_us] (default
    uniform 40-180 us) â FreeBSD's splhigh/splclock critical sections
    (callout processing, scheduler, console).  Only [spl_blockable]
    lines are affected. *)

val raise_irq : t -> line -> bool
(** Assert the line.  Returns [false] when the interrupt was lost to
    the latch limit. *)

val raised : line -> int
(** Interrupts asserted on this line so far. *)

val lost : line -> int
(** Interrupts lost to the latch limit. *)

val delivered : line -> int
(** Handler completions so far. *)
