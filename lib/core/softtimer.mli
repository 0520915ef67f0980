(** The soft-timer facility (paper §3).

    Soft timers schedule events at microsecond granularity without
    dedicated hardware timer interrupts: at every {e trigger state} the
    kernel reaches (system-call return, trap return, interrupt return,
    network-subsystem loops, idle loop), the facility compares the
    current time against the earliest pending event and fires due
    handlers at the cost of a procedure call.  A periodic hardware
    interrupt — the ordinary system clock — backs the facility up, so an
    event scheduled [T] ticks ahead fires after more than [T] but less
    than [T + X + 1] ticks, where
    [X = measure_resolution / interrupt_clock_resolution] (Figure 1).

    The facility's interface is the paper's, verbatim:
    {!measure_resolution}, {!measure_time}, {!schedule_soft_event} and
    {!interrupt_clock_resolution}.  Pending events live in a pluggable
    {!Timer_store} (the paper's modified hashed timing wheel by
    default); the per-trigger check costs one cached comparison
    whichever store backs it. *)

type t

(** {2 Kinds and handles}

    A soft event is a {e kind} and an [int] payload.  A kind is a
    handler registered once per client instance ({!register}), when the
    client is created, never per event; scheduling an event writes the
    kind, the payload and the event's trace identity into one row of the
    facility's slab and returns the row's handle, an immediate int.  The
    schedule, check and fire of an event on the default wheel allocate
    nothing, as in the paper, where they cost about a procedure call.

    A handler runs inside the trigger-state check that fired it, with
    its event already settled.  A handler that raises ends the check:
    the exception propagates out of the trigger state, and the rest of
    its due batch stays pending, to fire at the next check in
    (deadline, tie) order. *)

type kind
(** A handler registered with {!register}.  A kind is only meaningful to
    the facility that registered it, and keeps its handler (and what
    the handler holds) alive as long as the facility. *)

val null_kind : kind
(** A kind that names no handler: scheduling it raises.  An initial
    value for a kind-holding field, set once the kind is registered. *)

type handle = private int
(** A scheduled event: the facility slab's [(generation lsl 24) lor row]
    of its row.  It is valid, and cancellable or re-armable, until the
    event fires or is cancelled.  The row is freed {e before} the
    handler runs, so inside its own handler, and ever after, the handle
    is stale: {!cancel} is a no-op and {!rearm} returns [false], even
    once a later event reuses the row (the generation differs). *)

val no_handle : handle
(** A handle that names no event, never valid: the initial value of a
    handle-holding field, in place of [handle option]. *)

val set_default_store : (module Timer_store.S) option -> unit
(** Process-wide store used by {!attach} when no explicit [?store] is
    given; [None] restores the built-in default (the hashed wheel).
    Lets the CLI swap the facility's pending set for a whole run. *)

val set_default_check_budget : int -> unit
(** Process-wide cap on handler dispatches per trigger-state check,
    read by {!attach} (default: unlimited).  With a budget [b], a check
    that finds more than [b] due events fires the earliest [b] and
    leaves the remainder — deadline and tie order intact — for the next
    trigger state or the backup interrupt; the trace's [Soft_check]
    records ([scanned] vs [fired]) make the withheld dispatches visible
    to the why-late audit as {e check-skipped} delay.
    @raise Invalid_argument if the budget is less than 1. *)

val attach :
  ?store:(module Timer_store.S) ->
  ?wheel_tick:Time_ns.span ->
  ?wheel_slots:int ->
  Machine.t ->
  t
(** Install the facility on a machine: hooks the per-trigger-state
    check, provides the idle loop's next-deadline oracle and starts the
    machine's periodic interrupt clock (the backup).  At most one
    facility may be attached to a machine at a time.
    [store] defaults to the store set via {!set_default_store}, falling
    back to the hashed wheel with [wheel_slots] slots.  [wheel_tick]
    (every store's [tick]) defaults to 10 us, [wheel_slots] to 512. *)

val store_name : t -> string
(** Name of the store backing this facility (see {!Store_registry}). *)

val detach : t -> unit
(** Unhook the facility.  Pending events never fire afterwards. *)

val machine : t -> Machine.t

(** {2 The paper's four operations} *)

val measure_resolution : t -> int64
(** Resolution of the measurement clock in Hz — the CPU clock (the
    paper reads the Pentium cycle counter). *)

val measure_time : t -> int64
(** Current time in ticks of the measurement clock.  Not synchronised
    with any standard time base; meant for measuring intervals. *)

val interrupt_clock_resolution : t -> int64
(** Frequency (Hz) of the periodic timer interrupt that schedules
    overdue soft-timer events — the facility's worst-case granularity. *)

val register : t -> name:string -> (int -> int -> unit) -> kind
(** [register t ~name h] adds a kind whose events run [h now payload],
    [now] being the firing instant in integer nanoseconds.  Call it once
    per client, at creation; [name] labels the kind in {!kind_fires}. *)

val schedule_soft_event : t -> ticks:int64 -> kind -> int -> handle
(** [schedule_soft_event t ~ticks kind payload] arranges for [kind]'s
    handler to be called on [payload] at least [ticks]
    measurement-clock ticks in the future: at
    the first trigger state at which [measure_time] exceeds its
    schedule-time value by at least [ticks + 1] (the +1 accounts for the
    schedule instant not coinciding with a tick edge), and in any case
    by the next backup interrupt after that.  A deadline past the int
    range of nanoseconds is [max_int] ns, the end of time: the event
    stays pending.  Allocates nothing once the slab has grown to the
    facility's peak of pending events.
    @raise Invalid_argument if [ticks < 0] or [kind] is not one of
    [t]'s registered kinds. *)

(** {2 Convenience and introspection} *)

val schedule_after : t -> Time_ns.span -> kind -> int -> handle
(** Like {!schedule_soft_event} with the delay given as a span (rounded
    up to whole measurement ticks). *)

val x_ratio : t -> int64
(** [X = measure_resolution / interrupt_clock_resolution]; the width of
    the firing window in measurement ticks. *)

val cancel : t -> handle -> unit
(** Withdraw a pending event.  A no-op on a stale handle. *)

val rearm : t -> handle -> ticks:int64 -> bool
(** [rearm t h ~ticks] moves a pending event to a new deadline [ticks]
    measurement ticks ahead, exactly as if it were cancelled and
    rescheduled (the trace records that pair) but keeping [h] valid —
    the TCP retransmit push-out operation.  [false] when the event
    already fired or was cancelled (the handle is stale).
    @raise Invalid_argument if [ticks < 0]. *)

val pending : t -> int

(** [(resident, pending, slots)] of the backing store — the figures
    behind the sanitizer's residency invariant
    [resident <= 2 * max pending slots] ([slots] is the configured
    wheel size; every store's compaction floor is at or below it).
    Also published as the [softtimer.wheel_*] probes of the
    {!Metrics.current} context the facility was attached in. *)
val wheel_stats : t -> int * int * int
val fired : t -> int
(** Events fired so far. *)

val kind_fires : t -> (string * int) list
(** Every kind's name and number of events fired so far, in
    registration order. *)

val checks : t -> int
(** Trigger-state checks performed so far. *)

val set_record_delays : t -> bool -> unit
(** When enabled, the firing delay of every event (actual minus
    scheduled due time, in microseconds) is recorded in {!delays}. *)

val delays : t -> Stats.Sample.t
