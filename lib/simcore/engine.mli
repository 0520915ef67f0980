(** Discrete-event simulation engine.

    A single-threaded engine with a virtual clock: events are scheduled
    at absolute instants and executed in time order.  Ties are broken
    by scheduling order (FIFO among simultaneous events), which
    together with the explicit {!Prng} streams makes whole simulations
    bit-for-bit reproducible.

    An event is a {!kind} and an [int] payload.  A kind is registered
    once, when the component that owns it is created, and carries the
    handler every event of that kind runs with its payload; posting an
    event ({!post_after_i}) writes two ints into a pooled slot and
    allocates nothing.  {!schedule_at} and friends take a closure
    instead, for cold sites and tests: they are one built-in kind whose
    payload indexes a per-slot closure array, so every event goes
    through the same dispatch.

    A posted event always runs: the engine has no cancellation.  An
    occurrence that its component replaces or withdraws is a {!timer}
    instead, re-armed or disarmed in place.  The engine's timers are one
    per CPU (its running quantum's completion), one per hardware pacer
    (its tick) and one per TCP sender (its retransmission timeout).

    Handlers may post further events and arm or disarm timers freely,
    including at the current instant (such events run before the clock
    advances).  A handler that raises leaves the engine consistent: the
    event counts as run, and the next {!step} or {!run_until} resumes
    with the remaining events in order.

    Time is an immediate [int] of nanoseconds on the per-event path
    (the engine's clock, {!post_at_i}, {!now_i}) and a boxed
    {!Time_ns.t} only at API edges ({!now}, {!schedule_at},
    {!run_until}).  A boxed time converts through {!Time_ns.to_int}, so
    one past the int range means [max_int] ns, the end of time, and
    {!schedule_after} saturates there too.

    The queue is a specialized 4-ary heap over unboxed integer keys
    ({!Eventq}) that holds exactly the pending posts.  Timers are kept
    beside it, in a small table.  See DESIGN.md §8.4. *)

type t

type handle = unit
(** What posting returns: nothing, since a post cannot be withdrawn.
    Kept as a name because the benchmark harness annotates
    {!schedule_at}'s result with it. *)

type kind
(** An event kind of one engine: a handler registered with {!register}.
    A kind is only meaningful to the engine that registered it. *)

val null_kind : kind
(** A kind that names no handler: posting it raises.  An initial value
    for a kind-holding field, set once the kind is registered. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time_ns.zero} and no events. *)

val register : t -> name:string -> (int -> unit) -> kind
(** [register t ~name h] adds a kind whose events run [h payload].
    Call it once per component, at creation, never per event; [name]
    labels the kind in {!kind_runs}. *)

val post_at_i : t -> int -> kind -> int -> unit
(** [post_at_i t time kind payload] runs [kind]'s handler on [payload]
    when the clock reaches [time] (integer nanoseconds; times in the
    past are clamped to [now t]).  Allocates nothing once the slot pool
    has grown to the engine's peak concurrency.
    @raise Invalid_argument if [kind] is not one of [t]'s registered
    kinds. *)

val post_after_i : t -> int -> kind -> int -> unit
(** [post_after_i t d kind payload] is [post_at_i t (now_i t + max d 0)
    kind payload]. *)

type timer
(** A re-armable event of one engine: a registered kind with a fixed
    payload and at most one pending occurrence.  Timers are kept in a
    small table beside the heap that is scanned linearly, so an engine
    is meant to hold a handful of them: create one once per component,
    at creation, like a kind — never per event.  An armed timer counts
    in {!pending}, fires in (time, seq) order with every other event,
    and counts as a run of its kind in {!kind_runs}. *)

val null_timer : timer
(** A timer that names none: every operation on it raises
    [Invalid_argument].  An initial value for a timer-holding field. *)

val timer : t -> kind -> payload:int -> timer
(** [timer t kind ~payload] is a new, disarmed timer whose occurrence
    runs [kind]'s handler on [payload].
    @raise Invalid_argument if [kind] is not one of [t]'s registered
    kinds. *)

val arm_after : t -> timer -> int -> unit
(** [arm_after t tm d] schedules [tm]'s occurrence [d] ns from now: a
    negative delay is now, and a sum past the int range is [max_int].
    The occurrence takes the next scheduling seq, exactly as a
    {!post_after_i} at that point would, so it ties with other events
    at its instant in scheduling order.  Arming an armed timer replaces
    its occurrence.  The timer is disarmed before its handler runs, so
    the handler may re-arm it, and a handler that raises leaves it
    disarmed.  Allocates nothing. *)

val disarm : t -> timer -> unit
(** Clear [tm]'s pending occurrence, if any.  Disarming a disarmed
    timer is a no-op. *)

val kind_runs : t -> (string * int) list
(** Every kind's name and number of events run so far, in registration
    order; the built-in kind of closure events comes first, named
    ["closure"]. *)

val now : t -> Time_ns.t
(** Current virtual time, boxed.  The box is built on the first call
    after the clock advances and cached until the next advance: calls at
    one instant return the physically same value, and an advance no one
    asks the box of allocates nothing.  The per-event path reads
    {!now_i} instead; [now] is for API edges and cold code. *)

val now_i : t -> int
(** Current virtual time in integer nanoseconds: what every per-event
    consumer of time reads.  Never allocates. *)

val pending : t -> int
(** Number of posted events not yet run plus armed timers. *)

val schedule_at : t -> Time_ns.t -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] when the clock reaches [time]: a
    closure event, for cold sites that are not worth a kind.
    Times in the past are clamped to [now t] (the event runs as soon as
    control returns to the event loop). *)

val schedule_after : t -> Time_ns.span -> (unit -> unit) -> unit
(** [schedule_after t d f] is [schedule_at t (now t + max d 0)], the
    sum saturating at [max_int] ns. *)

val run_until : t -> Time_ns.t -> unit
(** Execute events in order until the queue is exhausted or the next
    event lies strictly beyond the limit, then set the clock to the
    limit.  A limit past the int range runs every event, including
    those at [max_int], and leaves the clock at [max_int] ns. *)

val run : t -> unit
(** Execute events until none remain.  Diverges if handlers schedule
    unboundedly. *)

val step : t -> bool
(** Execute the single next event.  Returns [false] when no event was
    available. *)
