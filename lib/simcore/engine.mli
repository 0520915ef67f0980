(** Discrete-event simulation engine.

    A single-threaded engine with a virtual clock: events are closures
    scheduled at absolute instants and executed in time order.  Ties are
    broken by scheduling order (FIFO among simultaneous events), which
    together with the explicit {!Prng} streams makes whole simulations
    bit-for-bit reproducible.

    Handlers may schedule and cancel further events freely, including at
    the current instant (such events run before the clock advances).

    The queue is a specialized 4-ary heap over unboxed integer keys
    ({!Eventq}) backed by a pool of event slots, so scheduling performs
    no allocation beyond the caller's closure and cancellation is lazy
    with threshold-triggered compaction (residency stays proportional
    to the number of pending events even under heavy cancel/reschedule
    churn).  See DESIGN.md §8.4. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled.  Handles are
    immediate ints (no allocation) and remain safe to use after the
    event has run or been cancelled: every operation on a stale handle
    is a no-op. *)

val null_handle : handle
(** A handle that names no event: cancelling it is a no-op and it is
    never scheduled.  An initial value for a handle-holding field. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time_ns.zero} and no events. *)

val now : t -> Time_ns.t
(** Current virtual time. *)

val now_i : t -> int
(** [now t] in integer nanoseconds, without the boxed [Time_ns.t]. *)

val pending : t -> int
(** Number of scheduled, not-yet-run, not-cancelled events. *)

val queue_length : t -> int
(** Internal heap residency, including lazily-cancelled entries not
    yet compacted away ([>= pending t]).  Exposed so tests can bound
    the compaction policy; not part of the simulation semantics. *)

val schedule_at : t -> Time_ns.t -> (unit -> unit) -> handle
(** [schedule_at t time f] runs [f] when the clock reaches [time].
    Times in the past are clamped to [now t] (the event runs as soon as
    control returns to the event loop). *)

val schedule_after : t -> Time_ns.span -> (unit -> unit) -> handle
(** [schedule_after t d f] is [schedule_at t (now t + max d 0)]. *)

val schedule_after_i : t -> int -> (unit -> unit) -> handle
(** [schedule_after] with the delay in integer nanoseconds: the entry
    point for callers that keep their spans as ints, so scheduling
    boxes no [Int64]. *)

val cancel : t -> handle -> unit
(** Prevent the event from running.  Cancelling an already-run or
    already-cancelled event is a no-op. *)

val is_scheduled : t -> handle -> bool
(** Whether the event is still pending (not run, not cancelled). *)

val run_until : t -> Time_ns.t -> unit
(** Execute events in order until the queue is exhausted or the next
    event lies strictly beyond the limit, then set the clock to the
    limit. *)

val run : t -> unit
(** Execute events until none remain.  Diverges if handlers schedule
    unboundedly. *)

val step : t -> bool
(** Execute the single next event.  Returns [false] when no event was
    available. *)
