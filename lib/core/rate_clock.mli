(** Adaptive rate-based clocking over soft timers (paper §4.1).

    A rate clock transmits one packet per soft-timer event, aiming at a
    target inter-transmission interval.  Because soft-timer events fire
    probabilistically late, scheduling each event a fixed interval ahead
    would drift below the target rate; the paper's algorithm instead
    tracks the average transmission rate since the start of the current
    packet train and, when behind, schedules the next transmission at
    the maximal allowable burst rate (the [min_interval], e.g. the link
    speed) until the average catches up.

    Only one transmission event is outstanding at any time, so a long
    trigger-state gap produces one late packet, not a burst.

    Two shapes are provided: the single-flow {!t} (one closure-driven
    clock per sender, right for a handful of flows and for tests that
    inspect one clock in isolation), and the flow-id-indexed {!Pool}
    (struct-of-arrays state over one shared timer store, right for the
    million-flow pacing experiment). *)

type t

val interval_metric : Metrics.histogram
(** [rate_clock.interval_us]: every clock's and pool's inter-send gaps,
    recorded into the creating domain's {!Metrics} context. *)

val create :
  ?intervals:Hdr.t ->
  Softtimer.t ->
  target_interval:Time_ns.span ->
  min_interval:Time_ns.span ->
  send:(int -> bool) ->
  unit ->
  t
(** [send now] (the instant in integer nanoseconds) must transmit one
    packet and return [true], or return [false] when nothing is pending — which ends the current train (the
    clock goes idle until {!kick}).

    [intervals] defaults to the cohort histogram all clocks share; pass
    [~intervals:(Hdr.create ~lowest:0.01 ())] to give this clock a
    private histogram whose statistics can be read in isolation.
    @raise Invalid_argument unless [0 < min_interval <= target_interval]. *)

val start : t -> unit
(** Begin a train: the first transmission is attempted at the next
    trigger state. *)

val kick : t -> unit
(** Restart after the clock went idle (new data queued).  No-op while a
    train is active. *)

val stop : t -> unit
(** Go idle; the outstanding event is cancelled. *)

val active : t -> bool
val sends : t -> int

val intervals : t -> Hdr.t
(** Inter-transmission gaps within trains, in microseconds — the
    statistic of the paper's Tables 4 and 5.  A constant-memory
    histogram: memory is bounded by the number of distinct buckets, not
    by the number of sends, so a long-lived clock never grows.  Shared
    with the cohort unless the clock was created with a private one. *)

(** Flow-id-indexed rate clocks over one shared timer store.

    All per-flow state lives in parallel unboxed [int] arrays — no
    record, closure, handle box or histogram per flow — and the flow id
    itself is the timer payload.  Time is integer nanoseconds
    throughout, as the store contract takes it, so the steady send →
    reschedule cycle allocates nothing.  Interval and fire-delay
    statistics go to cohort histograms, sampled every [stat_every]-th
    send. *)
module Pool (M : Timer_store.S) : sig
  type t

  val create :
    ?stat_every:int ->
    ?intervals:Hdr.t ->
    ?delays:Hdr.t ->
    tick:int ->
    send:(int -> bool) ->
    unit ->
    t
  (** [send fid] transmits one packet for flow [fid] and returns [true],
      or [false] to end that flow's train (idle until {!kick}).
      [tick] is the store's granularity in ns.
      [stat_every] (default 1) samples every n-th fire into the
      histograms; [intervals] defaults to the shared cohort histogram; [delays]
      defaults to a fresh pool-private histogram.
      @raise Invalid_argument if [stat_every < 1]. *)

  val add : t -> target_interval:int -> min_interval:int -> int
  (** Register a flow; returns its id, intervals in ns.  The flow starts
      idle.
      @raise Invalid_argument unless
      [0 < min_interval <= target_interval]. *)

  val start : t -> int -> now:int -> unit
  (** Begin a train for the flow: its first transmission is due
      immediately (it fires on the next {!check}).  No-op while
      active. *)

  val kick : t -> int -> now:int -> unit
  (** Same as {!start}: restart an idle flow's train. *)

  val stop : t -> int -> unit
  (** Idle the flow and cancel its pending transmission. *)

  val check : t -> now:int -> limit:int -> Fire_outcome.t
  (** Dispatch due transmissions — the pool's trigger state.  [limit]
      bounds the batch exactly as {!Timer_store.S.fire_due} does. *)

  val active : t -> int
  val sends : t -> int

  val catch_ups : t -> int
  (** Sends whose next deadline was clamped to [now + min_interval]
      because dispatch latency pushed the flow behind its ideal
      schedule — the pool-level counterpart of the single-flow
      [rate_clock/catch_up_send] profile event. *)

  val flow_sends : t -> int -> int
  val flow_active : t -> int -> bool

  val user : t -> int -> int
  (** Per-flow caller scratch word, initially 0.  It lives in the
      flow's packed state row, so reading or writing it from inside the
      [send] callback touches a cache line the fire path has already
      pulled — per-send caller state with no extra memory traffic.
      {!Paced_sender.Fleet} keeps its remaining-segment count here. *)

  val set_user : t -> int -> int -> unit

  val delays : t -> Hdr.t
  (** Sampled fire delay vs the {e requested} (unquantized) deadline,
      µs — for an approximate store this includes the quantization
      error, which is the point of measuring it. *)

  val store_pending : t -> int

  val store_words : t -> int
  (** The underlying store's analytic heap footprint
      ([Timer_store.S.words]), 64-bit words. *)

  val words : t -> int
  (** The pool's own flow-state footprint (packed rows + handle array),
      excluding the store — add {!store_words} for the total. *)
end
