(** Rate-clocked TCP sender (the paper's modified stack, §5.8).

    Skips slow-start entirely: when the available capacity is known, the
    sender transmits at that rate from the first segment, one packet per
    pacing event.  In the paper the pacing events come from the
    soft-timer facility; on the unloaded server of §5.8 the idle loop
    makes them essentially exact, so the default here is exact pacing.
    An optional jitter sampler adds a per-event firing delay drawn from
    a trigger-gap model, for studying loaded-server pacing; and
    {!create_with_rate_clock} drives transmissions through a real
    {!Rate_clock} on a simulated machine. *)

type t

val create :
  Engine.t ->
  Tcp_types.params ->
  total_segments:int ->
  interval:Time_ns.span ->
  transmit:(Time_ns.t -> Tcp_types.segment Packet.t -> unit) ->
  ?jitter:(unit -> Time_ns.span) ->
  ?on_last_sent:(Time_ns.t -> unit) ->
  unit ->
  t
(** Send segment [k] at [start_time + k * interval (+ jitter)].
    [interval] is normally the bottleneck serialisation time of one
    full-size frame. *)

val start : t -> unit
val sent : t -> int

val create_with_rate_clock :
  Softtimer.t ->
  Tcp_types.params ->
  total_segments:int ->
  target_interval:Time_ns.span ->
  min_interval:Time_ns.span ->
  transmit:(Time_ns.t -> Tcp_types.segment Packet.t -> unit) ->
  ?on_last_sent:(Time_ns.t -> unit) ->
  unit ->
  t * Rate_clock.t
(** The integrated form: a {!Rate_clock} on the facility's machine emits
    the pacing events; transmission order and count are identical, the
    timing reflects the machine's trigger-state process.  Call
    {!Rate_clock.start} on the returned clock to begin. *)

(** Fleet pacing: many transfers over one {!Rate_clock.Pool}.

    The single-sender shapes above box a record and closures per
    connection; the fleet names flows by dense integer id and keeps all
    state in pooled struct-of-arrays structures — rate state in
    {!Rate_clock.Pool}, transfer progress in {!Session_arena}, wire
    packets in {!Packet.Pool} — so the steady send path allocates only
    the boxed deadline each reschedule hands the timer store. *)
module Fleet (M : Timer_store.S) : sig
  type t

  val create :
    ?stat_every:int ->
    ?intervals:Hdr.t ->
    ?delays:Hdr.t ->
    ?params:Tcp_types.params ->
    tick:Time_ns.span ->
    transmit:(int -> int Packet.t -> unit) ->
    unit ->
    t
  (** [transmit fid p] hands one full-size segment of flow [fid] to
      the wire; [p.meta] is the segment's sequence number and the
      packet is released (and recycled) as soon as [transmit] returns, so
      it must not be retained.  [stat_every], [intervals] and [delays]
      are passed to the underlying {!Rate_clock.Pool}. *)

  val add :
    t -> total_segments:int -> target_interval:Time_ns.span -> min_interval:Time_ns.span -> int
  (** Open a flow; returns its id.  Pass [max_int] segments for an
      unbounded pacing flow.  Flows are never removed — {!stop} idles
      one — so ids stay dense. *)

  val start : t -> int -> now:Time_ns.t -> unit
  (** Begin the flow's train: first segment due immediately, sent on
      the next {!check}. *)

  val check : t -> now:Time_ns.t -> limit:int -> Fire_outcome.t
  (** Dispatch due transmissions across all flows — the fleet's trigger
      state.  A flow's train ends by itself when its transfer
      completes. *)

  val active : t -> int
  val sends : t -> int
  val catch_ups : t -> int
  val sent : t -> int -> int
  val complete : t -> int -> bool
  val completed : t -> int

  val delays : t -> Hdr.t
  (** Cohort fire delay vs requested deadline, µs — for an approximate
      store this includes the quantization error. *)

  val store_pending : t -> int

  val store_words : t -> int
  (** The timer store's analytic heap footprint
      ([Timer_store.S.words]), 64-bit words. *)

  val pool_words : t -> int
  (** The rate-clock pool's own flow-state footprint (packed rows +
      handle array), excluding the store. *)

  val packet_cells_created : t -> int
  (** Pooled packets ever boxed; constant once the pool is warm (the
      allocation-free steady-state witness). *)

  val packet_reuses : t -> int
end
