(** Delayed-ACK TCP receiver.

    ACKs immediately once [ack_every] (normally 2) segments are pending,
    and otherwise from the coarse delayed-ACK heartbeat that fires at
    absolute multiples of [delack_period] — the BSD behaviour whose
    worst case stalls a 1-segment window for up to 200 ms (visible in
    the paper's Table 6 small-transfer rows).

    Out-of-order segments are buffered; ACKs are cumulative.  An
    application-read throttle can be installed to reproduce the big-ACK
    phenomenon of Appendix A.3: when reads lag, ACKs cover many segments
    at once. *)

type t

val create :
  Engine.t ->
  Tcp_types.params ->
  send_ack:(Time_ns.t -> ack_upto:int -> unit) ->
  t
(** The heartbeat timer starts on creation. *)

val on_data : t -> seq:int -> unit
(** A data segment arrived. *)

val next_expected : t -> int
(** Lowest sequence not yet received in order. *)

val delivered : t -> int
(** Segments received in order so far (= {!next_expected}). *)

val biggest_ack : t -> int
(** Largest number of segments covered by a single ACK (big-ACK
    detector; > [ack_every] indicates ACK aggregation). *)

val set_app_read_delay : t -> Time_ns.span option -> unit
(** With [Some d], arriving data is only acknowledged once the simulated
    application "reads" it, [d] after in-order arrival — the slow-reader
    scenario of Appendix A.3.  [None] (default) reads immediately. *)

val stop : t -> unit
(** Stop the heartbeat (end of connection). *)
