(** Parameters of the FreeBSD-2.2.6-era TCP the paper builds on.

    The paper's Tables 6/7 compare this stack's slow-start behaviour
    against rate-based clocking on a high bandwidth-delay path, so the
    details that matter are the initial window (1 segment — pre-RFC2414),
    delayed ACKs (every second segment, backed by a coarse 200 ms
    heartbeat timer) and per-ACK window growth. *)

type params = {
  mss : int;  (** Segment payload, bytes (1448 on Ethernet, §5.8). *)
  initial_cwnd : int;  (** Initial congestion window, segments. *)
  ack_every : int;
      (** Receiver ACKs immediately once this many segments are
          unacknowledged (2, RFC 1122 delayed ACK). *)
  delack_period : Time_ns.span;
      (** The coarse delayed-ACK heartbeat: pending ACKs are flushed at
          absolute multiples of this period (200 ms in BSD). *)
  ssthresh : int;
      (** Slow-start threshold in segments; effectively unbounded in the
          paper's loss-free WAN experiments. *)
  awnd : int;
      (** Receiver's advertised window, segments.  1024 full-size
          segments (~1.5 MB with RFC 1323 window scaling) comfortably
          covers the paper's largest bandwidth-delay product while
          keeping the emulated router loss-free, matching §5.8. *)
  rto : Time_ns.span;
      (** Retransmission timeout (coarse, fixed: BSD's initial 1 s). *)
}

val default : params

type segment = {
  seq : int;  (** Segment index within the transfer, from 0. *)
  is_ack : bool;
  ack_upto : int;  (** Cumulative: all segments below this are acked. *)
}

val make_data : params -> seq:int -> born:int -> segment Packet.t
(** A full-size data segment (payload + 52 bytes of headers). *)

val make_ack : ack_upto:int -> born:int -> segment Packet.t
(** A bare cumulative ACK. *)
