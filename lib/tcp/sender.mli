(** Self-clocked TCP sender.

    Transmissions are paced purely by ACK arrivals (current-practice TCP
    in the paper's terms): on each ACK the window grows per {!Cwnd} and
    every segment newly admitted by the window is sent back-to-back — a
    burst at access-link speed, which is exactly the behaviour rate-based
    clocking smooths out.

    Loss recovery: three duplicate ACKs trigger a fast retransmit of the
    first unacknowledged segment with Reno-style window halving; a
    coarse retransmission timer (params.rto) catches everything else,
    collapsing the window to one segment. *)

type t

val create :
  Engine.t ->
  Tcp_types.params ->
  total_segments:int ->
  transmit:(Time_ns.t -> Tcp_types.segment Packet.t -> unit) ->
  ?on_complete:(Time_ns.t -> unit) ->
  unit ->
  t
(** [on_complete] fires when every segment has been acknowledged.  The
    retransmission timeout is one engine timer registered here (kind
    ["tcp.rto"]), so an ACK re-arms it in place and allocates nothing
    for it. *)

val start : t -> unit
(** Send the initial window. *)

val on_ack : t -> ack_upto:int -> unit
(** A cumulative ACK arrived. *)

val sent : t -> int
val acked : t -> int
val complete : t -> bool

val max_burst_observed : t -> int
(** Largest number of segments transmitted back-to-back in response to a
    single event (initial window or one ACK) — the burst size a big ACK
    provokes (Appendix A). *)

val retransmits : t -> int
(** Segments retransmitted (fast retransmit + timeouts). *)

val stop : t -> unit
(** Cancel the retransmission timer (end of connection). *)
