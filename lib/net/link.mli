(** Point-to-point link: FIFO serialisation at a fixed bandwidth plus a
    fixed propagation latency.

    A packet handed to {!send} waits for earlier packets to finish
    serialising, occupies the wire for [bits / bandwidth], and is
    delivered [latency] after its serialisation completes.  The queue is
    unbounded. *)

type 'a t

val create :
  Engine.t ->
  bandwidth_bps:float ->
  latency:Time_ns.span ->
  ?on_sent:(int -> 'a Packet.t -> unit) ->
  deliver:(int -> 'a Packet.t -> unit) ->
  unit ->
  'a t
(** [on_sent] fires when a packet finishes serialising (before
    propagation) — the moment a NIC would signal transmit completion.
    Both callbacks receive the instant in integer nanoseconds.
    @raise Invalid_argument if [bandwidth_bps <= 0] or [latency < 0]. *)

val send : 'a t -> 'a Packet.t -> unit

val in_flight : 'a t -> int
(** Packets queued or serialising (not counting those in propagation). *)

val busy : 'a t -> bool
(** Whether the transmitter is currently serialising. *)

val sent : 'a t -> int
(** Packets fully serialised so far. *)
