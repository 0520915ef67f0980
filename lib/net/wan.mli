(** WAN emulator.

    Reproduces the paper's laboratory "WAN": a router that forwards
    packets through a bottleneck of a given bandwidth and then delays
    them by a fixed one-way latency (§5.8: 50 ms delay, 50 or 100 Mbps
    bottleneck).  The bottleneck has a bounded drop-tail buffer; in the
    paper's experiments the buffer is large enough that no losses occur,
    and the default capacity preserves that. *)

type 'a t

val create :
  Engine.t ->
  bottleneck_bps:float ->
  one_way_delay:Time_ns.span ->
  ?queue_capacity:int ->
  deliver:(int -> 'a Packet.t -> unit) ->
  unit ->
  'a t
(** [queue_capacity] defaults to 2048 packets.  [deliver] receives the
    arrival instant in integer nanoseconds. *)

val forward : 'a t -> 'a Packet.t -> unit
(** Hand a packet to the emulator; it is delivered to [deliver] after
    queueing + serialisation at the bottleneck + the one-way delay, or
    silently dropped if the buffer is full. *)

val drops : 'a t -> int
val forwarded : 'a t -> int
