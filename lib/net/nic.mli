(** Network interface model.

    A NIC connects the simulated machine to a wire.  Reception has two
    modes (paper §4.2):

    - {b interrupt driven} (the conventional BSD path): an arriving
      packet is placed in the receive ring and an interrupt is raised;
      the handler drains the ring, so packets that arrive while an
      interrupt is latched are coalesced into one batch.  Transmit
      completions can also interrupt, optionally coalesced.
    - {b polled}: arriving packets accumulate in the ring until
      {!poll} is called (by the soft-timer polling module,
      {!Net_poll}).  Following §5.9, when the CPU is idle the NIC
      reverts to interrupts so packet processing is never needlessly
      delayed.

    Either way, the protocol stack receives whole batches through the
    [on_rx_batch] callback, so aggregation-locality benefits apply
    uniformly.

    The receive ring is an array, and a batch is handed over as an
    array and a count, both reused from batch to batch: receiving
    allocates nothing once the ring has grown to its peak.  The NIC
    owns no packet.  What it drops on a full ring goes to [on_drop];
    what it delivers belongs to the stack from the moment
    [on_rx_batch] is called. *)

type 'a t

val create :
  Machine.t ->
  name:string ->
  bandwidth_bps:float ->
  wire_latency:Time_ns.span ->
  tx_deliver:(int -> 'a Packet.t -> unit) ->
  on_rx_batch:(int -> 'a Packet.t array -> int -> unit) ->
  ?on_drop:('a Packet.t -> unit) ->
  ?tx_intr_coalesce:int ->
  ?rx_handler_work_us:float ->
  ?rx_intr_delay:Time_ns.span ->
  ?rx_ring_capacity:int ->
  unit ->
  'a t
(** [tx_deliver] and [on_rx_batch] receive the instant in integer
    nanoseconds.  [on_rx_batch now batch n] receives the batch in
    [batch.(0 .. n - 1)], oldest first, with [n >= 1].  The array is
    valid only during the callback: the NIC refills it with a later
    batch, so the stack must copy out what it keeps, and must not
    drain this NIC ({!poll}, {!hybrid_done}) from inside the callback
    ([Invalid_argument] if it does).  [on_drop] receives each packet
    dropped on a full ring (default: nothing), so a pool's packets can
    be released there.  [tx_intr_coalesce] = raise a transmit-complete
    interrupt every k serialisation completions in interrupt mode (0,
    the default, disables transmit interrupts).  [rx_handler_work_us] is the receive
    interrupt handler's own ring-drain work (default 1.0; NaN or
    infinity raise [Invalid_argument]).
    [rx_intr_delay] models hardware interrupt mitigation: the receive
    interrupt is asserted this long after the first packet lands in an
    empty ring, so closely-spaced arrivals share one interrupt
    (default 0).  [rx_ring_capacity] bounds the receive ring (default
    unbounded); arrivals beyond it are dropped and counted. *)

type mode =
  | Interrupt_driven
  | Polled
  | Hybrid
      (** Mogul & Ramakrishnan's livelock avoidance (paper §6): the
          first packet of a burst interrupts; reception interrupts then
          stay disabled while the stack processes, and on completion the
          stack calls {!hybrid_done} to poll for more — interrupts are
          re-enabled only when the ring is found empty. *)

val set_mode : 'a t -> mode -> unit

val hybrid_done : 'a t -> int
(** In [Hybrid] mode: the stack finished processing a batch.  Drains any
    packets that arrived meanwhile into a new batch (returned count,
    delivered through [on_rx_batch]); when the ring is empty, re-enables
    the receive interrupt and returns 0. *)

val rx_dropped : 'a t -> int
(** Packets dropped because the receive ring was full. *)

val transmit : 'a t -> 'a Packet.t -> unit
(** Queue a packet for serialisation onto the wire.  Serialisation is
    FIFO at the NIC's bandwidth; delivery to [tx_deliver] happens a
    [wire_latency] later. *)

val deliver : 'a t -> 'a Packet.t -> unit
(** A packet arrived from the wire (called by the peer model). *)

val poll : 'a t -> int
(** Drain the receive ring, passing any batch to [on_rx_batch]; returns
    the batch size (0 when the ring was empty, and [on_rx_batch] is
    not called).  Meaningful in either
    mode, but normally driven by {!Net_poll} in [Polled] mode. *)

val rx_ring_length : 'a t -> int
val rx_line : 'a t -> Interrupt.line
val tx_line : 'a t -> Interrupt.line
val rx_packets : 'a t -> int
(** Packets handed to the stack so far. *)

val rx_batches : 'a t -> int
(** Batches handed to the stack so far. *)

val tx_packets : 'a t -> int
