(** Network packets.

    Packets are generic in their metadata so the same links, queues and
    NICs serve both the web-server workload models (whose metadata is a
    connection-level event) and the packet-level TCP simulator (whose
    metadata is a TCP segment). *)

type 'a t = {
  mutable size_bytes : int;
  mutable meta : 'a;
  mutable born : int;  (** creation instant, integer nanoseconds *)
  mutable in_use : bool;  (** live: created, or acquired and not yet released *)
}
(** A packet is a mutable cell so that a {!Pool} can recycle it.  Its
    owner reads it until the packet dies and then, if it came from a
    pool, releases it there; nobody may touch it after that. *)

val create : size_bytes:int -> meta:'a -> born:int -> 'a t
(** A fresh live packet, outside any pool.  [born] is the creation
    instant in integer nanoseconds.
    @raise Invalid_argument if [size_bytes < 0]. *)

val bits : 'a t -> int
(** Size on the wire, in bits. *)

val mtu_payload : int
(** 1448 bytes: the TCP payload of a 1500-byte Ethernet frame after
    20 + 20 + 12 bytes of IP/TCP/options headers — the paper's transfer
    unit (Tables 6 and 7). *)

val frame_overhead : int
(** 52 bytes of IP + TCP + options headers. *)

val ack_size : int
(** Size of a bare ACK segment on the wire. *)

type 'a packet = 'a t
(** Alias so {!Pool} can name the packet type from inside the
    submodule, where [t] means the pool. *)

(** Freelist pool of packets.

    {!create} boxes a fresh record per packet — fine for the
    connection-level workloads that keep packets, but steady-state
    traffic would churn the minor heap at its packet rate.  A pool
    recycles packets through a stack: after warm-up, {!Pool.acquire}
    is pop + overwrite and {!Pool.release} is push, with no allocation
    on either side. *)
module Pool : sig
  type 'a t

  val create : unit -> 'a t

  val acquire : 'a t -> size_bytes:int -> meta:'a -> born:int -> 'a packet
  (** Pop a recycled packet (or box a fresh one on pool miss) and fill
      it.  The packet is live until {!release}.
      @raise Invalid_argument if [size_bytes < 0]. *)

  val release : 'a t -> 'a packet -> unit
  (** Return a packet to the freelist.  The caller must not touch the
      packet afterwards; the pool will hand it out again.
      @raise Invalid_argument if the packet is not live (double
      release). *)

  val live : 'a t -> int
  (** Packets currently acquired. *)

  val free : 'a t -> int
  (** Packets parked on the freelist. *)

  val created : 'a t -> int
  (** Packets ever boxed — stops growing once the pool is warm. *)

  val acquires : 'a t -> int

  val reuses : 'a t -> int
  (** Acquires served from the freelist; [acquires - reuses = created]. *)
end
