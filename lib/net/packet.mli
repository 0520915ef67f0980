(** Network packets.

    Packets are generic in their metadata so the same links, queues and
    NICs serve both the web-server workload models (whose metadata is a
    connection-level event) and the packet-level TCP simulator (whose
    metadata is a TCP segment). *)

type 'a t = { size_bytes : int; meta : 'a; born : int }

val create : size_bytes:int -> meta:'a -> born:int -> 'a t
(** [born] is the creation instant in integer nanoseconds.
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
(** Alias so {!Pool.to_packet} can name the packet type from inside the
    submodule, where [t] means the pool. *)

(** Freelist pool of mutable packet cells.

    {!create} boxes a fresh record per packet — fine for the
    connection-level workloads, but steady-state pacing at a million
    flows would churn the minor heap at the aggregate send rate.  A
    pool recycles cells through a stack: after warm-up,
    {!Pool.acquire} is pop + overwrite and {!Pool.release} is push,
    with no allocation on either side. *)
module Pool : sig
  type 'a cell = {
    mutable size_bytes : int;
    mutable meta : 'a;
    mutable born : int;
    mutable in_use : bool;
  }

  type 'a t

  val create : unit -> 'a t

  val acquire : 'a t -> size_bytes:int -> meta:'a -> born:int -> 'a cell
  (** Pop a recycled cell (or box a fresh one on pool miss) and fill
      it.  The cell is live until {!release}.
      @raise Invalid_argument if [size_bytes < 0]. *)

  val release : 'a t -> 'a cell -> unit
  (** Return a cell to the freelist.  The caller must not touch the
      cell afterwards; the pool will hand it out again.
      @raise Invalid_argument if the cell is not live (double release). *)

  val to_packet : 'a cell -> 'a packet
  (** Boundary conversion to an immutable {!type:t} — allocates; for
      handing a pooled packet to code that retains it. *)

  val bits : 'a cell -> int

  val live : 'a t -> int
  (** Cells currently acquired. *)

  val free : 'a t -> int
  (** Cells parked on the freelist. *)

  val created : 'a t -> int
  (** Cells ever boxed — stops growing once the pool is warm. *)

  val acquires : 'a t -> int

  val reuses : 'a t -> int
  (** Acquires served from the freelist; [acquires - reuses = created]. *)
end
