(** Specialized event-queue heap for the simulation engine.

    A 4-ary min-heap over [(time, seq)] keys with an [int] payload,
    stored as three parallel unboxed [int array]s.  Compared to a
    generic binary heap (closure comparison over boxed records whose
    [int64] time field lives behind a pointer), every comparison here
    is a monomorphic immediate-int compare against a flat array — no
    indirection, no allocation, and a 4-ary layout that halves the
    tree depth and keeps sibling keys in one or two cache lines.

    Keys are [(time, seq)] ordered lexicographically: [time] is the
    instant in integer nanoseconds and [seq] a unique, monotonically
    increasing tie-breaker, so equal-time entries pop in push (FIFO)
    order.  The payload is an arbitrary [int] (the engine stores a
    slot-table index).

    Times and sequence numbers must be non-negative and fit in an
    OCaml [int] (63-bit: ~292 simulated years in nanoseconds), which
    every simulation in this project satisfies by construction.

    Operations never allocate except when the backing arrays grow. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty queue.  [capacity] (default 256) pre-sizes the arrays. *)

val length : t -> int
(** Entries currently stored, including any the owner considers dead
    ({!rebuild} is how dead entries are shed). *)

val is_empty : t -> bool

val capacity : t -> int
(** Length of each backing array (≥ {!length}); what the queue's
    memory footprint is proportional to. *)

val push : t -> time:int -> seq:int -> payload:int -> unit
(** Insert an entry.  O(log4 n), allocation-free when within
    capacity. *)

val min_time : t -> int
(** Key/payload of the minimum entry.  Undefined (but memory-safe)
    when empty; guard with {!is_empty}. *)

val min_seq : t -> int
val min_payload : t -> int

val drop_min : t -> unit
(** Remove the minimum entry.  No-op when empty. *)

val clear : t -> unit
(** Remove all entries (keeps the backing arrays). *)

val iter : t -> (time:int -> seq:int -> payload:int -> unit) -> unit
(** Visit every entry in unspecified order. *)

val rebuild : t -> keep:(seq:int -> payload:int -> bool) -> unit
(** Drop every entry [keep] rejects (judged by its unique [seq] and
    its payload), then restore the heap invariant in place.  O(n); the
    engine's lazy-cancellation compaction choke point. *)

val to_sorted : t -> (int * int * int) list
(** [(time, seq, payload)] triples in ascending key order,
    non-destructively.  O(n log n); for tests and debugging. *)
