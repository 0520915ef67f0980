(** The core both timer wheels share: the row fields, one set of
    intrusive chains over {!Slab} rows, and the snapshot batch that
    fires due rows.  {!Timing_wheel} adds its hashed-slot policy,
    {!Pacing_wheel} quantisation, its level-1 pair vectors and its
    cascades.  Everything is first-order over int arrays: no functor,
    and no closure but the store's own callback.

    A wheel row holds its deadline at offset 0, its tie position at 1
    and its chain links at 2 (previous) and 3 (next), beside the slab's
    generation (4) and location (5).  A chained row's location is its
    chain's index, a row in a batch in flight has [loc_batch], and a
    wheel may give other rows locations of its own outside both.

    A set created with [~tails:true] appends at a chain's tail, so each
    chain stays in link order; without tails it pushes at the head.
    Linking and unlinking touch the row and its one or two neighbours
    only.

    The batch: a [fire_due] moves its due rows onto the scratch stack
    ({!gather}) before any callback runs, then {!fire} dispatches them.
    Batches stack, so a [fire_due] nested in a callback gathers above
    the outer batch. *)

val least_unknown : int
(** [-1]. *)

val least_none : int
(** [-2]. *)

type t = {
  heads : int array;  (** per-chain first row, [-1] when empty *)
  tails : int array;  (** per-chain last row; [[||]] in a head-linked set *)
  occ : int array;  (** occupancy bitmap over chains ({!Bitmap}) *)
  mutable scratch : int array;  (** batches in flight, as handles *)
  mutable top : int;  (** the scratch stack's height *)
  mutable least : int;
      (** a chained row no later than any other, {!least_unknown} or
          {!least_none}: a wheel that caches its minimum keeps it here,
          and {!fire} adds each withheld row to it. *)
}

val create : chains:int -> tails:bool -> t
val row_at : 'a Slab.t -> int -> int
val set_at : 'a Slab.t -> int -> int -> unit
val row_tie : 'a Slab.t -> int -> int
val set_tie : 'a Slab.t -> int -> int -> unit
val row_next : 'a Slab.t -> int -> int
val row_loc : 'a Slab.t -> int -> int
val set_loc : 'a Slab.t -> int -> int -> unit

val link : 'a Slab.t -> t -> int -> int -> unit
(** [link s cs c i] links row [i] into chain [c], its new location. *)

val unlink : 'a Slab.t -> t -> int -> unit
(** Take chained row [i] out of its chain; its location stays. *)

val take : t -> int -> int
(** [take cs c] empties chain [c] and returns its former first row, or
    [-1].  The rows keep their links for the caller's walk. *)

val chain_min : 'a Slab.t -> int -> int -> int
(** [chain_min s i best] is the earliest row of the chain from row [i],
    or [best] (a row, or [-1]) when none is strictly earlier. *)

val chain_due : 'a Slab.t -> int -> now:int -> int
(** The number of rows due at [now] in the chain from row [i]. *)

val gather : 'a Slab.t -> t -> int -> now:int -> unit
(** [gather s cs c ~now] moves chain [c]'s rows due at [now] onto the
    scratch stack. *)

val fire : 'a Slab.t -> t -> base:int -> into:int -> limit:int -> (int -> 'a -> unit) -> int
(** [fire s cs ~base ~into ~limit f] sorts the batch
    [scratch.(base .. top - 1)] by (deadline, tie) and runs it, popping
    it, and returns the callback count.  Each row still in the batch is
    freed and passed to [f deadline value], at most [limit] times; a
    row an earlier callback cancelled or re-armed is skipped without
    using the budget.  The rest are withheld into chain [into] with
    deadline and tie intact, and a raising callback withholds the rest
    the same way before the exception leaves.  Allocates nothing once
    the scratch stack has room. *)

val words : t -> int
(** Heap words of the record and its arrays. *)
