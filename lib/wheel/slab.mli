(** The row arena under both timer wheels ({!Timing_wheel} and
    {!Pacing_wheel}).

    Entries live in rows of one flat int array, [stride] ints per row,
    plus one value array.  The slab owns two fields of every row, the
    generation at offset {!gen} and the location at offset {!loc}; the
    other offsets mean whatever the wheel says.  A location is
    {!loc_free} for a free row and any other value the wheel chooses
    for a live one.

    A handle is an immediate int, [(generation lsl 24) lor row].
    Freeing a row bumps its generation, so a stale handle never
    validates, even after its row holds another entry; 2^38
    generations per row outlast any run.  Capacity doubles from 16 rows
    up to 2^24, and freed rows are reused last-freed first. *)

type 'a t = private {
  stride : int;
  mutable cap : int;  (** rows allocated *)
  mutable rows : int array;  (** [cap * stride] ints *)
  mutable vals : 'a array;  (** one per row; length 0 until the first [alloc] *)
  mutable free_top : int;
  mutable free_stk : int array;
}

val gen : int
(** Row offset of the generation. *)

val loc : int
(** Row offset of the location. *)

val loc_free : int
(** The location of a free row, [-1]. *)

val create : stride:int -> 'a t
(** An empty slab of rows of [stride] ints.
    @raise Invalid_argument if [stride] leaves no room for {!gen} and
    {!loc}. *)

val alloc : 'a t -> 'a -> int
(** [alloc s v] takes a free row, growing the slab when none is left,
    stores [v] as its value and returns the row.  The row's location is
    still {!loc_free}: the caller sets it.  A freed row keeps its last
    value alive until reuse, bounded by the capacity: the price of a
    non-optional value array.
    @raise Failure beyond 2^24 rows. *)

val next_row : 'a t -> int
(** The row the next {!alloc} takes, so that a caller can hand the row
    out before it has the row's value. *)

val free : 'a t -> int -> unit
(** Return a row to the free stack, bump its generation and mark it
    free. *)

val handle : 'a t -> int -> int
(** The handle of live row [i] under its current generation. *)

val row_of : int -> int
(** The row a handle names. *)

val valid : 'a t -> int -> bool
(** Whether a handle names a live row under the generation it was
    issued with. *)

val words : 'a t -> int
(** Heap footprint in 64-bit words: the record, the row array, the
    value array and the free stack, [stride + 2] words per row of
    capacity. *)
