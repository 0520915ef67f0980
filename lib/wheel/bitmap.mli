(** Occupancy bitmaps over bucket indices, 32 bits per [int] word,
    shared by the hashed wheel and the pacing wheel.  An array of
    [(n + 31) lsr 5] zeros covers [n] buckets. *)

val set_bit : int array -> int -> unit
val clear_bit : int array -> int -> unit

val ffs_in_range : int array -> from:int -> upto:int -> int
(** First set bit in the inclusive index range [from, upto], or -1.
    The scan never wraps: it masks the first word below [from] and
    walks whole words up to [upto]'s word. *)
