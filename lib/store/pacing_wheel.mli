(** An Eiffel/Carousel-style pacing wheel: the approximate-time store
    for million-flow rate-based clocking (DESIGN.md §7.2).

    Two levels of circular bucket arrays over the [tick] granularity,
    each with a find-first-set occupancy bitmap, plus a far list beyond
    the level-2 horizon and a past list for deadlines quantized below
    the already-retired range.  Level 1 is this module's own (slot,
    seq) pair vectors; level 2 and the two lists are chains of a
    {!Wheel_core}, and the past list fires through its snapshot batch.
    Entries live in a {!Slab} and a handle is an immediate int, so
    schedule / cancel / re-arm are O(1) and allocation-free, and
    dispatch is O(due).

    Semantics: exactly [Timer_store.Quantize] applied to the reference
    store — the full §7.1 contract with every deadline rounded up to
    the tick granularity (never early).  The default geometry is
    4096 × 4096 buckets: at a 10 µs tick, a 41 ms level-1 horizon and a
    ~167 s level-2 horizon. *)

include Store_sig.S

val create_sized : buckets:int -> tick:int -> unit -> 'a t
(** [create] with [buckets] buckets per level (rounded up to a power of
    two, minimum 4).  Small instances force epoch turnover, cascades and
    far-list traffic at test scale. *)
