(** Shared GC accounting around a timed section.

    One convention for every bench harness: measure a section's
    allocation deltas (minor/major/promoted words) and the heap
    high-water mark, so words/op columns mean the same thing in
    [bench/main.ml], [bench/store_arena.ml] and
    [bench/pacer_bench.ml]. *)

type delta = {
  d_minor_words : float;  (** words allocated in the minor heap *)
  d_major_words : float;  (** words allocated directly in the major heap *)
  d_promoted_words : float;  (** words surviving into the major heap *)
  d_heap_words : int;  (** major heap size after the section *)
  d_top_heap_words : int;  (** process-lifetime heap high-water mark *)
}

val measure : (unit -> 'a) -> 'a * delta
(** [measure f] runs [f] and returns its result with the GC deltas
    around it ([Gc.quick_stat] — no heap walk, safe around timed
    sections). *)

val major_alloc : delta -> float
(** Major-heap words allocated net of promotion (promoted words would
    double-count minor allocation). *)
