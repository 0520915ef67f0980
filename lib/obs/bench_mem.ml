(* Shared GC accounting around a timed section.

   Every bench harness used to hand-roll its own [Gc.minor_words]
   pair; this helper measures one section with one convention:
   allocation deltas (minor/major/promoted words) plus the heap
   high-water mark, so words/op columns mean the same thing in
   [bench/main.ml], [bench/store_arena.ml] and [bench/pacer_bench.ml]. *)

type delta = {
  d_minor_words : float;  (* words allocated in the minor heap *)
  d_major_words : float;  (* words allocated directly in the major heap *)
  d_promoted_words : float;  (* words surviving into the major heap *)
  d_heap_words : int;  (* major heap size after the section *)
  d_top_heap_words : int;  (* process-lifetime heap high-water mark *)
}

let measure f =
  let s0 = Gc.quick_stat () in
  let x = f () in
  let s1 = Gc.quick_stat () in
  ( x,
    {
      d_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      d_major_words = s1.Gc.major_words -. s0.Gc.major_words;
      d_promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      d_heap_words = s1.Gc.heap_words;
      d_top_heap_words = s1.Gc.top_heap_words;
    } )

(* Major-heap words the section allocated net of promotion: what a
   "major words/op" column wants (promoted words would double-count
   minor allocation). *)
let major_alloc d = d.d_major_words -. d.d_promoted_words
