(** Timer store over the engine's flat 4-ary event queue.

    A {!Eventq} of [(time, generation)] keys whose payloads index a slot
    array, lazy cancellation by generation mismatch, and threshold
    compaction via [Eventq.rebuild] once stale entries reach both a
    floor (64) and the live count.  Re-arm pushes a fresh queue entry
    under a new generation and lets the old one go stale — O(log n), no
    search.  (The engine itself no longer cancels; this store keeps the
    technique as the comparator it was measured as.)

    Cache-friendly (three unboxed int arrays) and allocation-light, at
    the price of corpses: [resident] can transiently exceed [pending]
    by the compaction slack.

    Deadlines must fit in an OCaml [int] (63-bit nanoseconds — ~292
    simulated years), which the simulation guarantees by construction.

    Conforms to the {!Timer_store.S} contract; see [timer_store.mli] for
    the fire/re-arm semantics. *)

include Timer_store.S
