(** Every production timer store, by name.

    The arena bench, the cross-backend equivalence suite and the CLI's
    [--store] flag all draw from this one list:

    - ["wheel"] — the production hashed {!Timing_wheel} (512 slots),
      the paper's structure and the default;
    - ["eventq"] — the engine slot-table technique ({!Eventq_store});
    - ["lawn"] — per-duration FIFO buckets ({!Lawn});
    - ["pacing-wheel"] — the Eiffel-style FFS bucket wheel
      ({!Pacing_wheel}), the one {e approximate} store: deadlines are
      rounded up to the tick granularity (the
      {!Timer_store.Quantize} contract extension).

    {!Timer_store.Reference} is deliberately absent: it is the oracle
    the others are tested against, not a production store. *)

val exact : (module Timer_store.S) list
(** Stores that fire at the exact requested deadline — the ones the
    exact cross-store equivalence and digest suites range over. *)

val approximate : (module Timer_store.S) list
(** Stores that fire at the deadline rounded up to the tick
    granularity; each is tested against its quantized oracle instead. *)

val all : (module Timer_store.S) list
(** [exact @ approximate]. *)

val names : string list

val find : string -> (module Timer_store.S) option
(** Lookup by name; underscores are accepted for hyphens, so
    ["pacing_wheel"] finds ["pacing-wheel"]. *)
