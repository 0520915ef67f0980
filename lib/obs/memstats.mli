(** Memory observatory: GC telemetry and a live-word census attributed
    to the interned {!Profile} category tree.

    Symmetric with the cycle profiler: where {!Profile} answers "where
    did the nanoseconds go", this module answers "where do the words
    live".  Subsystems register pull-style word providers (usually an
    analytic [words] accessor — store backends, the rate-clock pool,
    obs itself) under a category path rooted at ["mem"]; the census
    samples every provider at report time.

    Nothing here touches a hot path, emits a trace event, or registers
    with a {!Metrics.current} context, so determinism digests, tables
    and run reports stay byte-identical whether the observatory is
    consulted or not.
    GC probes live in a dedicated registry because GC word counts are
    not jobs-invariant.

    Registration and sampling are main-domain-only (the same
    single-domain contract as the Profile registry): record retention
    notes after a parallel fan-out returns, never inside a
    [Runner.map]/[map_sim] job. *)

(** {1 Census sources} *)

val register : path:string list -> (unit -> int) -> unit
(** [register ~path words] registers a live-word provider under
    [["mem"] @ path] in the category registry.  Re-registering a path
    replaces the provider, keeping its census position. *)

val note : path:string list -> int -> unit
(** One-shot retention note: a constant snapshot of a measurement taken
    earlier (the memory may have been freed since), marked as such in
    the census and excluded from the conservation invariant.  The way
    to record a measurement taken inside a parallel job — compute the
    words in the job, return them with the result, and [note] them from
    the main domain afterwards. *)

val reset_census : unit -> unit

val attributed_words : unit -> int
(** Sum of all providers (live and notes), sampled now. *)

val live_attributed_words : unit -> int
(** Sum of the live ({!register}ed) providers only. *)

val conservation_ok : unit -> bool
(** Live attributed words [<=] GC live words.  A violation means a
    double-counted or stale provider.  Notes are excluded: they
    describe memory measured at some earlier point. *)

(** {1 GC sample track}

    A bounded ring (64 entries, oldest evicted) of labelled GC
    snapshots taken at phase boundaries — constant memory for
    arbitrarily long runs. *)

type sample = {
  sm_label : string;
  sm_minor_words : float;
  sm_promoted_words : float;
  sm_major_words : float;
  sm_heap_words : int;
  sm_compactions : int;
}

val sample : label:string -> unit
val reset_samples : unit -> unit

(** {1 Renderers} *)

val report : unit -> string
(** The retention table (per-source words against GC live words, and
    the conservation verdict), the live-word tree under ["mem"], the GC
    sample track and the GC probe dump, concatenated. *)

val to_json : ?gc:bool -> unit -> string
(** JSON object: census sources, attributed words and the conservation
    verdict, plus (unless [~gc:false]) GC live words and counters.
    The run report embeds it with [~gc:false], keeping its JSON
    byte-identical across runs; the pacer bench embeds all of it. *)
