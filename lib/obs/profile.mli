(** Hierarchical cycle-attribution profiler.

    Attributes every unit of CPU time the simulator charges to a
    category path (e.g. [["interrupt"; "fxp0-rx"; "pollution"]]),
    aggregated per CPU.  Attribution happens inside [Cpu.charge], the
    single choke point through which all busy time flows, so the
    conservation invariant — attributed total = [Cpu.busy_ns] for every
    CPU — holds by construction.

    Off-by-default with the same single-load-and-branch discipline as
    {!Trace}: when no profiler is {!install}ed, {!charge}, {!event} and
    {!dispatch} cost one ref load and one branch, so instrumentation
    stays in hot paths permanently.  Charge sites should guard any
    allocation (notably {!seq}) behind {!enabled}. *)

type t
(** A profiler instance: per-CPU attribution cells, span-less event
    counters and the per-trigger-state dispatch breakdown. *)

type attr
(** An attribution value carried by charged work.  Either a single
    interned category path, or a {!seq} that splits one quantum across
    several categories. *)

val intern : string list -> attr
(** [intern path] returns the attribution for a category path, creating
    registry nodes as needed.  Interning is cheap but not free — do it
    once at setup time (module init, line/workload creation) and reuse
    the result.  Segments containing [';'], [' '] or newline are
    sanitized (replaced with ['_']) so exports stay parseable.
    @raise Invalid_argument on an empty path. *)

val seq : (attr * Time_ns.span) list -> tail:attr -> attr
(** [seq parts ~tail] splits a quantum: the first [span] of charged time
    goes to the first part's category, and so on; time beyond the
    declared parts flows to [tail].  Parts are consumed statefully in
    order, so a quantum delivered in several charges (preemption)
    resumes where it left off — consequently a [seq] value must be used
    for exactly one submitted quantum.  Non-positive parts are dropped.
    Only allocate when {!enabled} returns [true].
    @raise Invalid_argument if a part is itself a [seq]. *)

val create : unit -> t

val install : t -> unit
(** Make [t] the live sink for {!charge}/{!event}/{!dispatch}. *)

val uninstall : unit -> unit

val enabled : unit -> bool
(** [true] iff a profiler is installed in this domain.  Guard
    allocations with this.  While no domain has a profiler installed it
    is one atomic load and a branch (no [Domain.DLS] lookup). *)

(** {1 Hot-path recording} *)

val charge : attr -> cpu:int -> Time_ns.span -> unit
(** Attribute [span] of busy time on [cpu].  Called by [Cpu.charge];
    no-op (load + branch) when disabled. *)

val event : attr -> unit
(** Count a span-less occurrence (wheel compaction, retransmit, ...).
    [seq] attrs are ignored.  No-op when disabled. *)

val dispatch : source:string -> delay:Time_ns.span -> unit
(** Record that a soft-timer firing was dispatched by trigger state
    [source] with latency [delay] past its deadline (clamped to >= 0).
    No-op when disabled. *)

(** {1 Readers} *)

val cpu_count : t -> int
(** Number of CPUs that received at least one attributed charge. *)

val attributed_ns : t -> cpu:int -> Time_ns.span
(** Total attributed time on [cpu]; equals [Cpu.busy_ns] when every
    charge site is instrumented (the conservation invariant). *)

val total_attributed_ns : t -> Time_ns.span

val self_ns : t -> string list -> Time_ns.span
(** Self time of exactly this path, summed across CPUs; [0] if the path
    was never interned. *)

val subtree_ns : t -> string list -> Time_ns.span
(** Self time of this path plus all descendants, summed across CPUs. *)

val charges : t -> string list -> int
(** Number of charges recorded against exactly this path. *)

val dispatch_rows : t -> (string * int) list
(** [(trigger-state name, firings)] in first-dispatch order. *)

val fired_total : t -> int
(** Sum of firings across all dispatch rows; equals the
    [softtimer.fired] metric when dispatch is instrumented. *)

val roots_ns : t -> (string * Time_ns.span) list
(** Top-level categories with their subtree time summed across CPUs,
    largest first (ties by name; zero-time event-only roots omitted).
    The pairs sum to {!total_attributed_ns}. *)

(** {1 Renderers} *)

val to_collapsed : t -> string
(** Collapsed-stack flamegraph lines ["cpuN;frame;frame <ns>"], sorted;
    compatible with inferno / flamegraph.pl / speedscope. *)

val report : t -> string
(** The attribution tree (total/self microseconds, share, charge
    counts), the per-interrupt-line cost split and the per-trigger-state
    firing table (paper Table 1 / §4.1), concatenated. *)

val to_json : t -> string
(** One-line JSON object: total attributed ns, CPU count, fired total,
    top-level categories ([path], [ns]) and per-trigger dispatch counts
    ([source], [fires]), both sorted by name so the order depends only
    on which categories exist.  Shared by the bench baseline's
    [attribution] section and the run report's [profile] section. *)

(** {1 Category-registry readers}

    The interned category tree is shared infrastructure: the cycle
    profiler charges nanoseconds to it, and the memory observatory
    ([Memstats]) attributes words to it.  These readers
    expose the registry itself — node ids are dense ints, stable for
    the process lifetime, and enumeration order is registration order
    (deterministic). *)

val intern_id : string list -> int
(** Like {!intern} but returns the node's registry id.  Same
    sanitization and creation semantics.
    @raise Invalid_argument on an empty path. *)

val id_of_path : string list -> int option
(** Lookup without interning. *)

val id_name : int -> string
(** Leaf segment of the node's path. *)

val id_full : int -> string
(** Full path, [";"]-separated. *)

val id_children : int -> int list
(** Children in registration order. *)

val registry_size : unit -> int
(** Nodes interned so far. *)

val registry_words : unit -> int
(** Analytic estimate of the registry's own heap footprint in 64-bit
    words — the obs subsystem's entry in the memory census. *)
