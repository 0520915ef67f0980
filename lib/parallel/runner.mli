(** Deterministic multicore fan-out for independent simulations.

    Every experiment cell in this project is an independent, fully
    deterministic simulation: it builds its own {!Engine} and {!Prng}
    from an explicit seed and shares no mutable state with its
    siblings.  [Runner] exploits that by fanning a list of such jobs
    across OCaml 5 domains and merging the results {e in input order},
    so the observable output of a parallel run is byte-identical to
    the sequential one — `--jobs N` changes wall-clock time and
    nothing else.  See DESIGN.md §8.4 for the determinism argument.

    Worker domains start with no trace ring, tap, or profiler
    installed (those sinks are domain-local, see {!Trace}), so jobs
    cannot race on the parent's observability state. *)

val set_default_jobs : int -> unit
(** Set the job count used when [?jobs] is omitted.  [0] (the initial
    value) means [Domain.recommended_domain_count ()]; [1] forces sequential execution.
    Negative values raise [Invalid_argument].  This is what the
    [--jobs] flags of the CLI and bench harness set. *)

val default_jobs : unit -> int
(** The resolved default ([recommended_jobs ()] when unset/auto). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element of [xs], possibly in
    parallel, and returns the results in input order.

    [f] must be self-contained in the sense above: it may not mutate
    state shared with other jobs.  {!Metrics} registrations are safe and
    deterministic: each job runs in a fresh {!Metrics.Local} context,
    and the contexts are absorbed into the caller's in input order
    after the join, so readings are byte-identical at any [jobs].

    At most [jobs] elements run concurrently (the calling domain works
    too, so [jobs] = total parallelism).  If any job raises, the
    exception of the lowest-indexed failing job is re-raised after all
    workers have drained.

    Nested calls — a job that itself calls [map] — run sequentially
    inside the worker rather than spawning further domains. *)

val map_sim : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} for jobs that are traced simulations.  Behaves exactly like
    [map], with observability made deterministic:

    - If the calling domain has a {!Trace} ring installed, each job
      runs with a fresh private ring of the same capacity, and after
      all jobs complete the private rings are {!Trace.absorb}ed into
      the parent's in job order.  Because each job is a self-contained
      simulation, the merged stream — and hence the trace digest — is
      identical to a sequential run's.
    - If a tap (runtime sanitizer) or a {!Profile} profiler is
      installed, the jobs run sequentially in the calling domain
      instead: both consumers need the exact synchronous event order,
      and a bounded private ring could overflow and silently hide
      events from them.  Determinism of results is unaffected either
      way. *)
