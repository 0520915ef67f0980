(** One run report: everything the observability layer can say about
    one execution of one experiment.

    {!run} arms the cycle-attribution {!Profile}r, a {!Trace} ring, a
    synchronous tap feeding both the {!Timeseries} windows and the
    {!Delay_audit} fire-delay attribution, and the {!Memstats} census,
    then runs the experiment {e once}.  The result renders four
    sections:

    - {b profile}: the attribution tree, the per-interrupt cost split
      and the per-trigger dispatch table ({!Profile.report}; paper
      Tables 1-4);
    - {b stats}: windowed time series, timer and packet spans
      recovered from the ring, and the run's {!Metrics} readings;
    - {b why-late}: the conservation-checked partition of every fired
      timer's delay ({!Delay_audit});
    - {b mem}: the live-word census with its conservation verdict, and
      GC samples at the run boundaries.

    The experiment's own table is discarded: the report is the output.
    The tap forces sequential execution, so the JSON rendering holds no
    wall-clock or GC-dependent field and is byte-identical at every
    [--jobs] value; the text rendering adds GC samples and counters.

    Spans are rebuilt from the ring, so a ring too small for the run
    truncates them: {!dropped} says by how much, the JSON carries it
    under [trace], and the text opens with a warning banner.  The tap
    sees every event, so windows and why-late are never truncated. *)

type options = {
  buf : int;  (** trace ring capacity, in events *)
  window_us : float;  (** time-series window, simulated microseconds *)
  worst : int;  (** why-late exemplars to keep *)
  check_budget : int option;  (** per-check dispatch cap for the run *)
}

val default_options : options
(** [buf] 1048576, [window_us] 1000, [worst] 10, no check budget. *)

type t

val run : Exp_config.t -> id:string -> (Exp_config.t -> string) -> options -> (t, string) result
(** [run cfg ~id f opts] runs [f cfg] (for [id = "pacer-scale"],
    {!Exp_pacer_scale.run_census} instead, which registers every fleet
    as a census source) under the full observatory.  [Error] without
    running when an option is out of range or the trace tap is already
    occupied.  The calling domain's {!Metrics} context and the census
    are reset first; the census is reset again before returning, releasing
    whatever its providers kept alive. *)

val dropped : t -> int
(** Trace records overwritten because the ring was full. *)

val check : t -> (unit, string) result
(** [Error] when a why-late conservation violation or a census
    conservation failure was found: an attribution bug, not a property
    of the experiment. *)

val to_text : t -> string
val to_json : t -> string
(** One line, schema ["softtimers-report/1"]. *)

val to_collapsed : t -> string
(** The profile as collapsed-stack flamegraph lines
    ({!Profile.to_collapsed}). *)
