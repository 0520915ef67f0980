(** Extension experiment: million-flow rate-based clocking.

    Sweeps a {!Paced_sender.Fleet} of rate-clocked flows from 10^3 to
    10^6 (10^4 under [--quick]) over the approximate pacing wheel and
    the eventq / lawn exact baselines, reporting sends, catch-up
    fraction, fire-delay quantiles and resident bytes per flow.

    Runs entirely on simulated time with seeded randomness — the
    [--store] flag does not affect it (the sweep builds its own
    stores, that comparison being the experiment).  Wall-clock ns per
    flow per tick is measured separately by [bench/pacer_bench.exe]. *)

type cell = {
  store : string;
  flows : int;
  sends : int;
  catch_up_pct : float;
  d50_us : float;
  d99_us : float;
  dmax_us : float;
  kb_per_flow : float;
  store_words : int;  (** analytic store footprint ({!Timer_store.S.words}) *)
  pool_words : int;  (** fleet pool arrays: flow state + handles *)
}

val compute : Exp_config.t -> cell list
(** One cell per (store variant, fleet size), in sweep order. *)

val run_census : Exp_config.t -> cell list
(** The same sweep as {!compute}, but each fleet is registered as a
    live {!Memstats} census source under [mem;pacer;<store>;<flows>]
    (split store vs pool) and kept alive by the provider closures until
    [Memstats.reset_census] — so the conservation invariant holds over
    the registered words.  Main-domain-only (census registration
    mutates the Profile category registry): call it from the run report
    path, never inside a Runner job. *)

val run : Exp_config.t -> string
