(** Figure 5: trigger-interval medians over 1 ms and 10 ms windows.

    Runs the ST-Apache-compute workload for 10 seconds, computes the
    median trigger interval within consecutive 1 ms and 10 ms windows,
    and summarises the variability: the paper finds most 1 ms-window
    medians between 14 and 26 us with fewer than 1.13% above 40 us,
    while 10 ms-window medians sit in a narrow 17–19 us band. *)

type window_stats = {
  window_ms : float;
  windows : int;
  min_median : float;
  p5 : float;  (** 5th percentile of window medians *)
  p95 : float;
  max_median : float;
  above_40us_pct : float;
}

type result = {
  one_ms : window_stats;
  ten_ms : window_stats;
  medians_1ms : (Time_ns.t * float) list;
}

val compute : Exp_config.t -> result
val run : Exp_config.t -> string
