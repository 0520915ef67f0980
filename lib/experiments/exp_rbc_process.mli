(** Tables 4 and 5: statistics of the rate-clocked transmission process.

    A single connection with unlimited backlog is rate-clocked on the
    busy ST-Apache machine — the worst-case trigger-state process — at
    target intervals of 40 and 60 us, sweeping the maximal allowable
    burst interval (the 12 us minimum is the 1 Gbps line rate of the
    paper's scenario).  The hardware-timer baseline is programmed at the
    target interval and loses ticks inside interrupt-disabled sections,
    falling short of the target (43.6 us at a 40 us target). *)

type row = {
  min_interval_us : float;
  avg_interval_us : float;
  stddev_us : float;
  sends : int;
}

type table = {
  target_us : float;
  soft : row list;  (** one row per min-interval setting *)
  hw_avg_us : float;
  hw_stddev_us : float;
  hw_lost_pct : float;
}

val compute : Exp_config.t -> table list
(** Two tables: target 40 us and target 60 us. *)

val run : Exp_config.t -> string
