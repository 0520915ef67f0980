(** §5.2: base overhead of soft timers.

    A soft-timer event is scheduled at the maximal possible frequency
    (rescheduled with T = 0 from its own null handler, so it fires at
    every trigger state) under the Apache workload.  The paper finds no
    observable throughput difference, with the handler invoked every
    31.5 us on average — versus ~15% overhead had a 33 kHz hardware
    timer been used instead. *)

type result = {
  base_throughput : float;  (** no facility attached *)
  facility_throughput : float;  (** facility attached, no events *)
  max_rate_throughput : float;  (** null handler at every trigger state *)
  overhead_pct : float;  (** max-rate vs base *)
  mean_firing_interval_us : float;
  delay_mean_us : float;
      (** mean of d = actual - scheduled (paper §3: 31.6 us worst case) *)
  delay_median_us : float;  (** paper §3: 18 us, heavily skewed low *)
  delay_p99_us : float;
  fired : int;
  hw_equiv_overhead_pct : float;
      (** measured overhead of a hardware timer at the same mean rate *)
}

val compute : Exp_config.t -> result
val run : Exp_config.t -> string
