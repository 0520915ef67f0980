(** Figures 2 and 3 (+ the §5.1 cross-platform points): base overhead of
    hardware timer interrupts.

    An additional null-handler hardware timer runs at 0–100 kHz while
    the Apache workload saturates the server; throughput degradation
    measures the full per-interrupt cost, including cache/TLB effects.
    The paper reports ~4.45 us/interrupt on the 300 MHz P-II (45%
    overhead at 100 kHz), 4.36 us on the 500 MHz P-III and 8.64 us on
    the 500 MHz Alpha. *)

type row = {
  freq_khz : float;
  throughput : float;  (** requests/s (Figure 2) *)
  overhead_pct : float;  (** relative to the 0 kHz baseline (Figure 3) *)
  us_per_interrupt : float;  (** derived cost *)
}

type result = {
  rows : row list;  (** the frequency sweep on the P-II profile *)
  per_intr_piii : float;  (** single-point measurement, P-III profile *)
  per_intr_alpha : float;  (** single-point measurement, Alpha profile *)
}

val compute : Exp_config.t -> result
val run : Exp_config.t -> string
