(** Extension experiment: sensitivity of the headline results to the
    calibrated cost model.

    The reproduction pins a handful of constants to the paper's own
    measurements (DESIGN.md §4).  This ablation perturbs the two that
    carry the most argumentative weight — the per-interrupt cost and the
    cache-locality sensitivity — and shows that the paper's qualitative
    conclusions survive across a wide band:

    - the soft-vs-hardware pacing gap (Table 3) persists even if
      interrupts were half or double their measured cost;
    - the polling win (Table 8) grows with locality sensitivity but
      remains a win even at none. *)

type pacing_row = {
  intr_scale : float;  (** multiplier on both interrupt cost components *)
  hw_overhead_pct : float;
  soft_overhead_pct : float;
}

type polling_row = {
  sensitivity : float;  (** cache-pollution sensitivity used for Flash *)
  polling_ratio : float;  (** quota-5 polled / interrupt throughput *)
}

type result = { pacing : pacing_row list; polling : polling_row list }

val compute : Exp_config.t -> result
val run : Exp_config.t -> string
