(** Memory-locality model.

    The paper's performance arguments hinge on two locality effects that
    this module quantifies:

    - {b interrupt pollution}: a hardware interrupt evicts cache and TLB
      state belonging to the interrupted computation; the cost of
      reloading it is charged to the interrupt (see {!Costs}).  How much
      state there is to lose depends on the running workload: the
      paper's Table 3 shows the tight, cache-resident Flash server
      suffering more added pollution per timer interrupt than the
      context-switch-heavy Apache.  [sensitivity] captures this as a
      multiplier on the profile's baseline pollution cost.

    - {b aggregation warmth}: when several packets are processed in one
      batch (soft-timer polling with an aggregation quota > 1, paper
      §5.9), the kernel's protocol-processing code and data stay warm
      after the first packet, so follow-on packets are cheaper.
      [warm_fraction] is the discount the web server applies. *)

type locality = {
  sensitivity : float;
      (** Multiplier on {!Costs.profile.intr_cache_pollution_us}: 1.0
          reproduces the paper's 4.45 us total interrupt cost under the
          Apache workload. *)
  warm_fraction : float;
      (** Fraction of per-packet protocol-processing work remaining for
          the second and subsequent packets of one aggregated batch
          (1.0 = no aggregation benefit; the calibrated models use
          ~0.6). *)
}

val apache : locality
(** Multi-process server: frequent context switches already spoil
    locality, so marginal interrupt pollution is the baseline. *)

val flash : locality
(** Single-process event-driven server: excellent locality, hence more
    cache state for an interrupt to destroy. *)

val neutral : locality
(** Sensitivity 1, no aggregation benefit; for microbenchmarks. *)
