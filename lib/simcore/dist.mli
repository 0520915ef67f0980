(** Random-variate distributions used by the workload models.

    A [t] is a description of a distribution over non-negative durations
    (or scalars); [draw] samples it using an explicit generator.  The
    workload models in [Workloads] describe inter-arrival and service
    processes with these. *)

type t =
  | Constant of float  (** always the given value *)
  | Uniform of float * float  (** uniform on [\[lo, hi)] *)
  | Exponential of float  (** exponential with the given mean *)
  | Pareto of { scale : float; shape : float }
      (** Pareto with minimum [scale] and tail index [shape]; heavy-tailed
          for [shape <= 2].  Used for burstiness in workload models. *)
  | Lognormal of { mu : float; sigma : float }
      (** lognormal with parameters of the underlying normal *)
  | Erlang of { k : int; mean : float }
      (** sum of [k] exponentials; total mean [mean].  Lower variance
          than exponential, for service-like stages. *)
  | Mixture of (float * t) list
      (** weighted mixture; weights need not sum to one, they are
          normalised at draw time *)
  | Shifted of float * t  (** [Shifted (c, d)] draws [c + draw d] *)

val bernoulli : Prng.t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p]: one uniform draw
    [u] in [\[0, 1)], compared [u < p].  A [bool], so nothing is boxed
    on the way. *)

val draw : t -> Prng.t -> float
(** [draw t rng] samples one variate.  Results are clamped below at
    [0.] for every constructor except [Shifted] with a negative shift,
    where the clamp applies after shifting. *)

val draw_into : t -> Prng.t -> float array -> int -> unit
(** [draw_into t rng a i] stores the next {!draw} in [a.(i)]: the same
    value, from the same draws of [rng], with no float boxed on the
    way, so a workload can fill a script's variates without
    allocating. *)

val draw_ns : t -> Prng.t -> int
(** The next {!draw} read as microseconds and rounded to integer
    nanoseconds, as {!span} rounds it, without boxing the variate.  A
    [Shifted] distribution still boxes one float per draw. *)

val mean : t -> float
(** Analytic mean of the distribution (infinite Pareto means for
    [shape <= 1] are returned as [infinity]). *)

val span : t -> Prng.t -> Time_ns.span
(** [span t rng] draws a variate interpreted as microseconds and
    converts it to a {!Time_ns.span}.  All workload-model distributions
    in this project are parameterised in microseconds. *)
