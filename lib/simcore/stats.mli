(** Sample statistics.

    Two collectors are provided.  {!Online} accumulates count, mean and
    variance in O(1) space (Welford's algorithm) and is used where only
    moments are needed.  {!Sample} retains every observation so that
    medians, percentiles, maxima and tail fractions — the quantities in
    the paper's Table 1 — can be computed exactly. *)

module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val add_us_of_ns : t -> int -> unit
  (** [add_us_of_ns t ns] is [add t (float_of_int ns /. 1e3)]: a span
      in integer nanoseconds, observed in microseconds, with no float
      boxed on the way. *)

  val clear : t -> unit
  (** Forget every observation. *)

  val count : t -> int
  val mean : t -> float
  (** [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [nan] with fewer than two points. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

module Sample : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val clear : t -> unit
  (** Forget every observation (capacity is retained). *)

  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0, 100\]], linear interpolation
      between order statistics.  @raise Invalid_argument when empty or
      [p] out of range. *)

  val median : t -> float
  (** [percentile t 50.] *)

  val fraction_above : t -> float -> float
  (** [fraction_above t x] is the fraction of observations strictly
      greater than [x]; [0.] when empty. *)

  val sorted : t -> float array
  (** A sorted copy of the observations. *)

  val values : t -> float array
  (** Observations in insertion order (copy). *)
end
