(** Constant-memory streaming histogram with bounded relative error.

    An [Hdr.t] is a log-linear bucketed histogram in the style of
    HdrHistogram: values are quantized to integer multiples of a lowest
    discernible value, small quanta get exact unit-wide buckets, and
    each power-of-two octave above that is split into equal sub-buckets
    sized so any member is within the configured relative error of the
    bucket's reported representative.

    Unlike {!Stats.Sample} (which retains every observation), recording
    is O(1) with no per-observation allocation and memory is bounded by
    the number of distinct buckets (a few KiB regardless of how many
    values are recorded), so these histograms stay always-on in hot
    paths and on arbitrarily long runs.  Bucket indexing is pure integer
    bit math — no [log] calls — so results are deterministic across
    platforms.

    Two histograms created with the same parameters have identical
    (aligned) bucket boundaries; {!merge} is then a lossless bucket-wise
    sum: merging separate recordings of streams A and B yields exactly
    the counts of recording A followed by B. *)

type t

val create : ?rel_error:float -> ?lowest:float -> unit -> t
(** A fresh histogram.  [rel_error] (default [0.01]) bounds the relative
    error of {!quantile} results; the achieved bound (the next power of
    two at or below the request) is reported by {!rel_error}.  [lowest]
    (default [1e-3]) is the lowest discernible value: values are
    quantized to its multiples, giving absolute resolution [lowest] near
    zero.  Negative values are clamped to zero.
    @raise Invalid_argument if [rel_error] is outside (0, 0.5] or
    [lowest] is not positive. *)

val record : t -> float -> unit
(** O(1), allocation-free except when the bucket array grows (at most
    O(log max-value) times over the histogram's life). *)

val record_us_of_ns : t -> int -> unit
(** [record_us_of_ns t ns] is [record t (float_of_int ns /. 1e3)], a
    count of nanoseconds recorded in microseconds, with the quotient
    never boxed: allocation-free on a caller's per-event path. *)

val clear : t -> unit

val count : t -> int

val mean : t -> float
(** Exact (from the running sum), [nan] when empty. *)

val stddev : t -> float
(** Population standard deviation, exact up to float rounding (from the
    running first and second moments, not the buckets).  [nan] when
    empty. *)

val min : t -> float
(** Exact smallest recorded value, [nan] when empty. *)

val max : t -> float
(** Exact largest recorded value, [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]: the representative of the bucket
    containing the ceil(q*n)-th smallest observation — within
    [rel_error t] (relative) plus one quantization unit (absolute) of
    the exact order statistic.  [nan] when empty.
    @raise Invalid_argument if [q] is outside [0, 1]. *)

val percentile : t -> float -> float
(** [percentile t p] is [quantile t (p /. 100.)]. *)

val cdf_points : t -> (float * float) list
(** [(upper_edge, cumulative_fraction)] for every non-empty bucket in
    ascending value order; the last fraction is 1.  Empty list when no
    values were recorded. *)

val merge : t -> t -> t
(** Lossless bucket-wise sum of two histograms with identical layouts.
    @raise Invalid_argument if the layouts differ. *)

val rel_error : t -> float
(** The achieved relative-error bound (a power of two [<=] the value
    requested at {!create}). *)

val lowest : t -> float

val bucket_count : t -> int
(** Allocated buckets — the memory footprint; grows logarithmically
    with the largest recorded value and is independent of {!count}. *)
