(** Fixed-bin histograms and CDF extraction.

    Used to render the paper's cumulative-distribution figures (Figs. 4
    and 6) from trigger-interval samples.  Bins are uniform over
    [\[lo, hi)]; values below [lo] go to a dedicated underflow bucket
    and values at or above [hi] to a dedicated overflow bin, so
    out-of-range observations never distort the first or last in-range
    step of the CDF. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** @raise Invalid_argument if [bins <= 0] or [hi <= lo]. *)

val add : t -> float -> unit

val count : t -> int
(** Total observations recorded, including under- and overflow. *)

val underflow_count : t -> int
(** Observations below [lo]. *)

val bin_count : t -> int -> int
(** Observations in bin [i] (the overflow bin is index [bins]).
    @raise Invalid_argument for out-of-range indices. *)

val cdf_at : t -> float -> float
(** [cdf_at t x] is the fraction of observations in bins entirely at or
    below [x] — a staircase approximation of the empirical CDF with
    resolution equal to the bin width. *)

val cdf_points : t -> (float * float) list
(** [(upper_edge, cumulative_fraction)] for every bucket: the underflow
    bucket first (its edge reported as [lo]), then every bin, with the
    overflow bin last (its edge reported as [hi]); [bins + 2] points,
    suitable for plotting. *)

val render_ascii :
  ?width:int -> ?height:int -> series:(string * t) list -> unit -> string
(** A textual CDF plot of several histograms on common axes, used by the
    bench harness to reproduce the paper's CDF figures. [width] and
    [height] are the plot body size in characters. *)
