(** Timestamped scalar series with windowed aggregation.

    Figure 5 of the paper plots the median trigger interval within
    consecutive 1 ms and 10 ms windows over a 10 s run; this module
    provides exactly that reduction. *)

type t

val create : unit -> t

val add : t -> Time_ns.t -> float -> unit
(** [add t time v] records observation [v] at [time].  Times must be
    non-decreasing; out-of-order points raise [Invalid_argument]. *)

val windowed_medians : t -> window:Time_ns.span -> (Time_ns.t * float) list
(** Partition the time axis into consecutive windows of the given span,
    starting at the first observation, and return
    [(window_start, median_within_window)] for every non-empty window.
    @raise Invalid_argument if [window <= 0]. *)
