(** Simulation timestamps and durations, in integer nanoseconds.

    All simulation time in this project is nanoseconds since the start of
    the simulation.  Nanosecond resolution comfortably expresses both the
    paper's measurement clock (CPU cycles at a few hundred MHz, i.e. a
    handful of ns per tick) and its interrupt clock (1 kHz, i.e. 1 ms).

    Time has two representations, split by where it is used:
    - {b int ns inside the simulator.}  The engine's clock
      ([Engine.now_i]), event times ([Engine.post_at_i]), every
      per-event consumer of time and the whole timer-store contract
      ([Timer_store.S] deadlines and [now], [Softtimer],
      [Rate_clock.Pool]) take a plain [int], which never allocates.  An
      OCaml [int] holds ~146 years of nanoseconds.
    - {b [t], boxed [int64], only at the edges}: [Engine.now],
      [run_until] and [schedule_at], configuration spans and results.
      A [t] enters the int world through {!to_int} alone, which
      saturates instead of wrapping. *)

type t = int64
(** A point in simulated time, in nanoseconds since simulation start. *)

type span = int64
(** A duration, in nanoseconds.  Spans may be added to times and to each
    other; negative spans are permitted in arithmetic but most consumers
    require non-negative values. *)

val zero : t
(** The simulation epoch. *)

val ( + ) : t -> span -> t
(** [t + d] is the instant [d] nanoseconds after [t]. *)

val ( - ) : t -> t -> span
(** [t1 - t2] is the (possibly negative) span from [t2] to [t1]. *)

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( = ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val of_ns : int -> span
(** [of_ns n] is a span of [n] nanoseconds. *)

val of_us : float -> span
(** [of_us us] is a span of [us] microseconds, rounded to the nearest
    nanosecond. *)

val of_ms : float -> span
(** [of_ms ms] is a span of [ms] milliseconds, rounded to the nearest
    nanosecond. *)

val of_sec : float -> span
(** [of_sec s] is a span of [s] seconds, rounded to the nearest
    nanosecond. *)

val to_ns : span -> int64
(** Identity; exported for symmetry. *)

val to_int : t -> int
(** [to_int t] is [t] in integer nanoseconds, clamped into the int
    range: [max_int] (2^62 - 1, about 146 years) for every [t] at or
    past it, [min_int] for every [t] at or below [min_int].  Never
    wraps, so a far-future [t] stays far in the future.  The one
    conversion from a boxed time into the int ns the simulator keeps. *)

val to_us : span -> float
(** [to_us d] is [d] expressed in microseconds. *)

val to_ms : span -> float
(** [to_ms d] is [d] expressed in milliseconds. *)

val to_sec : span -> float
(** [to_sec d] is [d] expressed in seconds. *)

val mul : span -> int -> span
(** [mul d k] is [d] repeated [k] times. *)

val scale : span -> float -> span
(** [scale d f] is [d] scaled by [f], rounded to the nearest nanosecond. *)

val to_string : t -> string
(** [to_string t] is [Format.asprintf "%a" pp t]. *)
