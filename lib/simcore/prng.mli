(** Deterministic pseudo-random number generation.

    A small, explicit-state PRNG (xoshiro256++ seeded through splitmix64)
    so that every simulation run is reproducible from a single integer
    seed and no global state is touched.  Quality is far beyond what the
    stochastic workload models need, and the explicit state makes it easy
    to give independent streams to independent model components. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed].
    Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  The two
    streams are statistically independent; use this to hand sub-streams
    to model components so that adding draws in one component does not
    perturb another. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy replays the same future
    stream as [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The next output's 53 high bits, uniform in [\[0, 2^53)].  An int,
    so a call that is not inlined boxes nothing; [Float.of_int b *.
    0x1.0p-53] is then an exact uniform double in [\[0, 1)], converted
    where it is consumed ({!Dist}). *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  @raise Invalid_argument if
    [n <= 0]. *)
