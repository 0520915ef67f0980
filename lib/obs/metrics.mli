(** Named metrics registry.

    A registry maps dotted names ("softtimer.fired", "nic.rx_packets")
    to metric instruments.  Subsystems register their instruments at
    module initialisation into {!default} (or into a registry of their
    own) and update them unconditionally: every instrument kind is
    cheap enough for the simulator's hot paths.

    Four instrument kinds:
    - {e counters}: monotonically increasing ints ({!counter}, {!incr});
    - {e gauges}: last-written floats ({!gauge}, {!set_gauge});
    - {e histograms}: constant-memory streaming distributions backed by
      {!Hdr} — O(1) record with bounded relative error, so hot paths
      record into them unconditionally (no sampling gate);
    - {e probes}: pull-style closures evaluated at {!dump} time, for
      values a subsystem already maintains itself.

    Instruments are get-or-create: asking twice for the same name (with
    the same kind) yields the same instrument, so module-level
    registration composes across libraries. *)

type t
(** A registry. *)

type counter
type gauge

val create : unit -> t

val default : t
(** The process-wide registry every built-in subsystem registers into. *)

val counter : t -> string -> counter
(** Get or create the counter [name].
    @raise Invalid_argument if [name] exists with a different kind. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
(** Get or create the gauge [name]. *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float
(** [nan] until first set. *)

val hdr : t -> string -> Hdr.t
(** Get or create the streaming histogram [name] (default {!Hdr.create}
    parameters: 1% relative error, [1e-3] lowest discernible value).
    Observe with {!Hdr.record}: O(1) and constant-memory, safe to call
    unconditionally on hot paths. *)

val probe : t -> string -> (unit -> float) -> unit
(** Register a pull-style metric.  Re-registering a probe name replaces
    the closure (a fresh simulation replaces a dead one's probes). *)

(** {2 Domain-local instruments}

    Counters and histograms whose values live in domain-local storage:
    a handle is a dense integer id, the registry remembers only the id,
    and each domain accumulates into a private array pair.  Updating
    one from a parallel worker therefore never races with the parent
    or with sibling workers; the runner (lib/parallel) swaps a fresh
    context in around each job and {!Local.absorb}s it back in job
    order, so totals are deterministic at any [--jobs].

    Register at module initialisation (before any domain fan-out):
    the id space is fixed once workers exist.  {!iter}, {!dump}
    and {!reset} act on the {e calling} domain's values. *)

type dcounter
type dhistogram

val dcounter : t -> string -> dcounter
(** Get or create the domain-local counter [name].
    @raise Invalid_argument if [name] exists with a different kind. *)

val dincr : ?by:int -> dcounter -> unit
val dcounter_value : dcounter -> int
(** The calling domain's accumulated count. *)

val dhistogram : t -> string -> dhistogram
(** Get or create the domain-local histogram [name] (default
    {!Hdr.create} parameters). *)

val drecord : dhistogram -> float -> unit
(** O(1) record into the calling domain's histogram. *)

val dhistogram_hdr : dhistogram -> Hdr.t
(** The calling domain's backing {!Hdr.t} (created on first access). *)

module Local : sig
  type ctx
  (** One domain's accumulated domain-local instrument values. *)

  val swap_fresh : unit -> ctx
  (** Install a fresh, all-zero context in the calling domain and
      return the previously installed one.  Pair with {!swap} to
      restore, and hand the fresh context to the parent for
      {!absorb}. *)

  val swap : ctx -> ctx
  (** Install [ctx]; returns the previously installed context. *)

  val absorb : ctx -> unit
  (** Merge [ctx] into the calling domain's context: counters add,
      histograms bucket-wise sum. *)
end

val reset : t -> unit
(** Zero all counters, clear gauges and histograms.  Probes are kept
    (re-registering the same name still replaces): they are pull-style
    views into live state, and dropping them on reset silently lost
    wheel-residency metrics for the second run in one process. *)

(** {2 Reading} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Hdr.t
  | Probe of float  (** the closure's value at read time *)

val iter : t -> (string -> value -> unit) -> unit
(** In ascending name order. *)

val dump : t -> string
(** Human-readable table of every instrument, in name order; histograms
    show count/mean/p50/p99/max. *)
