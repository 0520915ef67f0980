(** Named metrics, read off the components that own them.

    A component (a soft-timer facility, a machine, an interrupt line, a
    NIC, ...) keeps its own counts: nothing is pushed here per event.
    When it is created — a cold path — it registers its counter cells
    and any pull-style probes with the calling domain's context, and
    fetches the context's histograms it records into: one {!current}
    lookup per component.  Reading a context ({!iter}, {!dump}) sums
    the counter cells of each name, merges its histograms in
    registration order and evaluates the last probe registered under
    it.

    Counter and histogram names are declared once, at module
    initialisation ({!counter}, {!histogram}).  A domain context lists
    every declared name, as zero or empty when nothing registered it,
    so a dump has the same rows whichever components a run created.

    Three instrument kinds:
    - {e counters}: [int ref] cells, one per component, that it
      increments;
    - {e histograms}: {!Hdr.t}s, one per name and context, that the
      context's components record into (O(1), constant memory, exact
      lossless merge);
    - {e probes}: closures evaluated at read time, for values a
      component computes on demand. *)

type t
(** A context: the registrations of one domain, one parallel job, or
    one free-standing registry. *)

val current : unit -> t
(** The calling domain's context.  Components register here when they
    are created; readers {!reset} it before creating their simulations
    and read it afterwards. *)

val create : unit -> t
(** A free-standing registry that lists only what is registered in it
    (not the declared names). *)

type counter
type histogram

val counter : string -> counter
(** Declare a counter name.  At module initialisation only: the name
    list is fixed before any domain fans out.
    @raise Invalid_argument if [name] is declared with another kind. *)

val histogram : string -> histogram
(** Declare a histogram name; as {!counter}. *)

val cell : t -> counter -> int ref
(** A fresh zero cell, registered under the counter's name. *)

val hdr : t -> histogram -> Hdr.t
(** The context's {!Hdr.t} for the histogram (default {!Hdr.create}
    parameters), created and registered by the first caller.  One per
    context rather than per component: an [Hdr.t] costs about a
    kilobyte, and a single-flow rate clock must stay histogram-free. *)

val probe : t -> string -> (unit -> float) -> unit
(** Register a pull-style metric.  It replaces any probe of the same
    name in [t], so a context holds one closure per probe name: the
    last registered. *)

val reset : t -> unit
(** Drop every registration of [t].  Cells and histograms stay valid
    for the components holding them but are no longer read, and
    nothing a finished simulation registered stays reachable from
    [t]. *)

(** {2 Parallel jobs}

    The runner (lib/parallel) runs each job in a fresh context and
    {!Local.absorb}s the contexts back in job order, so a reading is
    the same at any [--jobs]. *)

module Local : sig
  val swap_fresh : unit -> t
  (** Install a fresh, empty context in the calling domain and return
      the previously installed one.  Pair with {!swap} to restore, and
      hand the fresh context to the parent for {!absorb}. *)

  val swap : t -> t
  (** Install a context; returns the previously installed one. *)

  val absorb : t -> unit
  (** Append a context's registrations to the calling domain's, after
      its own: cells and histograms keep their order (a name can then
      have several histograms, merged when read), and its probes
      replace same-named ones. *)
end

(** {2 Reading} *)

type value =
  | Counter of int  (** the sum of the name's cells *)
  | Histogram of Hdr.t  (** the merge of the name's histograms *)
  | Probe of float  (** the closure's value at read time *)

val iter : t -> (string -> value -> unit) -> unit
(** In ascending name order. *)

val dump : t -> string
(** Human-readable table of every metric, in name order; histograms
    show count/mean/p50/p99/max. *)
