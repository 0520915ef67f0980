(** Fire-delay attribution: "why was this timer late?"

    For every fired soft timer, partition its delay [fire_at - due]
    into an exact, conservation-checked breakdown of causes,
    reconstructed post-hoc (or via a live {!Trace.set_tap}) from the
    deterministic trace stream.  Nothing here emits trace events, so
    trace digests and verify-determinism are unaffected by auditing.

    {2 The partition}

    Segments are indexed [0 .. nseg-1]:

    - [0..5] — {e trigger-gap} sub-attributed to CPU-0 work class
      ({!klass_label}: intr, softintr, kernel, user, background,
      timer): no trigger-state check had yet reached the store because
      the CPU was busy running this class of work.  Class [5] (timer)
      is the handler of {e another} soft timer.
    - [6] — trigger-gap spent in the CPU idle loop before wakeup.
    - [7] — "other": gap time not covered by the CPU-0 busy/idle
      timeline.  Attribution is reconstructed from CPU-0's run/idle
      events only, so on multi-CPU machines activity elsewhere lands
      here (documented honesty, not a conservation leak).
    - [8] — {e check-skipped}: a trigger-state check reached the store
      while this timer was due ([Soft_check] with the timer still
      pending), but the per-check dispatch budget withheld it.
    - [9] — {e batch-queueing}: time between the dispatching check and
      the handler call.  Structurally zero in this simulator (handlers
      run inline at the check timestamp) but kept in the partition so
      the schema survives a deferred-dispatch model.

    {2 Conservation contract}

    For every late fire, [sum_(k) segs.(k) = fire_at - due] {e
    exactly}: the attribution cursor starts at [due] and each span is
    attributed to exactly one segment (split at the first skipping
    check).  A runtime check re-verifies the sum on every late fire;
    {!violations} counts failures (asserted zero by the qcheck property
    in [test/test_obs.ml]).  See DESIGN.md §8.6. *)

type t

val nseg : int
(** Number of partition segments (10). *)

val seg_idle : int
val seg_other : int
val seg_check_skipped : int

val klass_label : int -> string
(** [0..5] are the {!Cpu} work classes ([intr], [softintr], [kernel],
    [user], [background], [timer]); [6] is [idle]; anything else is
    [other].  Mirrors [Cpu.klass_name] (lib/obs cannot depend on
    lib/machine). *)

val seg_label : int -> string
(** Short label for segment [k]: ["gap.<klass>"] for [0..7],
    ["check-skipped"], ["batch-queue"]. *)

val create : ?worst:int -> unit -> t
(** A fresh audit.  [worst] (default 10) bounds the exemplar table. *)

val on_event : t -> at:Time_ns.t -> Trace.event -> unit
(** Feed one event.  Suitable as a live {!Trace.set_tap} (the audit
    never emits trace events) or for manual replay.  Events must arrive
    in stream order. *)

val collect : ?worst:int -> Trace.t -> t
(** Replay a recorded trace oldest-first through a fresh audit.  A
    [sim.start] mark resets matching state and counts still-pending
    timers as abandoned (reported via {!pending_at_exit}). *)

(** {2 Results} *)

val fired : t -> int
val ontime : t -> int
val late : t -> int

val untracked : t -> int
(** Fires whose [Soft_sched] was lost (ring overflow / partial trace). *)

val violations : t -> int
(** Late fires whose segments did not sum to the delay.  Always 0
    unless the event stream itself violates its ordering contract. *)

val pending_at_exit : t -> int
(** Timers scheduled but never fired nor cancelled within the trace,
    including those abandoned at a [sim.start] reset.  The
    never-closed spans of {!Span}. *)

val cause_ns : t -> int -> int64
(** Total nanoseconds attributed to segment [k] over all late fires. *)

val total_late_ns : t -> int64

type exemplar = {
  x_id : int;
  x_due : Time_ns.t;
  x_fire : Time_ns.t;
  x_delay : Time_ns.span;
  x_end_trigger : string;
      (** trigger state whose check finally dispatched it (paper §4.1) *)
  x_batch_pos : int;  (** 1-based position among that check's fires *)
  x_checks : int;  (** checks that scanned but skipped this timer *)
  x_first_check : Time_ns.t option;
  x_segs : int64 array;  (** length {!nseg}; sums to [x_delay] *)
}

val exemplars : t -> exemplar list
(** Worst fires, descending by (delay, then ascending id); at most
    [worst]. *)

val trigger_rows : t -> (string * int * int64 * int64 array) list
(** Per ending-trigger-state aggregation, sorted by name:
    [(trigger, late_fires, total_delay_ns, seg_totals)]. *)

(** {2 Renderers} *)

val to_text : t -> string
(** Human-readable report: summary counts, cause-breakdown table,
    ending-trigger cross-tab, worst-N exemplars with causal chains. *)

val to_json : t -> string
(** Single-line JSON, schema ["softtimers-whylate/1"]. *)
