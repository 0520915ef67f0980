(** Runtime invariant sanitizer.

    The static lint (tools/lint) keeps non-determinism out of the
    source; this module checks, during a run, that the simulation's
    *semantic* invariants hold.  It consumes the observability stream
    through {!Trace.set_tap} — no subsystem needs sanitizer-specific
    instrumentation — and polls the {!Metrics} registry on a sampled
    cadence, so arming it (the CLI's [--sanitize] flag) costs one extra
    closure call per trace event.

    Invariants checked:

    - {b CAUSALITY}: event timestamps never move backwards within one
      simulation.  A [Mark sim_start_mark] record (emitted by
      [Machine.create] / [Session.run_transfer]) declares a fresh
      simulation and resets the clock.
    - {b EARLY_FIRE}: a soft timer never fires before its deadline
      (paper §3: an event scheduled [T] ticks ahead fires after {e more}
      than [T] ticks).
    - {b OVERDUE}: a soft timer fires at most [overdue_periods] backup
      hard-clock periods, plus the longest interrupt dispatch observed
      so far, after its deadline (the paper's [T + X + 1] bound, with
      one extra period of slack for a latch-lost backup tick).
    - {b WHEEL_RESIDENCY}: the store's physically resident entry count
      stays within [2 * max pending slots] (the cancel-churn bound of
      [Timer_store.S]; the default wheel keeps resident = pending, see
      {!Timing_wheel.resident}); read from the [softtimer.wheel_*]
      metrics probes on the counter cadence.
    - {b COUNTER_MONOTONE}: every metrics counter (the sum of its
      registered cells) is non-negative and never decreases (checked
      every [counter_check_every] events).

    Violations are collected into a report; with [fail_fast] (the mode
    tests use) the first violation raises {!Violation} instead. *)

type rule = Causality | Early_fire | Overdue | Residency | Counter_monotone

val rule_name : rule -> string
(** Stable machine-readable names: CAUSALITY, EARLY_FIRE, OVERDUE,
    WHEEL_RESIDENCY, COUNTER_MONOTONE. *)

type violation = { at : Time_ns.t; rule : rule; detail : string }

exception Violation of violation

type t

val create :
  ?fail_fast:bool ->
  ?hard_clock_hz:float ->
  ?overdue_periods:float ->
  ?counter_check_every:int ->
  ?max_reported:int ->
  ?registry:Metrics.t ->
  unit ->
  t
(** [fail_fast] (default [false]) raises on the first violation.
    [hard_clock_hz] (default 1000., the Pentium-II profile's backup
    clock) and [overdue_periods] (default 2.) parameterise the OVERDUE
    bound.  [counter_check_every] (default 4096) is the registry-scan
    cadence in trace events, and [registry] the {!Metrics} context a
    scan reads (default: the scanning domain's {!Metrics.current}).
    [max_reported] (default 32) bounds stored violations; the total
    count keeps counting past it.
    @raise Invalid_argument on non-positive parameters. *)

val install : t -> unit
(** Arm the sanitizer: becomes the process-wide trace tap (replacing any
    previous one) and sees every event until {!uninstall}. *)

val uninstall : t -> unit
(** Remove the process-wide tap, then run a final registry scan so
    counter/residency regressions near the end of a run are not
    missed.  No-op if this sanitizer was never installed. *)

val observe : t -> at:Time_ns.t -> Trace.event -> unit
(** Feed one event by hand — what the tap does internally; exposed so
    tests can inject invariant-violating histories (e.g. a fire before
    its deadline) without building a machine. *)

val check_wheel : t -> at:Time_ns.t -> resident:int -> pending:int -> slots:int -> unit
(** Assert the wheel-residency bound on explicit figures (tests, or
    wheels not registered in the metrics registry). *)

val scan_registry : t -> at:Time_ns.t -> unit
(** Force a counter/residency scan now instead of waiting for the
    cadence. *)

val violation_count : t -> int
val violations : t -> violation list
(** Oldest first; at most [max_reported] entries. *)

val ok : t -> bool
(** [violation_count t = 0]. *)

val events_seen : t -> int

val report : t -> string
(** Human-readable summary (one line per stored violation, plus
    totals); ends in a newline. *)
