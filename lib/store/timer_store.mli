(** The pluggable pending-timer store: schedule, cancel, the
    earliest-deadline query and batched expiry, plus {e re-arm} (dynamic
    deadline update) and stable per-entry handles.

    The soft-timer clients that matter — TCP retransmit and delayed-ACK
    timers — re-arm far more often than they fire: every ACK pushes the
    retransmit deadline out.  A store signature without re-arm forces
    cancel + schedule through the public API, which both loses the O(1)
    in-place-update opportunity of modern stores (the wheels relink the
    entry's own slab row, Lawn moves it between per-duration buckets)
    and invalidates the caller's handle.  [Timer_store.S] makes re-arm
    first-class: handles survive any number of re-arms.

    {2 Semantics}

    All implementations share one contract, enforced by the cross-backend
    equivalence suite in [test/test_store.ml]:

    - [schedule] assigns each entry a fresh, monotonically increasing tie
      position; expiry order is (deadline, tie position).
    - [rearm t h ~at] behaves exactly like [cancel t h] followed by
      [schedule t ~at] of the same value — new deadline, {e fresh} tie
      position — except that [h] remains valid.  Returns [false] (and
      does nothing) when the entry already fired or was cancelled.
    - [fire_due t ~now ~limit f] dispatches the {e snapshot} of pending
      entries with deadline [<= now] at call time, in (deadline, tie)
      order.  Entries scheduled or re-armed by callbacks during the call
      are never dispatched in the same call, even if already due.  Each
      entry's state is re-checked immediately before its callback runs:
      an entry cancelled or re-armed by an earlier callback in the same
      batch is skipped.  At most [limit] callbacks run ([max_int] for no
      budget); withheld entries keep their deadline and tie position, so
      the next call dispatches the remainder in the same order, and
      recheck-skips do not consume the budget.  Returns the packed batch
      size and callback count ({!Fire_outcome}); [Fire_outcome.scanned]
      counts the whole due batch, withheld entries included.  [fire_due]
      must not be called from within a callback.
    - A callback that raises ends the batch: its own entry counts as
      fired, the undispatched rest of the snapshot is withheld exactly
      as an exhausted budget would withhold it (deadline and tie
      position kept, still pending), and only then does the exception
      propagate out of [fire_due].  The next call dispatches the
      remainder in the same (deadline, tie) order.
    - [resident] (entries physically held, including any lazily-cancelled
      corpses) is within [2 * max (pending t) floor], for a small
      per-store constant [floor], right after a [schedule] or [rearm] —
      no store leaks cancelled entries.  A run of cancels (or fires)
      lowers [pending] without reclaiming corpses, so the bound can be
      exceeded until the next [schedule] or [rearm].
    - Deadlines must be non-negative and [now] must not go backwards
      across [fire_due] calls: every store's [fire_due] raises
      {!Time_went_backwards}, before it touches any entry, when [now]
      is earlier than the previous call's.
    - Time is integer nanoseconds: deadlines are ints from 0 to [max_int]
      (2^62 - 1 ns, about 146 years) and [now] is an int.
      An exact store reports each deadline as scheduled
      ([handle_deadline], [next_deadline], the callback's argument);
      an approximate store reports it rounded up to its tick
      ({!round_up}), saturating at [max_int], so no entry fires before
      its deadline.  [next_deadline] is [max_int] when nothing is
      pending, the same value an entry at [max_int] reports: both mean
      nothing is due before the end of time.  A boxed [Time_ns.t]
      enters a store through [Time_ns.to_int], which saturates rather
      than wraps.
    - [now] may be any int up to [max_int]: a [fire_due] at
      [max_int - 1] fires exactly the entries reported at most
      [max_int - 1], lone or batched, and one at [max_int] fires the
      rest, after which every call's [now] is [max_int]. *)

exception Time_went_backwards of { previous : int; now : int }
(** Raised by [fire_due] on a [now] earlier than the previous call's
    [now] on the same store, both in integer nanoseconds.  Declared
    outside {!S} so that every store signature keeps its shape; it is
    {!Fire_outcome.Time_went_backwards}. *)

module type S = Store_sig.S
(** Declared beside the wheels that implement it. *)

module Reference : S
(** Naive model: an unordered list, linear everything.  The oracle the
    equivalence suite compares every real store against. *)

val wheel : ?slots:int -> unit -> (module S)
(** The production {!Timing_wheel} with [slots] slots (default 512). *)

val round_up : tick:int -> int -> int
(** [round_up ~tick d] is [d] rounded up to a multiple of [tick > 0]
    ns, the rounding of {!Quantize} and {!Pacing_wheel}.  It saturates
    rather than overflows: [max_int] when the multiple would pass
    [max_int]. *)

module Quantize (_ : S) : S
(** The approximate-firing contract extension (§7.2): the wrapped store
    with every deadline rounded {e up} to the [tick] granularity at
    schedule / re-arm time.  All other contract clauses are unchanged —
    tie positions, snapshot batches, budgets, residency.  An
    approximate store such as {!Pacing_wheel} must be observationally
    identical to [Quantize (Reference)]; rounding up means entries
    never fire before their requested deadline. *)
