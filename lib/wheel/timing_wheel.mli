(** Hashed timing wheel (Varghese & Lauck, SOSP'87).

    The soft-timer facility keeps its pending events in "a modified form
    of timing wheels" (paper, footnote 2): scheduling and cancellation
    must be O(1), and the per-trigger-state check must find the earliest
    pending deadline in O(1) in the common case.

    Deadlines are bucketed into [slots] circular slots of [tick]
    duration each; an entry due at absolute time [d] lives in slot
    [(d / tick) mod slots] and carries its exact deadline, so entries
    more than one rotation away are simply skipped when their slot is
    swept.  Entries are rows of a {!Slab}, chained per slot; an
    occupancy bitmap over the slots lets sweeps and the minimum search
    skip empty ones, and handles are immediate ints, so a schedule
    allocates nothing.  The earliest-deadline query reads a remembered
    minimum row that is forgotten only when the minimum could have
    changed.  Deadlines and [now] are integer nanoseconds, as
    [Timer_store.S] states them.

    The wheel is agnostic to what an event is: it stores values of an
    arbitrary payload type and hands them back on expiry.  It
    implements [Timer_store.S] natively (re-arm, stable handles,
    snapshot batches, budgets), except that [create] also takes the slot
    count; [Timer_store.wheel ?slots ()] fixes that count and packs the
    wheel as the production store. *)

val name : string
(** ["wheel"]. *)

type 'a t

type 'a handle
(** Identifies a scheduled entry; stays valid across re-arms.  Once the
    entry fires or is cancelled the handle is stale for good, even after
    its row holds another entry. *)

val create : ?slots:int -> tick:int -> unit -> 'a t
(** [create ~tick ()] builds an empty wheel whose slots each cover
    [tick] ns.  [slots] defaults to 256.
    @raise Invalid_argument if [tick <= 0] or [slots <= 0]. *)

val slots : 'a t -> int
val tick : 'a t -> int

val pending : 'a t -> int
(** Number of scheduled, uncancelled, unfired entries. *)

val resident : 'a t -> int
(** Entries physically held: always [pending t], since cancel and
    re-arm unlink at once and leave nothing behind. *)

val handle_deadline : 'a t -> 'a handle -> int
(** The absolute deadline a pending entry was last scheduled or
    re-armed for; [0] on a stale handle. *)

val handle_pending : 'a t -> 'a handle -> bool
(** Whether the entry is still scheduled (not cancelled, not fired). *)

val schedule : 'a t -> at:int -> 'a -> 'a handle
(** [schedule t ~at v] registers [v] to expire at absolute time [at]
    under a fresh tie position.  O(1); allocates nothing once the slab
    has room.  Deadlines are exact over [0, max_int]. *)

val schedule_i : 'a t -> at_i:int -> 'a -> 'a handle
(** [schedule], under its old name. *)

val cancel : 'a t -> 'a handle -> unit
(** Remove an entry.  Cancelling twice, after expiry, or through a
    stale handle is a no-op.  O(1). *)

val rearm : 'a t -> 'a handle -> at:int -> bool
(** Move a pending entry to deadline [at] under a fresh tie position,
    exactly like cancel + schedule of the same value, but the handle
    stays valid.  O(1).  [false] (and nothing happens) when the entry
    already fired or was cancelled. *)

val next_deadline : 'a t -> int
(** Earliest pending deadline, or [max_int] when the wheel is empty.
    This is the comparison the soft-timer facility performs at every
    trigger state; it costs one row read unless an expiry or the
    removal of the earliest entry made the minimum unknown, in which
    case the occupied slots are searched from the sweep horizon,
    nearest first.  Never allocates. *)

val fire_due :
  'a t ->
  ?prefetch:('a -> unit) ->
  now:int ->
  limit:int ->
  (int -> 'a -> unit) ->
  Fire_outcome.t
(** [fire_due t ~now ~limit f] removes every entry with deadline
    [<= now] and calls [f deadline value] on each, in deadline order
    (ties broken by tie position), invoking at most [limit] callbacks;
    entries beyond the budget are re-inserted with deadline and tie
    position preserved, so the next call dispatches them in the same
    order.  Returns the packed batch size and callback count
    ({!Fire_outcome}).  Handlers may schedule or re-arm entries,
    including to deadlines already due; those fire on the next call.
    Each entry's state is re-checked immediately before its callback
    runs, so a handler that cancels or re-arms a later same-batch entry
    suppresses its dispatch.  Due entries are gathered into an int
    array, sorted only when there are two or more; a call allocates
    nothing.  [prefetch] is ignored. *)

val iter_pending : 'a t -> (int -> 'a -> unit) -> unit
(** Visit every pending entry in unspecified order (for tests). *)

val words : 'a t -> int
(** Analytic estimate of the wheel's heap footprint in 64-bit words
    (excluding payloads): record, slot and bitmap arrays, the batch
    scratch array, and 8 words per row of slab capacity (6 row fields,
    the value and its free-stack entry).  O(1).  Cross-checked against
    [Obj.reachable_words] in tests. *)
