(** Hashed timing wheel (Varghese & Lauck, SOSP'87).

    The soft-timer facility keeps its pending events in "a modified form
    of timing wheels" (paper, footnote 2): scheduling and cancellation
    must be O(1), and the per-trigger-state check must find the earliest
    pending deadline in O(1) in the common case.

    Deadlines are bucketed into [slots] circular slots of [tick]
    duration each; an entry due at absolute time [d] lives in slot
    [(d / tick) mod slots] and carries its exact deadline, so entries
    more than one rotation away are simply skipped when their slot is
    swept.  The slots are the head-linked chains of a {!Wheel_core}
    over {!Slab} rows, whose occupancy bitmap lets sweeps and the
    minimum search skip empty slots; handles are immediate ints, so a
    schedule allocates nothing.  What this module adds is the hashed
    policy: which slot a deadline hashes to, the sweep horizon, which
    slots a sweep gathers, and a remembered minimum row that is
    forgotten only when the minimum could have changed, so the
    earliest-deadline query is usually one row read.  Due rows fire
    through the core's snapshot batch.

    The full {!Store_sig.S} contract (re-arm, stable handles, snapshot
    batches, budgets, raise safety) holds, with exact deadlines over
    [0, max_int]; [create] uses 256 slots, and [Timer_store.wheel
    ?slots ()] packs a wheel of another size as the production store. *)

include Store_sig.S

val create_sized : slots:int -> tick:int -> unit -> 'a t
(** [create] with [slots] slots.
    @raise Invalid_argument if [tick <= 0] or [slots <= 0]. *)
