(** The pending-timer store signature, declared once.  {!Timer_store.S}
    is this signature; {!Timer_store} states the contract every
    implementation shares, and both wheels ({!Timing_wheel},
    {!Pacing_wheel}) implement it. *)

module type S = sig
  type 'a t

  type 'a handle
  (** Stable identity of a scheduled entry; survives re-arms. *)

  val name : string

  val create : tick:int -> unit -> 'a t
  (** [tick] (ns) is the finest scheduling granularity (used by
      wheel-shaped stores; others ignore it). *)

  val schedule : 'a t -> at:int -> 'a -> 'a handle

  val schedule_i : 'a t -> at_i:int -> 'a -> 'a handle
  (** [schedule] under its old name: [schedule_i t ~at_i] is
      [schedule t ~at:at_i]. *)

  val cancel : 'a t -> 'a handle -> unit
  (** No-op on an already-cancelled or fired entry. *)

  val rearm : 'a t -> 'a handle -> at:int -> bool
  (** Move a pending entry to a new deadline, equivalent to
      cancel + schedule (fresh tie position) but keeping the handle
      valid.  [false] when the entry is no longer pending. *)

  val pending : 'a t -> int

  val resident : 'a t -> int
  (** Entries physically held, including lazily-cancelled corpses. *)

  val next_deadline : 'a t -> int
  (** Earliest pending deadline (as reported, see the semantics), or
      [max_int] when nothing is pending. *)

  val words : 'a t -> int
  (** Analytic estimate of the store's own heap footprint in 64-bit
      words — records, handles, backing arrays — but
      {e not} the payload values it borrows.  O(resident) worst case,
      O(1) for the array-backed stores.  Cross-checked against
      [Obj.reachable_words] (with immediate payloads) in
      [test/test_mem.ml]; the memory observatory reports words/timer
      and words/flow from it. *)

  val handle_pending : 'a t -> 'a handle -> bool
  val handle_deadline : 'a t -> 'a handle -> int

  val fire_due :
    'a t ->
    ?prefetch:('a -> unit) ->
    now:int ->
    limit:int ->
    (int -> 'a -> unit) ->
    Fire_outcome.t
  (** Fires the due snapshot ({!Timer_store}'s contract) for any [now]
      up to [max_int]: within one tick of the end of time, as elsewhere,
      an entry fires once its reported deadline is at most [now],
      whether it is {!Timing_wheel}'s lone due entry or in a batch.

      [?prefetch] is a memory-warming hint, not a semantic hook: a store
      {e may} call it with the payload of an entry it expects to dispatch
      a few iterations from now, so the callback's state (e.g. a
      flow-id-indexed row in {!Rate_clock.Pool}) is in cache by the time
      the real callback runs.  It may be called with payloads of entries
      that turn out to be cancelled, re-armed, or budget-withheld — it
      must be a pure touch with no observable effect.  Stores are free to
      ignore it; only batch-shaped dispatchers (the pacing wheel) use it. *)
end
