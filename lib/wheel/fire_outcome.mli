(** Packed [(scanned, fired)] result of a [fire_due] call.

    Every timer-store and wheel-backend [fire_due] returns one of
    these: [scanned] is the number of due pending entries collected
    into the dispatch batch at call time, [fired] how many callbacks
    actually ran.  [fired < scanned] when the caller's [~limit] (the
    facility check budget) withheld entries — those are re-inserted
    with their deadline and sequence number preserved — or when an
    earlier callback in the batch cancelled a later entry (dispatch
    recheck).  Packed into one immediate int ([scanned lsl 31 lor
    fired]) so hot paths return both without allocating. *)

type t = int

val pack : scanned:int -> fired:int -> t
val scanned : t -> int
val fired : t -> int

(** {2 The [now] clause}

    Every [fire_due] rejects a [now] earlier than the [now] of its
    previous call.  {!Timer_store.Time_went_backwards} re-exports this
    exception. *)

exception Time_went_backwards of { previous : int; now : int }
(** [previous] and [now] are the two calls' [now]s in integer
    nanoseconds. *)

val checked_now : previous:int -> int -> int
(** [checked_now ~previous now] is [now], the value a store keeps for
    its next call's check.  [previous] is the previous call's value;
    before the first call it is a floor, [min_int] (the lawn store
    passes its duration origin, time zero, instead).
    @raise Time_went_backwards if [now < previous]. *)
