(** Pooled struct-of-arrays arena of paced transfer sessions.

    One {!Paced_sender} (or {!Sender}) per connection is a boxed record
    plus closures; a million-flow pacing fleet keeps session state in
    parallel unboxed [int] arrays instead and names sessions by dense
    integer id.  Released slots go on a freelist and are reused, so a
    steady churn of short transfers neither grows the arena nor
    allocates.

    The arena tracks transfer progress only (segments to send, segments
    sent); rate state lives in {!Rate_clock.Pool} and wire packets in
    {!Packet.Pool}.  {!Paced_sender.Fleet} wires the three together. *)

type t

val create : ?initial:int -> unit -> t
(** [initial] (default 64) is the starting slot capacity; the arena
    doubles as needed.  @raise Invalid_argument if [initial < 1]. *)

val acquire : t -> total_segments:int -> int
(** Open a session; returns its id (freelist slot if one is parked,
    else a fresh one).  Pass [max_int] for an unbounded (long-running
    pacing) session.  @raise Invalid_argument if [total_segments < 0]. *)

val release : t -> int -> unit
(** Close a session and park its slot for reuse.  The id must not be
    used afterwards.  @raise Invalid_argument on double release. *)

val on_send : t -> int -> bool
(** Record one segment leaving the session.  Returns [false] — and
    records nothing — when the session is complete or released, i.e.
    exactly the "nothing pending" signal a rate clock's [send] callback
    reports to end its train.  Pure int-array state; safe inside the
    per-fire hot path. *)

val note_sends : t -> int -> int -> unit
(** [note_sends t sid k] settles [k] segments in one batch (clamped to
    the session total; no-op on a released session) — for callers that
    count per-send elsewhere and batch the arena bookkeeping, as
    {!Paced_sender.Fleet} does at transfer completion.
    @raise Invalid_argument if [k < 0]. *)

val complete : t -> int -> bool
(** The session sent all its segments (and is still live). *)

val live_session : t -> int -> bool
val sent : t -> int -> int
val total : t -> int -> int
val remaining : t -> int -> int

val live : t -> int
(** Sessions currently open. *)

val slots : t -> int
(** High-water slot count (arena rows ever used). *)

val sends : t -> int
val completed : t -> int
