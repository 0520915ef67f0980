(** Soft-timer network polling (paper §4.2, §5.9).

    Instead of letting the network interfaces interrupt, a soft-timer
    event periodically polls them; packets found are processed as one
    batch, improving memory locality, and interrupt costs disappear.
    The poll interval is adapted so that on average a target number of
    packets — the {e aggregation quota} — is found per poll.

    The poller is decoupled from the NIC type: it drives a [poll]
    closure that drains the interfaces and returns the number of packets
    found.  (Switching the NICs to {!Nic.Polled} mode, and the idle-time
    fall-back to interrupts, is the caller's wiring; see
    {!Workloads.Webserver}.) *)

type t

val create :
  Softtimer.t ->
  quota:float ->
  poll:(int -> int) ->
  ?min_interval:Time_ns.span ->
  ?max_interval:Time_ns.span ->
  ?initial_interval:Time_ns.span ->
  unit ->
  t
(** [poll now] receives the instant in integer nanoseconds.  [quota]
    is the target mean packets-per-poll (the paper evaluates 1,
    2, 5, 10, 15).  The interval is bounded to
    [[min_interval, max_interval]] (defaults 10 us and 1 ms — the
    backup-clock granularity).  [initial_interval] defaults to 50 us.
    @raise Invalid_argument if [quota <= 0]. *)

val start : t -> unit
val stop : t -> unit

val current_interval : t -> Time_ns.span
val polls : t -> int

val mean_batch : t -> float
(** Mean packets found per poll so far. *)
