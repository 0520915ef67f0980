(** Rate-based clocking with a conventional hardware interrupt timer —
    the baseline the paper compares soft timers against (§5.6, §5.7).

    A periodic hardware timer is programmed at the target transmission
    interval; every delivered tick dispatches a BSD software interrupt
    that transmits one pending packet.  Each tick pays the full
    interrupt cost (state save/restore + cache/TLB pollution), and ticks
    that arrive while the previous one is still unserviced — interrupts
    disabled, long critical sections — are lost, which is why the
    measured average interval falls short of the programmed rate
    (Tables 4 and 5: 43.6 us at a 40 us target). *)

type t

val create :
  Machine.t ->
  interval:Time_ns.span ->
  send:(int -> bool) ->
  ?dispatch_work_us:float ->
  unit ->
  t
(** [send now] transmits one pending packet at [now] (integer
    nanoseconds); [false] = nothing pending, the tick is then idle but
    still paid for.  [dispatch_work_us] is the
    software-interrupt dispatch cost per tick (default 1.2). *)

val start : t -> unit
(** Start the tick: the first fires one interval from now.  The tick is
    one engine timer (kind ["hw_pacer.tick"]), re-armed at each tick. *)

val stop : t -> unit
(** Disarm the tick; a later {!start} begins a fresh interval. *)

val sends : t -> int
val ticks_raised : t -> int
val ticks_lost : t -> int

val intervals : t -> Hdr.t
(** Inter-transmission gaps in microseconds (constant-memory
    histogram). *)
