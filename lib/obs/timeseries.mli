(** Windowed time-series aggregation of the trace event stream.

    A collector turns the flat trace event stream into per-window
    aggregates over {e simulated} time: counter deltas (timers
    scheduled/fired/cancelled, packets tx/rx/dropped, polls, IRQs, ...),
    gauge last-writes (NIC queue length) and a constant-memory {!Hdr}
    of soft-timer fire delays per window.

    Install it as the synchronous trace tap:
    {[ Trace.set_tap (Some (Timeseries.on_event ts)) ]}
    It then sees every event in emission order — including events
    replayed by [Trace.absorb] when the parallel runner merges worker
    rings in job order — so the resulting series is byte-identical at
    every [--jobs] value.

    Closed windows are kept in a bounded ring (oldest evicted first,
    evictions counted), so memory is constant for arbitrarily long runs.
    Simulated time jumping backwards (a second experiment cell, or the
    next absorbed run) closes the current window and starts a new
    {e epoch}; windows of different simulations never merge. *)

type t

val create : ?window:Time_ns.span -> ?max_windows:int -> unit -> t
(** A fresh collector.  [window] (default 1 ms) is the aggregation
    window width in simulated time; [max_windows] (default 4096) bounds
    the retained closed windows.
    @raise Invalid_argument if [window] is not positive or
    [max_windows] is not positive. *)

val on_event : t -> at:Time_ns.t -> Trace.event -> unit
(** Feed one event; O(1).  Suitable directly as a [Trace.set_tap]
    argument. *)

val close : t -> unit
(** Close the in-progress window (if any) so it appears in
    {!snapshots}.  Call once after the run completes. *)

val epochs : t -> int
(** Number of distinct simulations observed (at least 1). *)

val evicted_windows : t -> int
(** Closed windows dropped because the ring was full. *)

val event_count : t -> int
(** Total events fed via {!on_event}. *)

val overall_delay : t -> Hdr.t
(** Fire-delay distribution across the whole run (all windows). *)

(** {2 Reading} *)

type snapshot = {
  s_epoch : int;
  s_index : int;  (** window number within its epoch *)
  s_start_us : float;  (** window start in simulated microseconds *)
  s_triggers : int;
  s_sched : int;
  s_fired : int;
  s_cancelled : int;
  s_polls : int;
  s_poll_found : int;
  s_rbc_sends : int;
  s_pkt_enqueued : int;
  s_pkt_tx : int;
  s_pkt_rx_batches : int;
  s_pkt_rx_pkts : int;
  s_pkt_drop : int;
  s_irqs : int;
  s_irq_us : float;  (** total IRQ handler time in the window *)
  s_cpu_wakeups : int;  (** idle->busy transitions *)
  s_qlen_last : int option;  (** last NIC queue length seen, if any *)
  s_delay_count : int;
  s_delay_p50_us : float;  (** [nan] when the window saw no firings *)
  s_delay_p99_us : float;
  s_delay_max_us : float;
}

val snapshots : t -> snapshot list
(** Retained windows in (epoch, index) order, including the still-open
    window if {!close} has not been called.  Windows with no events are
    absent (the series is sparse). *)

(** {2 Exporter} *)

val to_json : t -> string
(** JSON array of window objects (same fields as {!snapshot}; [nan]
    quantiles render as [null]). *)
