(* Windowed aggregation of the trace event stream over simulated time.

   A collector is installed as the synchronous trace tap
   ([Trace.set_tap (Some (on_event ts))]) so it sees every emitted
   event whether or not a ring buffer is also installed — including
   events replayed by [Trace.absorb] when the parallel runner merges
   per-worker rings in job order, which is what keeps the series
   byte-identical at every --jobs value.

   Windows are keyed by simulated time ([at / window]); closed windows
   live in a bounded ring (oldest evicted first, evictions counted) so
   memory stays constant no matter how long the run.  A fresh
   simulation starting inside the same process (several experiment
   cells in one run, or absorbed worker rings) shows up as simulated
   time jumping backwards; the collector closes the current window and
   opens a new [epoch], so windows of different simulations never
   merge. *)

type window = {
  epoch : int;
  index : int;  (* window number: start time = index * window *)
  mutable triggers : int;
  mutable sched : int;
  mutable fired : int;
  mutable cancelled : int;
  mutable polls : int;
  mutable poll_found : int;
  mutable rbc_sends : int;
  mutable pkt_enqueued : int;
  mutable pkt_tx : int;
  mutable pkt_rx_batches : int;
  mutable pkt_rx_pkts : int;
  mutable pkt_drop : int;
  mutable irqs : int;
  mutable irq_ns : int64;
  mutable cpu_wakeups : int;
  mutable qlen_last : int;  (* gauge last-write; -1 until first seen *)
  delay : Hdr.t;  (* soft-timer fire delays observed in this window, us *)
}

type t = {
  window : Time_ns.span;
  max_windows : int;
  ring : window array;  (* closed windows; slot [head] is the oldest *)
  mutable head : int;
  mutable len : int;
  mutable evicted : int;
  mutable cur : window option;
  mutable epoch : int;
  mutable last_at : Time_ns.t;
  overall_delay : Hdr.t;  (* all fire delays, across every window *)
  mutable events : int;
}

let fresh_window ~epoch ~index =
  {
    epoch;
    index;
    triggers = 0;
    sched = 0;
    fired = 0;
    cancelled = 0;
    polls = 0;
    poll_found = 0;
    rbc_sends = 0;
    pkt_enqueued = 0;
    pkt_tx = 0;
    pkt_rx_batches = 0;
    pkt_rx_pkts = 0;
    pkt_drop = 0;
    irqs = 0;
    irq_ns = 0L;
    cpu_wakeups = 0;
    qlen_last = -1;
    delay = Hdr.create ();
  }

let create ?(window = Time_ns.of_us 1000.0) ?(max_windows = 4096) () =
  if Int64.compare (Time_ns.to_ns window) 0L <= 0 then
    invalid_arg "Timeseries.create: window must be positive";
  if max_windows <= 0 then invalid_arg "Timeseries.create: max_windows must be positive";
  let dummy = fresh_window ~epoch:0 ~index:0 in
  {
    window;
    max_windows;
    ring = Array.make max_windows dummy;
    head = 0;
    len = 0;
    evicted = 0;
    cur = None;
    epoch = 0;
    last_at = Time_ns.zero;
    overall_delay = Hdr.create ();
    events = 0;
  }

let epochs t = t.epoch + 1
let evicted_windows t = t.evicted
let event_count t = t.events
let overall_delay t = t.overall_delay

let push_closed t w =
  if t.len = t.max_windows then begin
    t.ring.(t.head) <- w;
    t.head <- (t.head + 1) mod t.max_windows;
    t.evicted <- t.evicted + 1
  end
  else begin
    t.ring.((t.head + t.len) mod t.max_windows) <- w;
    t.len <- t.len + 1
  end

let close t =
  match t.cur with
  | None -> ()
  | Some w ->
    push_closed t w;
    t.cur <- None

let current_window t ~at =
  (match t.cur with
  | Some _ when Time_ns.(at < t.last_at) ->
    (* Simulated time went backwards: a fresh simulation begins. *)
    close t;
    t.epoch <- t.epoch + 1
  | None when t.len > 0 && Time_ns.(at < t.last_at) -> t.epoch <- t.epoch + 1
  | _ -> ());
  let index = Int64.to_int (Int64.div at t.window) in
  match t.cur with
  | Some w when w.index = index -> w
  | Some w ->
    if w.index < index then begin
      close t;
      let w' = fresh_window ~epoch:t.epoch ~index in
      t.cur <- Some w';
      w'
    end
    else w (* same-instant reordering inside an absorb; keep the window *)
  | None ->
    let w = fresh_window ~epoch:t.epoch ~index in
    t.cur <- Some w;
    w

let on_event t ~at (ev : Trace.event) =
  t.events <- t.events + 1;
  let w = current_window t ~at in
  t.last_at <- at;
  (match ev with
  | Trace.Trigger _ -> w.triggers <- w.triggers + 1
  | Trace.Soft_sched _ -> w.sched <- w.sched + 1
  | Trace.Soft_fire { delay; _ } ->
    w.fired <- w.fired + 1;
    let us = Time_ns.to_us delay in
    Hdr.record w.delay us;
    Hdr.record t.overall_delay us
  | Trace.Soft_cancel _ -> w.cancelled <- w.cancelled + 1
  (* Forensics-only events: the audit consumes them; the per-window
     counters deliberately ignore them so stats output stays stable. *)
  | Trace.Soft_check _ -> ()
  | Trace.Cpu_run _ -> ()
  | Trace.Irq { dur; _ } ->
    w.irqs <- w.irqs + 1;
    w.irq_ns <- Int64.add w.irq_ns (Time_ns.to_ns dur)
  | Trace.Irq_raised _ | Trace.Irq_lost _ -> ()
  | Trace.Cpu_busy _ -> w.cpu_wakeups <- w.cpu_wakeups + 1
  | Trace.Cpu_idle _ -> ()
  | Trace.Pkt_enqueue { qlen; _ } ->
    w.pkt_enqueued <- w.pkt_enqueued + 1;
    w.qlen_last <- qlen
  | Trace.Pkt_tx _ -> w.pkt_tx <- w.pkt_tx + 1
  | Trace.Pkt_rx { batch; _ } ->
    w.pkt_rx_batches <- w.pkt_rx_batches + 1;
    w.pkt_rx_pkts <- w.pkt_rx_pkts + batch
  | Trace.Pkt_drop _ -> w.pkt_drop <- w.pkt_drop + 1
  | Trace.Poll { found } ->
    w.polls <- w.polls + 1;
    w.poll_found <- w.poll_found + found
  | Trace.Rbc_send -> w.rbc_sends <- w.rbc_sends + 1
  | Trace.Mark _ -> ())

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

type snapshot = {
  s_epoch : int;
  s_index : int;
  s_start_us : float;
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
  s_irq_us : float;
  s_cpu_wakeups : int;
  s_qlen_last : int option;
  s_delay_count : int;
  s_delay_p50_us : float;  (* nan when the window saw no firings *)
  s_delay_p99_us : float;
  s_delay_max_us : float;
}

let snapshot_of t (w : window) =
  let window_us = Time_ns.to_us t.window in
  {
    s_epoch = w.epoch;
    s_index = w.index;
    s_start_us = float_of_int w.index *. window_us;
    s_triggers = w.triggers;
    s_sched = w.sched;
    s_fired = w.fired;
    s_cancelled = w.cancelled;
    s_polls = w.polls;
    s_poll_found = w.poll_found;
    s_rbc_sends = w.rbc_sends;
    s_pkt_enqueued = w.pkt_enqueued;
    s_pkt_tx = w.pkt_tx;
    s_pkt_rx_batches = w.pkt_rx_batches;
    s_pkt_rx_pkts = w.pkt_rx_pkts;
    s_pkt_drop = w.pkt_drop;
    s_irqs = w.irqs;
    s_irq_us = Int64.to_float w.irq_ns /. 1e3;
    s_cpu_wakeups = w.cpu_wakeups;
    s_qlen_last = (if w.qlen_last < 0 then None else Some w.qlen_last);
    s_delay_count = Hdr.count w.delay;
    s_delay_p50_us = Hdr.quantile w.delay 0.5;
    s_delay_p99_us = Hdr.quantile w.delay 0.99;
    s_delay_max_us = Hdr.max w.delay;
  }

let snapshots t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := snapshot_of t t.ring.((t.head + i) mod t.max_windows) :: !acc
  done;
  (match t.cur with Some w -> acc := !acc @ [ snapshot_of t w ] | None -> ());
  !acc

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let jnum v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v

let json_of_snapshot s =
  Printf.sprintf
    "{\"epoch\":%d,\"index\":%d,\"start_us\":%s,\"triggers\":%d,\"sched\":%d,\"fired\":%d,\"cancelled\":%d,\"polls\":%d,\"poll_found\":%d,\"rbc_sends\":%d,\"pkt_enqueued\":%d,\"pkt_tx\":%d,\"pkt_rx_batches\":%d,\"pkt_rx_pkts\":%d,\"pkt_drop\":%d,\"irqs\":%d,\"irq_us\":%s,\"cpu_wakeups\":%d,\"qlen_last\":%s,\"delay_count\":%d,\"delay_p50_us\":%s,\"delay_p99_us\":%s,\"delay_max_us\":%s}"
    s.s_epoch s.s_index (jnum s.s_start_us) s.s_triggers s.s_sched s.s_fired s.s_cancelled
    s.s_polls s.s_poll_found s.s_rbc_sends s.s_pkt_enqueued s.s_pkt_tx s.s_pkt_rx_batches
    s.s_pkt_rx_pkts s.s_pkt_drop s.s_irqs (jnum s.s_irq_us) s.s_cpu_wakeups
    (match s.s_qlen_last with None -> "null" | Some q -> string_of_int q)
    s.s_delay_count (jnum s.s_delay_p50_us) (jnum s.s_delay_p99_us)
    (jnum s.s_delay_max_us)

let to_json t =
  "[" ^ String.concat "," (List.map json_of_snapshot (snapshots t)) ^ "]"
