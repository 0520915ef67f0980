(* Tests for the observability layer (lib/obs): the trace ring buffer,
   the metrics registry, and the exporters. *)

let us = Time_ns.of_us
let ius x = Time_ns.to_int (us x)

(* ------------------------------------------------------------------ *)
(* Trace ring buffer. *)

let with_trace ?capacity f =
  let tr = Trace.create ?capacity () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () -> f tr)

let event_names tr =
  List.map
    (fun { Trace.ev; _ } ->
      match ev with
      | Trace.Mark s -> s
      | Trace.Trigger k -> "trigger:" ^ k
      | _ -> "other")
    (Trace.to_list tr)

let test_trace_disabled_is_noop () =
  Alcotest.(check bool) "disabled at start" false (Trace.enabled ());
  (* Emitting with no sink installed must simply do nothing. *)
  Trace.mark ~at:0 "ignored";
  Trace.trigger ~at:0 "syscall";
  Alcotest.(check bool) "still disabled" false (Trace.enabled ())

let test_trace_basic () =
  with_trace (fun tr ->
      Alcotest.(check bool) "enabled" true (Trace.enabled ());
      Trace.mark ~at:(ius 1.0) "a";
      Trace.mark ~at:(ius 2.0) "b";
      Alcotest.(check int) "length" 2 (Trace.length tr);
      Alcotest.(check int) "dropped" 0 (Trace.dropped tr);
      Alcotest.(check (list string)) "oldest first" [ "a"; "b" ] (event_names tr);
      Trace.clear tr;
      Alcotest.(check int) "cleared" 0 (Trace.length tr));
  Alcotest.(check bool) "uninstalled after" false (Trace.enabled ())

let test_trace_wraparound () =
  with_trace ~capacity:4 (fun tr ->
      for i = 1 to 10 do
        Trace.mark ~at:(ius (float_of_int i)) (string_of_int i)
      done;
      Alcotest.(check int) "length capped" 4 (Trace.length tr);
      Alcotest.(check int) "dropped counts overwrites" 6 (Trace.dropped tr);
      Alcotest.(check int) "total" 10 (Trace.total tr);
      Alcotest.(check (list string)) "keeps the newest, oldest first" [ "7"; "8"; "9"; "10" ]
        (event_names tr))

let test_trace_invalid_capacity () =
  Alcotest.check_raises "capacity<=0"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 () : Trace.t))

(* ------------------------------------------------------------------ *)
(* Metrics registry. *)

let reading m name =
  let v = ref None in
  Metrics.iter m (fun n x -> if String.equal n name then v := Some x);
  !v

let count m name = match reading m name with Some (Metrics.Counter c) -> Some c | _ -> None
let probed m name = match reading m name with Some (Metrics.Probe p) -> Some p | _ -> None

let test_metrics_counters () =
  let m = Metrics.create () in
  (* Get-or-create: declaring a name twice yields the same counter, and
     the cells registered under it sum. *)
  let c = Metrics.cell m (Metrics.counter "a.b") in
  let c' = Metrics.cell m (Metrics.counter "a.b") in
  c := 42;
  incr c';
  Alcotest.(check (option int)) "cells sum by name" (Some 43) (count m "a.b");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"a.b\" is declared with another kind") (fun () ->
      ignore (Metrics.histogram "a.b" : Metrics.histogram))

let test_metrics_probes () =
  let m = Metrics.create () in
  Metrics.probe m "p" (fun () -> 7.0);
  ignore (Metrics.cell m (Metrics.counter "g") : int ref);
  let seen = ref [] in
  Metrics.iter m (fun name _ -> seen := name :: !seen);
  (* A free-standing registry lists only its own registrations. *)
  Alcotest.(check (list string)) "name-sorted iteration" [ "g"; "p" ] (List.rev !seen);
  Alcotest.(check (option (float 0.0))) "read at iteration" (Some 7.0) (probed m "p");
  Metrics.probe m "p" (fun () -> 11.0);
  Alcotest.(check (option (float 0.0))) "re-registration replaces" (Some 11.0) (probed m "p")

let test_metrics_reset_drops () =
  let m = Metrics.create () in
  let c = Metrics.cell m (Metrics.counter "c") in
  Hdr.record (Metrics.hdr m (Metrics.histogram "h")) 3.0;
  Metrics.probe m "p" (fun () -> 1.0);
  Metrics.reset m;
  Alcotest.(check string) "nothing registered" "" (Metrics.dump m);
  (* The component still owns its cell; it is just no longer read. *)
  incr c;
  Alcotest.(check (option int)) "unread after reset" None (count m "c");
  incr (Metrics.cell m (Metrics.counter "c"));
  Alcotest.(check (option int)) "a fresh registration is read" (Some 1) (count m "c")

(* A domain context lists every declared name, zero or empty where
   nothing registered it, so a dump has the same rows in every run. *)
let test_metrics_declared_rows () =
  let m = Metrics.current () in
  Metrics.reset m;
  Alcotest.(check (option int)) "declared counter reads 0" (Some 0) (count m "softtimer.fired");
  Alcotest.(check bool) "declared histogram is empty" true
    (match reading m "softtimer.fire_delay_us" with
    | Some (Metrics.Histogram h) -> Hdr.count h = 0
    | _ -> false)

(* Regression: [Softtimer.attach] registered its wheel probes in a
   process-wide table, so the closures kept the last facility's whole
   simulation reachable after [Metrics.reset].  Registrations now live
   in the context, and a reset drops them. *)
let[@inline never] run_finished_simulation w =
  let e = Engine.create () in
  let m = Machine.create e in
  let st = Softtimer.attach m in
  let noop = Softtimer.register st ~name:"noop" (fun _ _ -> ()) in
  ignore (Softtimer.schedule_soft_event st ~ticks:0L noop 0 : Softtimer.handle);
  Engine.run_until e (us 100.0);
  Weak.set w 0 (Some (Sys.opaque_identity m))

let test_metrics_reset_releases_simulation () =
  let w = Weak.create 1 in
  run_finished_simulation w;
  Alcotest.(check bool) "wheel probes registered" true
    (Option.is_some (probed (Metrics.current ()) "softtimer.wheel_slots"));
  Metrics.reset (Metrics.current ());
  Gc.full_major ();
  Alcotest.(check bool) "finished simulation collected" false (Weak.check w 0)

(* ------------------------------------------------------------------ *)
(* Hdr: constant-memory streaming histogram. *)

let test_hdr_basics () =
  let h = Hdr.create ~rel_error:0.01 ~lowest:1e-3 () in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (Hdr.quantile h 0.5));
  List.iter (Hdr.record h) [ 5.0; 1.0; 3.0; -2.0 ];
  Alcotest.(check int) "count" 4 (Hdr.count h);
  Alcotest.(check (float 1e-9)) "min (negative clamped to 0)" (-2.0) (Hdr.min h);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Hdr.max h);
  Alcotest.(check (float 1e-9)) "mean is exact" 1.75 (Hdr.mean h);
  Alcotest.(check bool) "p99 near max" true (Float.abs (Hdr.quantile h 0.99 -. 5.0) <= 0.06);
  Hdr.clear h;
  Alcotest.(check int) "cleared" 0 (Hdr.count h);
  Alcotest.check_raises "bad rel_error"
    (Invalid_argument "Hdr.create: rel_error must be in (0, 0.5]") (fun () ->
      ignore (Hdr.create ~rel_error:0.0 () : Hdr.t));
  Alcotest.check_raises "bad quantile" (Invalid_argument "Hdr.quantile: q out of [0,1]")
    (fun () -> ignore (Hdr.quantile h 1.5 : float))

let test_hdr_constant_memory () =
  let h = Hdr.create () in
  for i = 1 to 100_000 do
    Hdr.record h (float_of_int (i mod 1000))
  done;
  let buckets = Hdr.bucket_count h in
  for i = 1 to 100_000 do
    Hdr.record h (float_of_int (i mod 1000))
  done;
  Alcotest.(check int) "bucket count independent of observations" buckets
    (Hdr.bucket_count h);
  Alcotest.(check int) "all recorded" 200_000 (Hdr.count h)

let test_hdr_cdf_points () =
  let h = Hdr.create () in
  List.iter (Hdr.record h) [ 1.0; 1.0; 2.0; 10.0 ];
  let pts = Hdr.cdf_points h in
  Alcotest.(check bool) "non-empty" true (List.length pts >= 3);
  let fracs = List.map snd pts in
  let rec mono = function a :: b :: r -> a <= b && mono (b :: r) | _ -> true in
  Alcotest.(check bool) "monotone" true (mono fracs);
  Alcotest.(check (float 1e-9)) "ends at 1" 1.0 (List.nth fracs (List.length fracs - 1))

(* Nearest-rank exact answer from the full sample: the ground truth the
   streaming histogram is allowed to be rel_error away from. *)
let exact_nearest_rank sorted q =
  let n = Array.length sorted in
  let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

let hdr_values_gen =
  QCheck.(list_of_size Gen.(int_range 1 400) (float_range 0.0 50_000.0))

let test_hdr_quantile_accuracy =
  QCheck.Test.make ~name:"hdr quantile within rel_error of exact sample answer" ~count:200
    hdr_values_gen (fun xs ->
      let h = Hdr.create () in
      let s = Stats.Sample.create () in
      List.iter
        (fun x ->
          Hdr.record h x;
          Stats.Sample.add s x)
        xs;
      let sorted = Stats.Sample.sorted s in
      let eps = Hdr.rel_error h and quantum = Hdr.lowest h in
      List.for_all
        (fun q ->
          let exact = exact_nearest_rank sorted q in
          let got = Hdr.quantile h q in
          (* Relative bound from the bucket width plus an absolute slack
             of two quantization units (rounding to multiples of
             [lowest] can move a value across a bucket edge). *)
          Float.abs (got -. exact) <= (eps *. exact) +. (2.0 *. quantum))
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ])

let test_hdr_merge_is_concat =
  QCheck.Test.make ~name:"hdr merge a b == recording the concatenated stream" ~count:100
    QCheck.(pair hdr_values_gen hdr_values_gen)
    (fun (xs, ys) ->
      let ha = Hdr.create () and hb = Hdr.create () and hc = Hdr.create () in
      List.iter (Hdr.record ha) xs;
      List.iter (Hdr.record hb) ys;
      List.iter (Hdr.record hc) (xs @ ys);
      let m = Hdr.merge ha hb in
      Hdr.count m = Hdr.count hc
      && Float.equal (Hdr.min m) (Hdr.min hc)
      && Float.equal (Hdr.max m) (Hdr.max hc)
      && List.for_all
           (fun q -> Float.equal (Hdr.quantile m q) (Hdr.quantile hc q))
           [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ]
      (* Bucket-wise equality, via the CDF: same counts in same buckets. *)
      && Hdr.cdf_points m = Hdr.cdf_points hc)

let test_hdr_merge_layout_mismatch () =
  let a = Hdr.create ~rel_error:0.01 () and b = Hdr.create ~rel_error:0.1 () in
  Alcotest.check_raises "layout mismatch"
    (Invalid_argument "Hdr.merge: histograms have different bucket layouts") (fun () ->
      ignore (Hdr.merge a b : Hdr.t))

(* ------------------------------------------------------------------ *)
(* Timeseries: windowed aggregation over simulated time. *)

let test_timeseries_windows () =
  let ts = Timeseries.create ~window:(us 10.0) () in
  let ev at e = Timeseries.on_event ts ~at e in
  (* Window 0: [0, 10us). *)
  ev (us 1.0) (Trace.Soft_sched { id = 0; due = us 5.0 });
  ev (us 5.5) (Trace.Soft_fire { id = 0; due = us 5.0; delay = us 0.5 });
  ev (us 7.0) (Trace.Poll { found = 3 });
  (* Window 2: [20, 30us) — window 1 is simply absent (no events). *)
  ev (us 21.0) (Trace.Pkt_enqueue { nic = "nic0"; qlen = 4 });
  ev (us 22.0) (Trace.Pkt_rx { nic = "nic0"; batch = 2 });
  Timeseries.close ts;
  Alcotest.(check int) "events" 5 (Timeseries.event_count ts);
  Alcotest.(check int) "one epoch" 1 (Timeseries.epochs ts);
  match Timeseries.snapshots ts with
  | [ w0; w2 ] ->
    Alcotest.(check int) "w0 index" 0 w0.Timeseries.s_index;
    Alcotest.(check int) "w0 sched" 1 w0.Timeseries.s_sched;
    Alcotest.(check int) "w0 fired" 1 w0.Timeseries.s_fired;
    Alcotest.(check int) "w0 polls" 1 w0.Timeseries.s_polls;
    Alcotest.(check int) "w0 poll found" 3 w0.Timeseries.s_poll_found;
    Alcotest.(check (float 1e-6)) "w0 delay p50" 0.5 w0.Timeseries.s_delay_p50_us;
    Alcotest.(check int) "w2 index" 2 w2.Timeseries.s_index;
    Alcotest.(check int) "w2 enq" 1 w2.Timeseries.s_pkt_enqueued;
    Alcotest.(check int) "w2 rx pkts" 2 w2.Timeseries.s_pkt_rx_pkts;
    Alcotest.(check (option int)) "w2 qlen gauge" (Some 4) w2.Timeseries.s_qlen_last
  | l -> Alcotest.failf "expected 2 windows, got %d" (List.length l)

let test_timeseries_epoch_rollover () =
  let ts = Timeseries.create ~window:(us 10.0) () in
  Timeseries.on_event ts ~at:(us 55.0) (Trace.Poll { found = 0 });
  (* Simulated time jumps backwards: a fresh simulation started. *)
  Timeseries.on_event ts ~at:(us 3.0) (Trace.Poll { found = 0 });
  Timeseries.close ts;
  Alcotest.(check int) "two epochs" 2 (Timeseries.epochs ts);
  match Timeseries.snapshots ts with
  | [ a; b ] ->
    Alcotest.(check int) "epoch 0 window" 0 a.Timeseries.s_epoch;
    Alcotest.(check int) "epoch 1 window" 1 b.Timeseries.s_epoch;
    Alcotest.(check bool) "indices restart" true (b.Timeseries.s_index < a.Timeseries.s_index)
  | l -> Alcotest.failf "expected 2 windows, got %d" (List.length l)

let test_timeseries_bounded_ring () =
  let ts = Timeseries.create ~window:(us 1.0) ~max_windows:4 () in
  for i = 0 to 9 do
    Timeseries.on_event ts ~at:(us (float_of_int i)) (Trace.Poll { found = 0 })
  done;
  Timeseries.close ts;
  Alcotest.(check int) "evicted oldest" 6 (Timeseries.evicted_windows ts);
  let snaps = Timeseries.snapshots ts in
  Alcotest.(check int) "ring bounded" 4 (List.length snaps);
  Alcotest.(check int) "keeps newest" 9
    (List.nth snaps 3).Timeseries.s_index

let test_timeseries_json_shape () =
  let ts = Timeseries.create ~window:(us 10.0) () in
  Timeseries.on_event ts ~at:(us 1.0) (Trace.Soft_fire { id = 0; due = us 1.0; delay = Time_ns.zero });
  Timeseries.close ts;
  Alcotest.(check int) "one window" 1 (List.length (Timeseries.snapshots ts));
  let json = Timeseries.to_json ts in
  Alcotest.(check bool) "json array" true
    (String.length json >= 2 && json.[0] = '[' && json.[String.length json - 1] = ']')

(* ------------------------------------------------------------------ *)
(* Span: async lifecycles recovered from the trace ring. *)

let test_span_timers_and_packets () =
  with_trace (fun tr ->
      Trace.soft_sched ~at:(ius 1.0) ~id:0 ~due:(ius 5.0);
      Trace.soft_sched ~at:(ius 2.0) ~id:1 ~due:(ius 5.0);
      Trace.soft_sched ~at:(ius 3.0) ~id:2 ~due:(ius 9.0);
      (* FIFO per due time: the fire at due=5 closes the span opened at 1us. *)
      Trace.soft_fire ~at:(ius 6.0) ~id:0 ~due:(ius 5.0);
      Trace.soft_cancel ~at:(ius 7.0) ~id:1 ~due:(ius 5.0);
      Trace.pkt_enqueue ~at:(ius 1.0) ~nic:"nic0" ~qlen:1;
      Trace.pkt_enqueue ~at:(ius 2.0) ~nic:"nic0" ~qlen:2;
      Trace.pkt_drop ~at:(ius 2.5) ~nic:"nic0";
      Trace.pkt_rx ~at:(ius 4.0) ~nic:"nic0" ~batch:2;
      let sp = Span.collect tr in
      Alcotest.(check int) "timers total" 3 (Span.timers_total sp);
      Alcotest.(check int) "timers fired" 1 (Span.timers_fired sp);
      Alcotest.(check int) "timers cancelled" 1 (Span.timers_cancelled sp);
      Alcotest.(check int) "timers open" 1 (Span.timers_open sp);
      Alcotest.(check int) "packets total (drop opens nothing)" 2 (Span.packets_total sp);
      Alcotest.(check int) "packets delivered" 2 (Span.packets_delivered sp);
      Alcotest.(check int) "packets open" 0 (Span.packets_open sp);
      Alcotest.(check int) "one fired latency" 1 (Hdr.count (Span.timer_latency sp));
      Alcotest.(check (float 0.05)) "sched->fire latency us" 5.0
        (Hdr.quantile (Span.timer_latency sp) 0.5);
      Alcotest.(check int) "two delivery latencies" 2 (Hdr.count (Span.packet_latency sp));
      (* Ids are assigned in stream order of the opening event. *)
      let ids = List.map (fun s -> s.Span.id) (Span.spans sp) in
      Alcotest.(check (list int)) "ids in stream order" [ 0; 1; 2; 3; 4 ] ids)

let test_span_epoch_reset () =
  with_trace (fun tr ->
      Trace.soft_sched ~at:(ius 1.0) ~id:0 ~due:(ius 5.0);
      (* A fresh simulation begins: the old open span must stay open. *)
      Trace.sim_start ~at:0;
      Trace.soft_fire ~at:(ius 5.0) ~id:0 ~due:(ius 5.0);
      let sp = Span.collect tr in
      Alcotest.(check int) "old span stays open" 1 (Span.timers_open sp);
      Alcotest.(check int) "new run's fire closes nothing" 0 (Span.timers_fired sp))

(* Regression for the documented tie-break rule (span.mli): two timers
   scheduled for the *same* due time are closed in schedule order —
   the FIFO tie-break is the dispatch tie-break.  Referenced from
   span.mli as [test/test_obs.ml:span_fifo_tie]. *)
let test_span_fifo_tie () =
  with_trace (fun tr ->
      Trace.soft_sched ~at:(ius 1.0) ~id:10 ~due:(ius 5.0);
      Trace.soft_sched ~at:(ius 2.0) ~id:11 ~due:(ius 5.0);
      (* The stores dispatch equal deadlines in schedule order, so the
         first fire is timer 10 — it must close the span opened at 1us,
         and the second the span opened at 2us. *)
      Trace.soft_fire ~at:(ius 6.0) ~id:10 ~due:(ius 5.0);
      Trace.soft_fire ~at:(ius 6.5) ~id:11 ~due:(ius 5.0);
      let sp = Span.collect tr in
      match Span.spans sp with
      | [ s0; s1 ] ->
        Alcotest.(check int64) "first span opened at 1us" (us 1.0) s0.Span.start;
        Alcotest.(check (option int64)) "first span closed by first fire" (Some (us 6.0))
          s0.Span.finish;
        Alcotest.(check int64) "second span opened at 2us" (us 2.0) s1.Span.start;
        Alcotest.(check (option int64)) "second span closed by second fire" (Some (us 6.5))
          s1.Span.finish;
        Alcotest.(check int) "both fired" 2 (Span.timers_fired sp)
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Delay_audit: fire-delay attribution. *)

(* Golden partition on a hand-built stream: a timer due at 10us is held
   off by user work until a check at 25us scans-but-skips it (budget),
   then kernel work runs and a syscall check fires it at 30us.  The
   20us delay must split exactly into 15us gap.user + 5us
   check-skipped. *)
let test_delay_audit_partition () =
  let da = Delay_audit.create ~worst:5 () in
  let ev at e = Delay_audit.on_event da ~at e in
  ev (us 0.0) (Trace.Soft_sched { id = 0; due = us 10.0 });
  ev (us 25.0) (Trace.Cpu_run { cpu = 0; klass = 3; dur = us 20.0 });
  ev (us 25.0) (Trace.Soft_check { src = "syscalls"; scanned = 1; fired = 0 });
  ev (us 30.0) (Trace.Cpu_run { cpu = 0; klass = 2; dur = us 5.0 });
  ev (us 30.0) (Trace.Trigger "syscalls");
  ev (us 30.0) (Trace.Soft_fire { id = 0; due = us 10.0; delay = us 20.0 });
  ev (us 30.0) (Trace.Soft_check { src = "syscalls"; scanned = 1; fired = 1 });
  Alcotest.(check int) "one late fire" 1 (Delay_audit.late da);
  Alcotest.(check int) "no violations" 0 (Delay_audit.violations da);
  Alcotest.(check int64) "gap.user 15us" (us 15.0) (Delay_audit.cause_ns da 3);
  Alcotest.(check int64) "check-skipped 5us" (us 5.0)
    (Delay_audit.cause_ns da Delay_audit.seg_check_skipped);
  Alcotest.(check int64) "partition is total" (us 20.0) (Delay_audit.total_late_ns da);
  match Delay_audit.exemplars da with
  | [ x ] ->
    Alcotest.(check int) "exemplar id" 0 x.Delay_audit.x_id;
    Alcotest.(check int64) "exemplar delay" (us 20.0) x.Delay_audit.x_delay;
    Alcotest.(check string) "ending trigger" "syscalls" x.Delay_audit.x_end_trigger;
    Alcotest.(check int) "batch position" 1 x.Delay_audit.x_batch_pos;
    Alcotest.(check int) "one skipping check" 1 x.Delay_audit.x_checks;
    Alcotest.(check (option int64)) "first check at 25us" (Some (us 25.0))
      x.Delay_audit.x_first_check;
    Alcotest.(check int64) "segments sum to delay" x.Delay_audit.x_delay
      (Array.fold_left Int64.add 0L x.Delay_audit.x_segs)
  | l -> Alcotest.failf "expected 1 exemplar, got %d" (List.length l)

(* Idle-before-wakeup: a timer that comes due while the CPU sleeps is
   charged to seg_idle for the whole [due, wakeup) stretch. *)
let test_delay_audit_idle () =
  let da = Delay_audit.create () in
  let ev at e = Delay_audit.on_event da ~at e in
  ev (us 0.0) (Trace.Soft_sched { id = 7; due = us 10.0 });
  ev (us 5.0) (Trace.Cpu_idle { cpu = 0 });
  ev (us 30.0) (Trace.Cpu_busy { cpu = 0 });
  ev (us 30.0) (Trace.Trigger "idle");
  ev (us 30.0) (Trace.Soft_fire { id = 7; due = us 10.0; delay = us 20.0 });
  ev (us 30.0) (Trace.Soft_check { src = "idle"; scanned = 1; fired = 1 });
  Alcotest.(check int) "no violations" 0 (Delay_audit.violations da);
  Alcotest.(check int64) "all idle" (us 20.0) (Delay_audit.cause_ns da Delay_audit.seg_idle);
  Alcotest.(check int64) "nothing uncovered" 0L (Delay_audit.cause_ns da Delay_audit.seg_other)

(* Golden text report on a pinned two-timer stream: the partition
   stream above plus an idle-wakeup timer whose [due, idle-start) hole
   has no CPU-0 coverage and must land in gap.other (conservation by
   construction).  Pinning the full rendering keeps the report format,
   column math (shares, averages, causal-chain ordering) and the
   worst-ordering contract from drifting silently. *)
let test_delay_audit_golden_text () =
  let da = Delay_audit.create ~worst:5 () in
  let ev at e = Delay_audit.on_event da ~at e in
  ev (us 0.0) (Trace.Soft_sched { id = 0; due = us 10.0 });
  ev (us 25.0) (Trace.Cpu_run { cpu = 0; klass = 3; dur = us 20.0 });
  ev (us 25.0) (Trace.Soft_check { src = "syscalls"; scanned = 1; fired = 0 });
  ev (us 30.0) (Trace.Cpu_run { cpu = 0; klass = 2; dur = us 5.0 });
  ev (us 30.0) (Trace.Trigger "syscalls");
  ev (us 30.0) (Trace.Soft_fire { id = 0; due = us 10.0; delay = us 20.0 });
  ev (us 30.0) (Trace.Soft_check { src = "syscalls"; scanned = 1; fired = 1 });
  ev (us 31.0) (Trace.Soft_sched { id = 1; due = us 40.0 });
  ev (us 45.0) (Trace.Cpu_idle { cpu = 0 });
  ev (us 50.0) (Trace.Cpu_busy { cpu = 0 });
  ev (us 50.0) (Trace.Trigger "idle");
  ev (us 50.0) (Trace.Soft_fire { id = 1; due = us 40.0; delay = us 10.0 });
  ev (us 50.0) (Trace.Soft_check { src = "idle"; scanned = 1; fired = 1 });
  let expected =
    String.concat "\n"
      [
        "Why-late: fire-delay attribution";
        "  fired 2 (on-time 0, late 2), untracked 0, pending at exit 0";
        "  checks seen 3 (budget-limited 1), conservation violations 0";
        "";
        "Cause breakdown (2 late fires, 0.030 ms attributed)";
        "  cause                  total_us   share     fires    p50_us    p99_us";
        "  gap.user                   15.0   50.0%         1      15.0      15.0  (user-mode computation)";
        "  gap.idle                    5.0   16.7%         1       5.0       5.0  (CPU idle before wakeup)";
        "  gap.other                   5.0   16.7%         1       5.0       5.0  (uncovered (other CPU / truncated trace))";
        "  check-skipped               5.0   16.7%         1       5.0       5.0  (check ran but dispatch budget skipped this timer)";
        "";
        "Ending trigger state (which check finally dispatched the late timer)";
        "  trigger        fires     delay_us    avg_us  dominant cause";
        "  idle               1         10.0      10.0  gap.idle";
        "  syscalls           1         20.0      20.0  gap.user";
        "";
        "Worst 2 late fires";
        "  timer          due_us   delay_us end_trigger   batch  skips   1st_chk_us  causal chain";
        "  0                10.0       20.0 syscalls          1      1         25.0  gap.user=15.0us -> check-skipped=5.0us";
        "  1                40.0       10.0 idle              1      0            -  gap.idle=5.0us -> gap.other=5.0us";
        "";
      ]
  in
  Alcotest.(check string) "pinned why-late report" expected (Delay_audit.to_text da)

(* On-time fires attribute nothing; cancels drop tracking; a sim.start
   reset counts survivors as pending_at_exit. *)
let test_delay_audit_lifecycle () =
  let da = Delay_audit.create () in
  let ev at e = Delay_audit.on_event da ~at e in
  ev (us 0.0) (Trace.Soft_sched { id = 0; due = us 10.0 });
  ev (us 10.0) (Trace.Soft_fire { id = 0; due = us 10.0; delay = 0L });
  ev (us 11.0) (Trace.Soft_sched { id = 1; due = us 20.0 });
  ev (us 12.0) (Trace.Soft_cancel { id = 1; due = us 20.0 });
  ev (us 13.0) (Trace.Soft_sched { id = 2; due = us 50.0 });
  ev (us 14.0) (Trace.Soft_sched { id = 3; due = us 60.0 });
  ev (us 15.0) (Trace.Mark Trace.sim_start_mark);
  ev (us 1.0) (Trace.Soft_sched { id = 0; due = us 90.0 });
  Alcotest.(check int) "one on-time fire" 1 (Delay_audit.ontime da);
  Alcotest.(check int) "no late fires" 0 (Delay_audit.late da);
  Alcotest.(check int) "abandoned + still pending" 3 (Delay_audit.pending_at_exit da);
  Alcotest.(check int64) "nothing attributed" 0L (Delay_audit.total_late_ns da)

(* ------------------------------------------------------------------ *)
(* Exporters. *)

let test_export_chrome_json () =
  with_trace (fun tr ->
      Trace.trigger ~at:(ius 1.0) "syscall";
      Trace.irq ~at:(ius 10.0) ~line:"nic0" ~cpu:0 ~dur:(ius 4.0);
      Trace.cpu_idle ~at:(ius 12.0) ~cpu:0;
      Trace.mark ~at:(ius 13.0) "quote\"and\\slash";
      let json = Trace_export.to_chrome_json tr in
      Alcotest.(check bool) "has traceEvents" true
        (String.length json > 0 && json.[0] = '{');
      let contains needle =
        let n = String.length needle and m = String.length json in
        let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "metadata record" true (contains "process_name");
      Alcotest.(check bool) "instant trigger" true (contains "\"name\":\"syscall\"");
      (* The irq slice starts at handler entry: 10us - 4us = 6us. *)
      Alcotest.(check bool) "irq complete slice" true
        (contains "\"ph\":\"X\",\"ts\":6.000");
      Alcotest.(check bool) "cpu counter track" true (contains "\"cpu0.busy\"");
      Alcotest.(check bool) "escaped quote" true (contains "quote\\\"and\\\\slash");
      (* Balanced braces/brackets is a cheap well-formedness smoke test;
         the CI trace-smoke target runs a real JSON parser over a full
         experiment's trace. *)
      let depth = ref 0 in
      String.iter
        (fun c ->
          match c with
          | '{' | '[' -> incr depth
          | '}' | ']' -> decr depth
          | _ -> ())
        json;
      Alcotest.(check int) "balanced nesting" 0 !depth)

let test_export_csv () =
  with_trace (fun tr ->
      Trace.soft_sched ~at:(ius 1.0) ~id:0 ~due:(ius 5.0);
      Trace.soft_fire ~at:(ius 6.0) ~id:0 ~due:(ius 5.0);
      let csv = Trace_export.to_csv tr in
      let lines = String.split_on_char '\n' (String.trim csv) in
      Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
      Alcotest.(check string) "header" "time_ns,event,detail" (List.hd lines);
      Alcotest.(check string) "sched row" "1000,soft-sched,timer=0;due_ns=5000" (List.nth lines 1);
      Alcotest.(check string) "fire row carries delay" "6000,soft-fire,timer=0;due_ns=5000;delay_ns=1000"
        (List.nth lines 2))

(* Golden shape test for the extended Chrome export: counter tracks
   (cat "timeseries") and async span events (cat "span") interleave
   with the existing instant/complete events, the stream stays
   structurally valid, and the trace.dropped banner is preserved. *)
let test_export_chrome_extended () =
  with_trace (fun tr ->
      let ts = Timeseries.create ~window:(us 10.0) () in
      Trace.set_tap (Some (Timeseries.on_event ts));
      Fun.protect
        ~finally:(fun () -> Trace.set_tap None)
        (fun () ->
          Trace.trigger ~at:(ius 1.0) "syscall";
          Trace.soft_sched ~at:(ius 2.0) ~id:0 ~due:(ius 8.0);
          Trace.irq ~at:(ius 5.0) ~line:"nic0" ~cpu:0 ~dur:(ius 1.0);
          Trace.soft_fire ~at:(ius 8.5) ~id:0 ~due:(ius 8.0);
          Trace.pkt_enqueue ~at:(ius 11.0) ~nic:"nic0" ~qlen:1;
          Trace.pkt_rx ~at:(ius 13.0) ~nic:"nic0" ~batch:1);
      Timeseries.close ts;
      let sp = Span.collect tr in
      let json = Trace_export.to_chrome_json ~series:ts ~spans:sp tr in
      let count needle =
        let n = String.length needle and m = String.length json in
        let rec go acc i =
          if i + n > m then acc
          else go (if String.sub json i n = needle then acc + 1 else acc) (i + 1)
        in
        go 0 0
      in
      Alcotest.(check bool) "existing instant events kept" true (count "\"ph\":\"i\"" > 0);
      Alcotest.(check bool) "existing complete slices kept" true (count "\"ph\":\"X\"" > 0);
      Alcotest.(check bool) "counter tracks present" true
        (count "\"cat\":\"timeseries\",\"ph\":\"C\"" >= 2);
      Alcotest.(check bool) "span cat present" true (count "\"cat\":\"span\"" > 0);
      (* Both the timer and the packet lifecycle closed, so two b/e pairs;
         async begins and ends always balance. *)
      Alcotest.(check int) "async begins" 2 (count "\"ph\":\"b\"");
      Alcotest.(check int) "async ends balance" (count "\"ph\":\"b\"") (count "\"ph\":\"e\"");
      Alcotest.(check bool) "span ids stamped" true (count "\"id\":" >= 4);
      Alcotest.(check bool) "no drops, no banner" false (count "droppedEvents" > 0);
      let depth = ref 0 and ok = ref true in
      String.iter
        (fun c ->
          match c with
          | '{' | '[' -> incr depth
          | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
          | _ -> ())
        json;
      Alcotest.(check bool) "balanced nesting" true (!ok && !depth = 0))

let test_export_chrome_dropped_banner () =
  with_trace ~capacity:4 (fun tr ->
      for i = 1 to 10 do
        Trace.soft_sched ~at:(ius (float_of_int i)) ~id:i ~due:(ius (float_of_int (i + 5)))
      done;
      let sp = Span.collect tr in
      let json = Trace_export.to_chrome_json ~spans:sp tr in
      let contains needle =
        let n = String.length needle and m = String.length json in
        let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "dropped banner preserved with overlays" true
        (contains "\"droppedEvents\":6"))

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled emitters are no-ops" `Quick test_trace_disabled_is_noop;
          Alcotest.test_case "basic record/readback" `Quick test_trace_basic;
          Alcotest.test_case "ring wraparound" `Quick test_trace_wraparound;
          Alcotest.test_case "invalid capacity" `Quick test_trace_invalid_capacity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters get-or-create" `Quick test_metrics_counters;
          Alcotest.test_case "probes" `Quick test_metrics_probes;
          Alcotest.test_case "reset drops registrations" `Quick test_metrics_reset_drops;
          Alcotest.test_case "declared names listed" `Quick test_metrics_declared_rows;
          Alcotest.test_case "reset releases finished simulations" `Quick
            test_metrics_reset_releases_simulation;
        ] );
      ( "hdr",
        [
          Alcotest.test_case "basics" `Quick test_hdr_basics;
          Alcotest.test_case "constant memory" `Quick test_hdr_constant_memory;
          Alcotest.test_case "cdf points" `Quick test_hdr_cdf_points;
          Alcotest.test_case "merge layout mismatch" `Quick test_hdr_merge_layout_mismatch;
          qc test_hdr_quantile_accuracy;
          qc test_hdr_merge_is_concat;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "windowing" `Quick test_timeseries_windows;
          Alcotest.test_case "epoch rollover" `Quick test_timeseries_epoch_rollover;
          Alcotest.test_case "bounded ring" `Quick test_timeseries_bounded_ring;
          Alcotest.test_case "json shape" `Quick test_timeseries_json_shape;
        ] );
      ( "span",
        [
          Alcotest.test_case "timers and packets" `Quick test_span_timers_and_packets;
          Alcotest.test_case "epoch reset" `Quick test_span_epoch_reset;
          Alcotest.test_case "span_fifo_tie" `Quick test_span_fifo_tie;
        ] );
      ( "delay_audit",
        [
          Alcotest.test_case "golden partition" `Quick test_delay_audit_partition;
          Alcotest.test_case "golden text report" `Quick test_delay_audit_golden_text;
          Alcotest.test_case "idle before wakeup" `Quick test_delay_audit_idle;
          Alcotest.test_case "lifecycle accounting" `Quick test_delay_audit_lifecycle;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace_event json" `Quick test_export_chrome_json;
          Alcotest.test_case "csv" `Quick test_export_csv;
          Alcotest.test_case "chrome extended (counters + spans)" `Quick
            test_export_chrome_extended;
          Alcotest.test_case "dropped banner with overlays" `Quick
            test_export_chrome_dropped_banner;
        ] );
    ]
