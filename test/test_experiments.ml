(* Integration tests: every experiment runs in quick mode and its
   results respect the paper's qualitative claims (who wins, direction
   and rough magnitude of the effects). *)

let cfg = Exp_config.quick

let test_fig1_bounds_hold () =
  let rows = Exp_fig1.compute cfg in
  Alcotest.(check bool) "has rows" true (List.length rows >= 3);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "no violations at T=%Ld" r.Exp_fig1.ticks)
        0 r.Exp_fig1.bound_violations;
      Alcotest.(check bool) "events fired" true (r.Exp_fig1.events > 0);
      Alcotest.(check bool) "min above T" true
        (r.Exp_fig1.min_delay_ticks > Int64.to_float r.Exp_fig1.ticks))
    rows

let test_hw_overhead_linear () =
  let r = Exp_hw_overhead.compute cfg in
  let last = List.nth r.Exp_hw_overhead.rows (List.length r.Exp_hw_overhead.rows - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "~45%% at 100kHz (got %.1f)" last.Exp_hw_overhead.overhead_pct)
    true
    (last.Exp_hw_overhead.overhead_pct > 32.0 && last.Exp_hw_overhead.overhead_pct < 52.0);
  Alcotest.(check bool)
    (Printf.sprintf "per-interrupt cost ~4.45us (got %.2f)" last.Exp_hw_overhead.us_per_interrupt)
    true
    (last.Exp_hw_overhead.us_per_interrupt > 3.4 && last.Exp_hw_overhead.us_per_interrupt < 5.2);
  (* Alpha interrupts are costlier than P-III, as the paper found. *)
  Alcotest.(check bool) "alpha > p-iii" true
    (r.Exp_hw_overhead.per_intr_alpha > r.Exp_hw_overhead.per_intr_piii);
  (* Monotone non-increasing throughput with frequency. *)
  let tputs = List.map (fun row -> row.Exp_hw_overhead.throughput) r.Exp_hw_overhead.rows in
  let rec monotone = function
    | a :: b :: rest -> a +. 20.0 >= b && monotone (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "throughput non-increasing" true (monotone tputs)

let test_soft_base_negligible () =
  let r = Exp_soft_base.compute cfg in
  Alcotest.(check bool)
    (Printf.sprintf "soft overhead < 3%% (got %.1f%%)" r.Exp_soft_base.overhead_pct)
    true
    (r.Exp_soft_base.overhead_pct < 3.0);
  Alcotest.(check bool)
    (Printf.sprintf "mean firing interval ~31.5us (got %.1f)"
       r.Exp_soft_base.mean_firing_interval_us)
    true
    (r.Exp_soft_base.mean_firing_interval_us > 24.0
    && r.Exp_soft_base.mean_firing_interval_us < 40.0);
  Alcotest.(check bool) "hw at same rate is much worse" true
    (r.Exp_soft_base.hw_equiv_overhead_pct > 4.0 *. Float.max 1.0 r.Exp_soft_base.overhead_pct)

let test_trigger_dist_ordering () =
  (* Only the cheap workloads in the integration test. *)
  let row w = fst (Exp_trigger_dist.measure cfg w) in
  let apache = row Exp_trigger_dist.ST_apache in
  let nfs = row Exp_trigger_dist.ST_nfs in
  let xeon = row Exp_trigger_dist.ST_apache_xeon in
  Alcotest.(check bool) "nfs much finer than apache" true
    (nfs.Exp_trigger_dist.mean_us < apache.Exp_trigger_dist.mean_us /. 5.0);
  Alcotest.(check bool) "xeon finer than p-ii apache" true
    (xeon.Exp_trigger_dist.mean_us < apache.Exp_trigger_dist.mean_us);
  Alcotest.(check bool) "apache mean in band" true
    (apache.Exp_trigger_dist.mean_us > 25.0 && apache.Exp_trigger_dist.mean_us < 38.0)

let test_trigger_windows_stable () =
  let r = Exp_trigger_windows.compute cfg in
  Alcotest.(check bool) "1ms windows exist" true (r.Exp_trigger_windows.one_ms.Exp_trigger_windows.windows > 100);
  (* 10 ms windows are tighter than 1 ms windows (paper's point). *)
  let spread s =
    s.Exp_trigger_windows.p95 -. s.Exp_trigger_windows.p5
  in
  Alcotest.(check bool) "10ms band narrower" true
    (spread r.Exp_trigger_windows.ten_ms < spread r.Exp_trigger_windows.one_ms);
  (* Our windowed medians are more variable than the paper's (<1.13%
     above 40 us there); the qualitative claims -- bulk in the teens-to-
     twenties and a tighter 10 ms band -- hold.  See EXPERIMENTS.md. *)
  Alcotest.(check bool) "bounded fraction of 1ms medians above 40us" true
    (r.Exp_trigger_windows.one_ms.Exp_trigger_windows.above_40us_pct < 16.0);
  Alcotest.(check bool) "1ms medians centred in the paper's band" true
    (r.Exp_trigger_windows.one_ms.Exp_trigger_windows.p5 > 8.0
    && r.Exp_trigger_windows.one_ms.Exp_trigger_windows.p5 < 30.0)

let test_trigger_sources_impact () =
  let r = Exp_trigger_sources.compute cfg in
  let frac k =
    (List.find (fun s -> Trigger.equal s.Exp_trigger_sources.source k) r.Exp_trigger_sources.sources)
      .Exp_trigger_sources.fraction_pct
  in
  Alcotest.(check bool) "syscalls dominate" true (frac Trigger.Syscall > 40.0);
  Alcotest.(check bool) "ip-output second" true (frac Trigger.Ip_output > 20.0);
  (* Removing syscalls must lengthen the mean more than removing traps. *)
  let mean_removed k =
    (List.find
       (fun c -> c.Exp_trigger_sources.removed = Some k)
       r.Exp_trigger_sources.cdfs)
      .Exp_trigger_sources.mean_us
  in
  let all_mean =
    (List.find (fun c -> c.Exp_trigger_sources.removed = None) r.Exp_trigger_sources.cdfs)
      .Exp_trigger_sources.mean_us
  in
  Alcotest.(check bool) "no-syscalls worst" true
    (mean_removed Trigger.Syscall > mean_removed Trigger.Trap);
  Alcotest.(check bool) "removals never improve" true (mean_removed Trigger.Trap >= all_mean -. 0.5)

let test_rbc_overhead_ordering () =
  let rows = Exp_rbc_overhead.compute cfg in
  List.iter
    (fun r ->
      Alcotest.(check bool) "hw costs much more than soft" true
        (r.Exp_rbc_overhead.hw_overhead_pct > 3.0 *. Float.max 1.0 r.Exp_rbc_overhead.soft_overhead_pct);
      Alcotest.(check bool) "hw overhead 18-45%" true
        (r.Exp_rbc_overhead.hw_overhead_pct > 18.0 && r.Exp_rbc_overhead.hw_overhead_pct < 45.0);
      Alcotest.(check bool) "soft overhead < 8%" true (r.Exp_rbc_overhead.soft_overhead_pct < 8.0))
    rows;
  let a = List.nth rows 0 and f = List.nth rows 1 in
  Alcotest.(check bool) "flash suffers more from interrupts" true
    (f.Exp_rbc_overhead.hw_overhead_pct > a.Exp_rbc_overhead.hw_overhead_pct)

let test_rbc_process_shape () =
  let tables = Exp_rbc_process.compute cfg in
  List.iter
    (fun tab ->
      let first = List.hd tab.Exp_rbc_process.soft in
      let last = List.nth tab.Exp_rbc_process.soft (List.length tab.Exp_rbc_process.soft - 1) in
      (* At line rate the target is held; at min=35 the average degrades
         to ~min + residual trigger gap. *)
      Alcotest.(check bool)
        (Printf.sprintf "target %.0f held at min=12 (got %.1f)" tab.Exp_rbc_process.target_us
           first.Exp_rbc_process.avg_interval_us)
        true
        (Float.abs (first.Exp_rbc_process.avg_interval_us -. tab.Exp_rbc_process.target_us) < 2.5);
      Alcotest.(check bool) "min=35 degrades" true
        (last.Exp_rbc_process.avg_interval_us > tab.Exp_rbc_process.target_us +. 2.0);
      (* The hardware timer misses its target. *)
      Alcotest.(check bool)
        (Printf.sprintf "hw avg %.1f > target" tab.Exp_rbc_process.hw_avg_us)
        true
        (tab.Exp_rbc_process.hw_avg_us > tab.Exp_rbc_process.target_us +. 0.8);
      Alcotest.(check bool) "hw ticks lost" true (tab.Exp_rbc_process.hw_lost_pct > 1.0))
    tables

let test_rbc_wan_reductions () =
  let tables = Exp_rbc_wan.compute cfg in
  List.iter
    (fun tab ->
      List.iter
        (fun row ->
          Alcotest.(check bool) "paced never slower" true (row.Exp_rbc_wan.reduction_pct >= 0.0);
          Alcotest.(check bool) "paced throughput higher" true
            (row.Exp_rbc_wan.paced_xput_mbps >= row.Exp_rbc_wan.regular_xput_mbps))
        tab.Exp_rbc_wan.rows;
      (* The 100-segment transfer is the sweet spot: ~89% reduction. *)
      let mid = List.find (fun r -> r.Exp_rbc_wan.segments = 100) tab.Exp_rbc_wan.rows in
      Alcotest.(check bool)
        (Printf.sprintf "~89%% at 100 segments (got %.0f)" mid.Exp_rbc_wan.reduction_pct)
        true
        (mid.Exp_rbc_wan.reduction_pct > 80.0 && mid.Exp_rbc_wan.reduction_pct < 95.0))
    tables

let test_polling_improvements () =
  let rows = Exp_polling.compute cfg in
  List.iter
    (fun row ->
      List.iter
        (fun c ->
          match c.Exp_polling.quota with
          | None -> ()
          | Some q ->
            Alcotest.(check bool)
              (Printf.sprintf "%s quota %.0f: polling >= interrupts (ratio %.2f)"
                 (match row.Exp_polling.server with
                 | Webserver.Apache -> "apache"
                 | Webserver.Flash -> "flash")
                 q c.Exp_polling.ratio)
              true (c.Exp_polling.ratio > 0.99))
        row.Exp_polling.cells)
    rows;
  (* Flash HTTP gains more than Apache HTTP. *)
  let max_ratio r =
    List.fold_left (fun acc c -> Float.max acc c.Exp_polling.ratio) 1.0 r.Exp_polling.cells
  in
  let apache_http = List.nth rows 0 and flash_http = List.nth rows 1 in
  Alcotest.(check bool) "flash gains more" true (max_ratio flash_http > max_ratio apache_http);
  Alcotest.(check bool) "flash gains 9%+" true (max_ratio flash_http > 1.09)

let test_livelock_shape () =
  let rows = Exp_livelock.compute cfg in
  let last = List.nth rows (List.length rows - 1) in
  (* At the highest offered load, interrupts have collapsed while the
     alternatives saturate far above them. *)
  Alcotest.(check bool) "hybrid >> interrupts at overload" true
    (last.Exp_livelock.hybrid_goodput > 2.0 *. last.Exp_livelock.interrupt_goodput);
  Alcotest.(check bool) "soft polling >> interrupts at overload" true
    (last.Exp_livelock.softpoll_goodput > 2.0 *. last.Exp_livelock.interrupt_goodput);
  (* Interrupt goodput is non-monotone: it rises then falls. *)
  let interrupt = List.map (fun r -> r.Exp_livelock.interrupt_goodput) rows in
  let peak = List.fold_left Float.max 0.0 interrupt in
  Alcotest.(check bool) "interrupt goodput collapses from its peak" true
    (last.Exp_livelock.interrupt_goodput < 0.8 *. peak);
  (* Below saturation everyone keeps up with the offered load. *)
  let first = List.hd rows in
  Alcotest.(check bool) "all keep up at low load" true
    (first.Exp_livelock.interrupt_goodput > 0.9 *. first.Exp_livelock.offered_kpps *. 1e3
    && first.Exp_livelock.hybrid_goodput > 0.9 *. first.Exp_livelock.offered_kpps *. 1e3
    && first.Exp_livelock.softpoll_goodput > 0.9 *. first.Exp_livelock.offered_kpps *. 1e3)

let test_sensitivity_shape () =
  let r = Exp_sensitivity.compute cfg in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Printf.sprintf "hw >> soft at scale %.2f" row.Exp_sensitivity.intr_scale)
        true
        (row.Exp_sensitivity.hw_overhead_pct
        > 3.0 *. Float.max 1.0 row.Exp_sensitivity.soft_overhead_pct))
    r.Exp_sensitivity.pacing;
  (* HW overhead grows with the per-interrupt cost. *)
  let ovh = List.map (fun x -> x.Exp_sensitivity.hw_overhead_pct) r.Exp_sensitivity.pacing in
  let rec increasing = function
    | a :: b :: rest -> a < b +. 1.0 && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "hw overhead increases with interrupt cost" true (increasing ovh);
  (* Polling wins even without pollution, and more with it. *)
  let ratios = List.map (fun x -> x.Exp_sensitivity.polling_ratio) r.Exp_sensitivity.polling in
  Alcotest.(check bool) "polling wins at sensitivity 0" true (List.hd ratios > 1.0);
  Alcotest.(check bool) "win grows with sensitivity" true
    (List.nth ratios (List.length ratios - 1) > List.hd ratios)

let test_pacer_scale_shape () =
  let cells = Exp_pacer_scale.compute cfg in
  Alcotest.(check bool) "has cells" true (List.length cells >= 6);
  (* Rate-based clocking compensates for store quantization as long as
     the bucket is finer than the target interval: every store variant
     must transmit the identical segment count per fleet size. *)
  let sizes =
    List.sort_uniq compare (List.map (fun c -> c.Exp_pacer_scale.flows) cells)
  in
  List.iter
    (fun flows ->
      let sends =
        List.filter_map
          (fun c ->
            if c.Exp_pacer_scale.flows = flows then Some c.Exp_pacer_scale.sends else None)
          cells
      in
      Alcotest.(check bool)
        (Printf.sprintf "sends agree across stores at %d flows" flows)
        true
        (List.length (List.sort_uniq compare sends) = 1);
      Alcotest.(check bool) "sends positive" true (List.hd sends > 0))
    sizes;
  List.iter
    (fun c ->
      let open Exp_pacer_scale in
      if c.store = "pacing-wheel/100us" then
        (* 100 us buckets under 103+ us targets: the round-up
           quantization must dominate the fire delay — the row that
           prices approximation. *)
        Alcotest.(check bool)
          (Printf.sprintf "coarse wheel delay visible (p50 %.1f)" c.d50_us)
          true (c.d50_us > 30.0)
      else
        (* Fine stores: a fire lands at the first 10 us check at or
           after its deadline, so delay never exceeds one tick. *)
        Alcotest.(check bool)
          (Printf.sprintf "%s max delay within a tick (%.1f)" c.store c.dmax_us)
          true
          (c.dmax_us <= 11.0);
      if c.store = "pacing-wheel" && c.flows >= 10_000 then
        Alcotest.(check bool)
          (Printf.sprintf "wheel memory per flow (%.2f KB)" c.kb_per_flow)
          true
          (c.kb_per_flow < 0.5))
    cells

let test_renders_do_not_raise () =
  (* Rendering smoke tests over tiny computations. *)
  let s = Exp_rbc_wan.render cfg (Exp_rbc_wan.compute cfg) in
  Alcotest.(check bool) "wan render non-empty" true (String.length s > 200);
  let s2 = Exp_fig1.run cfg in
  Alcotest.(check bool) "fig1 render non-empty" true (String.length s2 > 100)

(* ------------------------------------------------------------------ *)
(* Run report: one execution, four sections.                           *)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The integer right after the first [key] at or after [anchor]. *)
let int_after json ~anchor key =
  let find from needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length json then Alcotest.failf "%S not in report" needle
      else if String.sub json i n = needle then i + n
      else go (i + 1)
    in
    go from
  in
  let i = find (find 0 anchor) key in
  let j = ref i in
  while !j < String.length json && json.[!j] >= '0' && json.[!j] <= '9' do
    incr j
  done;
  int_of_string (String.sub json i (!j - i))

let report ?(buf = Run_report.default_options.buf) () =
  match Run_report.run cfg ~id:"fig1" Exp_fig1.run { Run_report.default_options with buf } with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let test_report_sections_agree () =
  let r = report () in
  Alcotest.(check bool) "conservation holds" true (Run_report.check r = Ok ());
  Alcotest.(check int) "nothing dropped" 0 (Run_report.dropped r);
  let json = Run_report.to_json r in
  Alcotest.(check bool) "schema" true (contains json "{\"schema\":\"softtimers-report/1\"");
  let fired = int_after json ~anchor:"\"whylate\":" "\"fired\":" in
  Alcotest.(check bool) "timers fired" true (fired > 0);
  Alcotest.(check int) "spans agree with why-late" fired
    (int_after json ~anchor:"\"timers\":" "\"fired\":");
  Alcotest.(check int) "metrics agree with why-late" fired
    (int_after json ~anchor:"\"metrics\":" "\"softtimer.fired\":");
  let text = Run_report.to_text r in
  List.iter
    (fun section -> Alcotest.(check bool) section true (contains text section))
    [ "== profile =="; "== stats"; "== why-late =="; "== mem ==" ];
  Alcotest.(check bool) "no truncation banner" false (contains text "WARNING")

(* A ring too small for the run truncates the spans rebuilt from it;
   the report must say so rather than print disagreeing counts. *)
let test_report_ring_truncation () =
  let r = report ~buf:4096 () in
  let dropped = Run_report.dropped r in
  Alcotest.(check bool) "events dropped" true (dropped > 0);
  let json = Run_report.to_json r in
  Alcotest.(check int) "json carries the drop count" dropped
    (int_after json ~anchor:"\"trace\":" "\"dropped\":");
  Alcotest.(check int) "json carries the ring capacity" 4096
    (int_after json ~anchor:"\"trace\":" "\"capacity\":");
  Alcotest.(check bool) "text banner" true
    (contains (Run_report.to_text r) "WARNING: trace ring overflowed");
  (* The tap saw every event: why-late is not truncated. *)
  Alcotest.(check int) "why-late complete"
    (int_after json ~anchor:"\"metrics\":" "\"softtimer.fired\":")
    (int_after json ~anchor:"\"whylate\":" "\"fired\":")

let test_report_rejects_bad_options () =
  let bad opts =
    match Run_report.run cfg ~id:"fig1" Exp_fig1.run opts with Ok _ -> false | Error _ -> true
  in
  let d = Run_report.default_options in
  Alcotest.(check bool) "buf" true (bad { d with buf = 0 });
  Alcotest.(check bool) "window" true (bad { d with window_us = 0.0 });
  Alcotest.(check bool) "worst" true (bad { d with worst = -1 });
  Alcotest.(check bool) "check budget" true (bad { d with check_budget = Some 0 });
  Trace.set_tap (Some (fun ~at:_ _ -> ()));
  let occupied = bad d in
  Trace.set_tap None;
  Alcotest.(check bool) "occupied tap" true occupied

let () =
  Alcotest.run "experiments"
    [
      ( "integration",
        [
          Alcotest.test_case "fig1 bounds hold" `Slow test_fig1_bounds_hold;
          Alcotest.test_case "fig2/3 overhead linear" `Slow test_hw_overhead_linear;
          Alcotest.test_case "soft base negligible" `Slow test_soft_base_negligible;
          Alcotest.test_case "table1 ordering" `Slow test_trigger_dist_ordering;
          Alcotest.test_case "fig5 window stability" `Slow test_trigger_windows_stable;
          Alcotest.test_case "table2 source impact" `Slow test_trigger_sources_impact;
          Alcotest.test_case "table3 overhead ordering" `Slow test_rbc_overhead_ordering;
          Alcotest.test_case "tables4/5 process shape" `Slow test_rbc_process_shape;
          Alcotest.test_case "tables6/7 reductions" `Slow test_rbc_wan_reductions;
          Alcotest.test_case "table8 polling wins" `Slow test_polling_improvements;
          Alcotest.test_case "livelock extension shape" `Slow test_livelock_shape;
          Alcotest.test_case "sensitivity extension shape" `Slow test_sensitivity_shape;
          Alcotest.test_case "pacer-scale extension shape" `Slow test_pacer_scale_shape;
          Alcotest.test_case "renders" `Slow test_renders_do_not_raise;
        ] );
      ( "report",
        [
          Alcotest.test_case "sections agree on one run" `Slow test_report_sections_agree;
          Alcotest.test_case "ring truncation is reported" `Slow test_report_ring_truncation;
          Alcotest.test_case "bad options rejected" `Quick test_report_rejects_bad_options;
        ] );
    ]
