(* Tests for the workload models: the closed-loop web-server simulation
   (throughput, trigger mix, pacing and polling wiring) and the
   synthetic trigger-process generators. *)

let sec = Time_ns.of_sec

let run_server ?(warmup = 0.3) ?(measure = 1.0) cfg =
  let t = Webserver.create cfg in
  Webserver.run t ~warmup:(sec warmup) ~measure:(sec measure);
  t

let base_cfg = Webserver.default_config

(* ------------------------------------------------------------------ *)
(* Webserver: throughput and saturation *)

let test_apache_saturates_cpu () =
  let t = run_server base_cfg in
  let busy = Time_ns.to_sec (Cpu.busy_ns (Machine.cpu (Webserver.machine t))) in
  let total = Time_ns.to_sec (Engine.now (Webserver.engine t)) in
  Alcotest.(check bool) "CPU > 97% busy" true (busy /. total > 0.97);
  let tput = Webserver.requests_per_sec t in
  Alcotest.(check bool)
    (Printf.sprintf "throughput in paper band (got %.0f)" tput)
    true
    (tput > 650.0 && tput < 1000.0)

let test_flash_faster_than_apache () =
  let apache = run_server base_cfg in
  let flash = run_server { base_cfg with Webserver.kind = Webserver.Flash } in
  Alcotest.(check bool) "Flash outperforms Apache" true
    (Webserver.requests_per_sec flash > 1.3 *. Webserver.requests_per_sec apache)

let test_phttp_faster_than_http () =
  let http = run_server base_cfg in
  let phttp = run_server { base_cfg with Webserver.http = Webserver.Persistent 10 } in
  Alcotest.(check bool) "persistent connections amortise setup" true
    (Webserver.requests_per_sec phttp > 1.2 *. Webserver.requests_per_sec http)

let test_deterministic_per_seed () =
  let a = run_server base_cfg and b = run_server base_cfg in
  Alcotest.(check int) "identical request counts" (Webserver.completed_requests a)
    (Webserver.completed_requests b);
  Alcotest.(check int) "identical trigger totals"
    (Machine.trigger_total (Webserver.machine a))
    (Machine.trigger_total (Webserver.machine b));
  let c = run_server { base_cfg with Webserver.seed = 8 } in
  Alcotest.(check bool) "different seed differs" true
    (Machine.trigger_total (Webserver.machine a) <> Machine.trigger_total (Webserver.machine c))

let test_background_compute_harmless () =
  let plain = run_server base_cfg in
  let compute = run_server { base_cfg with Webserver.background_compute = true } in
  let r1 = Webserver.requests_per_sec plain and r2 = Webserver.requests_per_sec compute in
  Alcotest.(check bool)
    (Printf.sprintf "throughput unaffected (%.0f vs %.0f)" r1 r2)
    true
    (Float.abs (r1 -. r2) /. r1 < 0.06)

let test_run_only_once () =
  let t = run_server base_cfg in
  Alcotest.check_raises "second run rejected" (Invalid_argument "Webserver.run: already run")
    (fun () -> Webserver.run t ~warmup:0L ~measure:0L)

(* ------------------------------------------------------------------ *)
(* Webserver: trigger process *)

let test_apache_trigger_mix () =
  let cfg = base_cfg in
  let t = Webserver.create cfg in
  let rec_ = Delay_probe.Gap_recorder.attach (Webserver.machine t) in
  Webserver.run t ~warmup:(sec 0.3) ~measure:(sec 1.5);
  let fr = Delay_probe.Gap_recorder.source_fractions rec_ in
  let check name kind lo hi =
    let f = 100.0 *. List.assoc kind fr in
    Alcotest.(check bool) (Printf.sprintf "%s %.1f%% in [%g, %g]" name f lo hi) true
      (f >= lo && f <= hi)
  in
  (* Paper's Table 2: 47.7 / 28 / 16.4 / 5.4 / 2.5. *)
  check "syscalls" Trigger.Syscall 42.0 53.0;
  check "ip-output" Trigger.Ip_output 22.0 33.0;
  check "ip-intr" Trigger.Ip_intr 12.0 23.0;
  check "tcpip-others" Trigger.Tcpip_other 2.0 9.0;
  check "traps" Trigger.Trap 1.0 5.0

let test_apache_gap_distribution_shape () =
  let t = Webserver.create base_cfg in
  let rec_ = Delay_probe.Gap_recorder.attach (Webserver.machine t) in
  Webserver.run t ~warmup:(sec 0.3) ~measure:(sec 1.5);
  let s = Delay_probe.Gap_recorder.sample rec_ in
  let mean = Stats.Sample.mean s and median = Stats.Sample.median s in
  Alcotest.(check bool) (Printf.sprintf "mean ~31.5us (got %.1f)" mean) true
    (mean > 26.0 && mean < 37.0);
  Alcotest.(check bool) (Printf.sprintf "median ~18us (got %.1f)" median) true
    (median > 13.0 && median < 25.0);
  Alcotest.(check bool) "bounded by backup tick" true (Stats.Sample.max s <= 1_100.0);
  let tail = 100.0 *. Stats.Sample.fraction_above s 100.0 in
  Alcotest.(check bool) (Printf.sprintf ">100us ~5%% (got %.1f)" tail) true
    (tail > 2.0 && tail < 10.0)

let test_xeon_profile_scales_gaps () =
  let piii =
    { base_cfg with Webserver.profile = Costs.pentium_iii_500 }
  in
  let t300 = Webserver.create base_cfg in
  let r300 = Delay_probe.Gap_recorder.attach (Webserver.machine t300) in
  Webserver.run t300 ~warmup:(sec 0.3) ~measure:(sec 1.0);
  let t500 = Webserver.create piii in
  let r500 = Delay_probe.Gap_recorder.attach (Webserver.machine t500) in
  Webserver.run t500 ~warmup:(sec 0.3) ~measure:(sec 1.0);
  let m300 = Stats.Sample.mean (Delay_probe.Gap_recorder.sample r300) in
  let m500 = Stats.Sample.mean (Delay_probe.Gap_recorder.sample r500) in
  (* Paper: the mean scales roughly with CPU clock (31.5 -> 19.4). *)
  let ratio = m500 /. m300 in
  Alcotest.(check bool) (Printf.sprintf "ratio ~0.6 (got %.2f)" ratio) true
    (ratio > 0.5 && ratio < 0.78)

(* ------------------------------------------------------------------ *)
(* Webserver: pacing and polling *)

let test_soft_pacing_low_overhead () =
  let plain = run_server base_cfg in
  let paced = run_server { base_cfg with Webserver.pacing = Webserver.Soft_pacing } in
  let overhead =
    1.0 -. (Webserver.requests_per_sec paced /. Webserver.requests_per_sec plain)
  in
  Alcotest.(check bool) (Printf.sprintf "soft overhead < 8%% (got %.1f%%)" (100. *. overhead)) true
    (overhead < 0.08);
  Alcotest.(check bool) "packets were paced" true (Webserver.pacer_sends paced > 1_000)

let test_hw_pacing_heavy_overhead () =
  let plain = run_server base_cfg in
  let paced =
    run_server { base_cfg with Webserver.pacing = Webserver.Hw_pacing (Time_ns.of_us 20.0) }
  in
  let overhead =
    1.0 -. (Webserver.requests_per_sec paced /. Webserver.requests_per_sec plain)
  in
  Alcotest.(check bool)
    (Printf.sprintf "hw overhead > 18%% (got %.1f%%)" (100. *. overhead))
    true (overhead > 0.18)

let test_polling_beats_interrupts () =
  let intr = run_server { base_cfg with Webserver.kind = Webserver.Flash } in
  let polled =
    run_server
      { base_cfg with Webserver.kind = Webserver.Flash; net = Webserver.Soft_polling 5.0 }
  in
  Alcotest.(check bool) "polling wins" true
    (Webserver.requests_per_sec polled > Webserver.requests_per_sec intr);
  Alcotest.(check bool) "interrupts mostly gone" true
    (Webserver.rx_interrupts polled < Webserver.rx_interrupts intr / 10);
  match Webserver.poller polled with
  | None -> Alcotest.fail "poller missing"
  | Some p -> Alcotest.(check bool) "poller active" true (Net_poll.polls p > 1_000)

let test_facility_attached_when_needed () =
  let t = Webserver.create { base_cfg with Webserver.pacing = Webserver.Soft_pacing } in
  Alcotest.(check bool) "facility present" true (Webserver.facility t <> None);
  let t2 = Webserver.create base_cfg in
  Alcotest.(check bool) "no facility by default" true (Webserver.facility t2 = None)

let test_phttp_counts_requests_not_connections () =
  (* With 10 requests per connection, completed requests must far
     exceed what single-request connections could deliver in the same
     interval of per-connection setup work. *)
  let t = run_server { base_cfg with Webserver.http = Webserver.Persistent 10 } in
  Alcotest.(check bool) "many requests completed" true (Webserver.completed_requests t > 800)

let test_pacing_transmits_all_data () =
  let plain = run_server base_cfg in
  let paced = run_server { base_cfg with Webserver.pacing = Webserver.Soft_pacing } in
  (* Roughly the same number of data packets must flow either way:
     5 per completed request. *)
  let per_req t = float_of_int (Webserver.pacer_sends t) /. float_of_int (Webserver.completed_requests t) in
  ignore plain;
  Alcotest.(check bool)
    (Printf.sprintf "~5 paced sends per request (got %.2f)" (per_req paced))
    true
    (per_req paced > 4.0 && per_req paced < 6.0)

let test_all_table2_sources_present () =
  let t = Webserver.create base_cfg in
  Webserver.run t ~warmup:(sec 0.2) ~measure:(sec 0.8);
  let m = Webserver.machine t in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Trigger.name k ^ " observed")
        true
        (Machine.trigger_count m k > 10))
    Trigger.table2_sources

let test_locality_override_applies () =
  let hot =
    run_server
      {
        base_cfg with
        Webserver.locality_override = Some { Cache.sensitivity = 4.0; warm_fraction = 0.9 };
      }
  in
  let base = run_server base_cfg in
  (* Quadruple pollution per interrupt must cost visible throughput. *)
  Alcotest.(check bool) "higher sensitivity costs throughput" true
    (Webserver.requests_per_sec hot < Webserver.requests_per_sec base)

(* ------------------------------------------------------------------ *)
(* Synthetic workloads *)

let run_synthetic start seconds =
  let e = Engine.create () in
  let m = Machine.create e in
  start m;
  let rec_ = Delay_probe.Gap_recorder.attach m in
  Engine.run_until e (sec 0.2);
  Delay_probe.Gap_recorder.reset_clock rec_;
  Engine.run_until e Time_ns.(Engine.now e + sec seconds);
  (m, Delay_probe.Gap_recorder.sample rec_)

let test_nfs_idle_dominated () =
  let m, s = run_synthetic (fun m -> Wl_nfs.start m ~seed:7) 0.8 in
  Alcotest.(check bool) (Printf.sprintf "median ~2us (got %.1f)" (Stats.Sample.median s)) true
    (Stats.Sample.median s < 3.0);
  Alcotest.(check bool) "mean small" true (Stats.Sample.mean s < 4.0);
  Alcotest.(check bool) "mostly idle triggers" true
    (Machine.trigger_count m Trigger.Idle > Machine.trigger_total m / 2);
  (* Disk-bound: the CPU is idle ~90% of the time. *)
  let busy = Time_ns.to_sec (Cpu.busy_ns (Machine.cpu m)) in
  Alcotest.(check bool) (Printf.sprintf "CPU mostly idle (busy %.2fs)" busy) true (busy < 0.35)

let test_realaudio_syscall_driven () =
  let m, s = run_synthetic (fun m -> Wl_realaudio.start m ~seed:7) 0.8 in
  let mean = Stats.Sample.mean s in
  Alcotest.(check bool) (Printf.sprintf "mean ~8.5us (got %.1f)" mean) true
    (mean > 6.0 && mean < 12.0);
  Alcotest.(check bool) "syscalls dominate" true
    (Machine.trigger_count m Trigger.Syscall > 2 * Machine.trigger_count m Trigger.Ip_intr);
  (* Player saturates the CPU. *)
  let busy = Time_ns.to_sec (Cpu.busy_ns (Machine.cpu m)) in
  Alcotest.(check bool) "CPU saturated" true (busy > 0.9)

let test_kernel_build_bimodal () =
  let _, s = run_synthetic (fun m -> Wl_kernel_build.start m ~seed:7) 1.2 in
  Alcotest.(check bool) (Printf.sprintf "median ~2us (got %.1f)" (Stats.Sample.median s)) true
    (Stats.Sample.median s < 3.5);
  let mean = Stats.Sample.mean s in
  Alcotest.(check bool) (Printf.sprintf "mean ~5.6us (got %.1f)" mean) true
    (mean > 3.5 && mean < 9.0);
  Alcotest.(check bool) "long tail exists" true (Stats.Sample.max s > 100.0)

let test_synthetic_traps_present () =
  let m, _ = run_synthetic (fun m -> Wl_kernel_build.start m ~seed:7) 0.5 in
  Alcotest.(check bool) "page-fault storms produce traps" true
    (Machine.trigger_count m Trigger.Trap > 100)

(* ------------------------------------------------------------------ *)
(* Allocation *)

(* Building one Apache GET script: 44 items written into a recycled
   cursor of the server's script arena, its variates drawn into a float
   array from raw bits converted in [Dist].  Measured at 0 minor words
   in dune's default dev profile (x86-64) and in a release build; 94
   in the dev profile while [Prng.float] boxed its result where it was
   not inlined, 247 while draws and drawn work
   crossed calls as boxed floats, 690 while a script was a list whose drawn steps copied a
   template and whose transmissions were emit closures over packets,
   1,366 with fresh constant steps and intermediate lists. *)
let test_get_script_words () =
  let t = Webserver.create base_cfg in
  let build () = Exec.discard (Webserver.For_testing.get_script t 0) in
  for _ = 1 to 100 do
    build ()
  done;
  let n = 2_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    build ()
  done;
  let per = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "one GET script allocates %.1f minor words (bound 1)" per)
    true (per <= 1.0)

(* End to end: minor words per completed request over a short run,
   set-up included.  The Table 3 Apache server paced by soft timers
   (web-soft) or by a 20 us hardware timer (web-irq), as perfbench runs
   them. *)
let web_cfg pacing = { base_cfg with Webserver.pacing }
let web_soft = web_cfg Webserver.Soft_pacing
let web_irq = web_cfg (Webserver.Hw_pacing (Time_ns.of_us 20.0))

let words_per_request cfg =
  let t = Webserver.create cfg in
  let before = Gc.minor_words () in
  Webserver.run t ~warmup:(sec 0.1) ~measure:(sec 0.5);
  (Gc.minor_words () -. before) /. float_of_int (Webserver.completed_requests t)

(* Measured at 54 in a dev build ([-opaque]) and in a release build;
   216 in a dev build while every [Prng.float] boxed its result.  783
   while packets, NIC batches, distribution draws and drawn work were
   boxed, 1,114 while each soft event allocated a payload
   record and a handle box and its fire delay reached the histogram as a
   boxed float, 1,409 while soft-timer deadlines and [now] crossed
   the timer-store seam as boxed int64s, 3,723 while each quantum took a
   task record and a run-queue cell and scripts were lists, 4,174 while
   the engine boxed its clock at every advance, 4,565 while client
   arrivals, links and the CPU's completions were closure events, 6,533
   before shared script steps and the slab-backed wheel. *)
let test_web_soft_words_per_request () =
  let per = words_per_request web_soft in
  Alcotest.(check bool)
    (Printf.sprintf "web-soft allocates %.0f minor words per request (bound 60)" per)
    true (per <= 60.0)

(* Measured at 71 in a dev build and in a release build; 232 in a
   dev build while [Prng.float] boxed its result; 808
   while packets, NIC batches, draws and drawn work were boxed, 4,162
   with task records and list scripts, 5,190
   with the engine's boxed clock, 6,421 with closure events (the
   pacer's tick and its per-tick dispatch callback, links, client
   arrivals). *)
let test_web_irq_words_per_request () =
  let per = words_per_request web_irq in
  Alcotest.(check bool)
    (Printf.sprintf "web-irq allocates %.0f minor words per request (bound 79)" per)
    true (per <= 79.0)

(* Every packet dies back into the server's pool, so a run boxes only as
   many packets as are ever in flight at once and recycles the rest:
   measured at 13 boxed for 6,670 acquires. *)
let test_packets_recycled () =
  let t = Webserver.create web_irq in
  Webserver.run t ~warmup:(sec 0.1) ~measure:(sec 0.5);
  let pool = Webserver.For_testing.packets t in
  let acquires = Packet.Pool.acquires pool and created = Packet.Pool.created pool in
  Alcotest.(check bool)
    (Printf.sprintf "%d packets boxed for %d acquires" created acquires)
    true
    (acquires > 5_000 && created < 50)

(* Words promoted per completed request, between two forced minor
   collections after a warm-up: what a request leaves live across a
   minor collection.  With quanta in the CPU's slot arena and scripts in
   the server's script arena, almost nothing is: 1.68 (web-soft) and
   2.72 (web-irq) measured over the 2 s window, against 220.6 and 269.7
   while quanta were records in [Stdlib.Queue]s and in-flight scripts
   were lists of hundreds of items.  The reading still follows where
   minor collections fall (1.3-2.7 words over 1-3 s windows), and a
   shorter window spreads wider, hence 2 s.  On OCaml 5.1.1 promotion
   is what the peak heap follows, so this pins the mechanism behind
   perfbench's [heap_mb]. *)
let promoted_per_request cfg =
  let t = Webserver.create cfg in
  Webserver.run t ~warmup:(sec 0.1) ~measure:(sec 0.05);
  let e = Webserver.engine t in
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words and r0 = Webserver.completed_requests t in
  Engine.run_until e Time_ns.(Engine.now e + sec 2.0);
  Gc.minor ();
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  (p1 -. p0) /. float_of_int (Webserver.completed_requests t - r0)

let test_promoted_per_request () =
  List.iter
    (fun (name, cfg) ->
      let per = promoted_per_request cfg in
      Alcotest.(check bool)
        (Printf.sprintf "%s promotes %.2f words per request (bound 5)" name per)
        true (per <= 5.0))
    [ ("web-soft", web_soft); ("web-irq", web_irq) ]

(* Every per-request engine event of the web workloads is a registered
   kind: the only closure events left are the 200 ms TCP timer sweeps
   (0.002 per request; about 190 on web-soft and 420 on web-irq while
   the CPU's completions, links, clients and timers were closure
   events). *)
let closure_runs e = List.assoc "closure" (Engine.kind_runs e)

let test_closure_events_per_request () =
  List.iter
    (fun (name, cfg) ->
      let t = Webserver.create cfg in
      Webserver.run t ~warmup:(sec 0.05) ~measure:(sec 0.05);
      let e = Webserver.engine t in
      let c0 = closure_runs e and r0 = Webserver.completed_requests t in
      Engine.run_until e Time_ns.(Engine.now e + sec 0.6);
      let per =
        float_of_int (closure_runs e - c0)
        /. float_of_int (Webserver.completed_requests t - r0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s runs %.4f closure events per request (bound 0.05)" name per)
        true (per <= 0.05))
    [ ("web-soft", web_soft); ("web-irq", web_irq) ]

(* The engine's run count per event kind over one simulated second of
   each web workload (seed 41, no warm-up): a change to the host cost
   of the request path must leave every count as it is.  The names
   repeat per link and NIC, in registration order. *)
let kind_runs_golden =
  [
    ( "web-soft",
      Webserver.Soft_pacing,
      [
        ("closure", 5); ("cpu.complete", 111009); ("machine.idle_poll", 0);
        ("machine.idle_deadline", 85); ("machine.periodic_tick", 1000); ("irq.spl", 2190);
        ("link.serialised", 3207); ("link.deliver", 3205); ("nic.rx_intr", 1703);
        ("link.serialised", 2685); ("link.deliver", 2685); ("nic.rx_intr", 1455);
        ("link.serialised", 2680); ("link.deliver", 2679); ("nic.rx_intr", 1442);
        ("web.client", 7026);
      ] );
    ( "web-irq",
      Webserver.Hw_pacing (Time_ns.of_us 20.0),
      [
        ("closure", 5); ("cpu.complete", 128026); ("machine.idle_poll", 0);
        ("machine.idle_deadline", 0); ("machine.periodic_tick", 1000); ("irq.spl", 2190);
        ("link.serialised", 2387); ("link.deliver", 2387); ("nic.rx_intr", 1293);
        ("link.serialised", 1990); ("link.deliver", 1990); ("nic.rx_intr", 1090);
        ("link.serialised", 1990); ("link.deliver", 1990); ("nic.rx_intr", 1080);
        ("web.client", 5248); ("hw_pacer.tick", 50000);
      ] );
  ]

let test_kind_runs_golden () =
  List.iter
    (fun (name, pacing, want) ->
      let t = run_server ~warmup:0.0 ~measure:1.0 { (web_cfg pacing) with Webserver.seed = 41 } in
      Alcotest.(check (list (pair string int)))
        (name ^ " kind runs") want
        (Engine.kind_runs (Webserver.engine t)))
    kind_runs_golden

let () =
  Alcotest.run "workloads"
    [
      ( "webserver-throughput",
        [
          Alcotest.test_case "apache saturates" `Slow test_apache_saturates_cpu;
          Alcotest.test_case "flash faster" `Slow test_flash_faster_than_apache;
          Alcotest.test_case "p-http faster" `Slow test_phttp_faster_than_http;
          Alcotest.test_case "deterministic per seed" `Slow test_deterministic_per_seed;
          Alcotest.test_case "background compute harmless" `Slow test_background_compute_harmless;
          Alcotest.test_case "run once" `Quick test_run_only_once;
        ] );
      ( "webserver-allocation",
        [
          Alcotest.test_case "GET script words" `Quick test_get_script_words;
          Alcotest.test_case "web-soft words per request" `Quick test_web_soft_words_per_request;
          Alcotest.test_case "web-irq words per request" `Quick test_web_irq_words_per_request;
          Alcotest.test_case "packets recycled" `Quick test_packets_recycled;
          Alcotest.test_case "promoted words per request" `Quick test_promoted_per_request;
          Alcotest.test_case "closure events per request" `Quick
            test_closure_events_per_request;
          Alcotest.test_case "kind runs golden" `Quick test_kind_runs_golden;
        ] );
      ( "webserver-triggers",
        [
          Alcotest.test_case "table-2 trigger mix" `Slow test_apache_trigger_mix;
          Alcotest.test_case "gap distribution shape" `Slow test_apache_gap_distribution_shape;
          Alcotest.test_case "xeon scaling" `Slow test_xeon_profile_scales_gaps;
        ] );
      ( "webserver-pacing-polling",
        [
          Alcotest.test_case "soft pacing cheap" `Slow test_soft_pacing_low_overhead;
          Alcotest.test_case "hw pacing expensive" `Slow test_hw_pacing_heavy_overhead;
          Alcotest.test_case "polling beats interrupts" `Slow test_polling_beats_interrupts;
          Alcotest.test_case "facility wiring" `Quick test_facility_attached_when_needed;
          Alcotest.test_case "p-http request counting" `Slow test_phttp_counts_requests_not_connections;
          Alcotest.test_case "pacing transmits all data" `Slow test_pacing_transmits_all_data;
          Alcotest.test_case "all table-2 sources present" `Slow test_all_table2_sources_present;
          Alcotest.test_case "locality override applies" `Slow test_locality_override_applies;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "nfs idle-dominated" `Slow test_nfs_idle_dominated;
          Alcotest.test_case "realaudio syscall-driven" `Slow test_realaudio_syscall_driven;
          Alcotest.test_case "kernel-build bimodal" `Slow test_kernel_build_bimodal;
          Alcotest.test_case "traps present" `Slow test_synthetic_traps_present;
        ] );
    ]
