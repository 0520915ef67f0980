(* Tests for the domain-pool runner (lib/parallel): result ordering,
   jobs-count independence, exception propagation, nesting, and the
   trace-merging determinism of [map_sim]. *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  let ys = Runner.map ~jobs:4 (fun x -> x * x) xs in
  Alcotest.(check (list int)) "squares in input order" (List.map (fun x -> x * x) xs) ys

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Runner.map ~jobs:4 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Runner.map ~jobs:4 Fun.id [ 7 ])

let test_map_jobs_independent () =
  (* Each job is a self-contained mini-simulation; every jobs value
     must give the same answer. *)
  let job seed =
    let e = Engine.create () in
    let rng = Prng.create ~seed in
    let acc = ref 0 in
    for i = 1 to 50 do
      ignore
        (Engine.schedule_at e (Int64.of_int (Prng.int rng 1_000)) (fun () -> acc := !acc + i)
          : Engine.handle)
    done;
    Engine.run e;
    (!acc, Engine.now e)
  in
  let xs = List.init 20 Fun.id in
  let seq = Runner.map ~jobs:1 job xs in
  Alcotest.(check bool) "jobs=2 equals jobs=1" true (Runner.map ~jobs:2 job xs = seq);
  Alcotest.(check bool) "jobs=4 equals jobs=1" true (Runner.map ~jobs:4 job xs = seq);
  Alcotest.(check bool) "jobs=16 equals jobs=1" true (Runner.map ~jobs:16 job xs = seq)

exception Boom of int

let test_map_raises_lowest_index () =
  (* Jobs 3 and 7 fail; the lowest-indexed failure must surface. *)
  let f x = if x = 3 || x = 7 then raise (Boom x) else x in
  Alcotest.check_raises "lowest-index exception" (Boom 3) (fun () ->
      ignore (Runner.map ~jobs:4 f (List.init 10 Fun.id) : int list))

let test_map_nested () =
  (* A job that itself maps runs its inner map sequentially — and
     correctly. *)
  let ys =
    Runner.map ~jobs:4
      (fun x -> List.fold_left ( + ) 0 (Runner.map ~jobs:4 (fun y -> (x * 10) + y) [ 1; 2; 3 ]))
      [ 1; 2 ]
  in
  Alcotest.(check (list int)) "nested map results" [ 36; 66 ] ys

let test_default_jobs () =
  Runner.set_default_jobs 3;
  Alcotest.(check int) "explicit default" 3 (Runner.default_jobs ());
  Runner.set_default_jobs 0;
  Alcotest.(check bool) "auto resolves to >= 1" true (Runner.default_jobs () >= 1);
  Runner.set_default_jobs 1;
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Runner.set_default_jobs: negative job count") (fun () ->
      Runner.set_default_jobs (-1))

(* One traced mini-simulation: emits a deterministic event pattern. *)
let traced_job seed =
  let rng = Prng.create ~seed in
  Trace.sim_start ~at:0;
  for i = 1 to 40 do
    let at = (seed * 10_000) + (i * 17) in
    Trace.poll ~at ~found:(Prng.int rng 8);
    Trace.mark ~at (Printf.sprintf "job%d.%d" seed i)
  done;
  seed

let capture_events jobs =
  let ring = Trace.create ~capacity:4096 () in
  Trace.install ring;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let r = Runner.map_sim ~jobs traced_job (List.init 6 Fun.id) in
      (r, Trace.to_list ring, Trace.dropped ring))

let test_map_sim_trace_merge () =
  (* The parent's ring after a parallel map_sim must hold exactly the
     sequential event stream, in order, with equal drop accounting. *)
  let r1, ev1, d1 = capture_events 1 in
  let r4, ev4, d4 = capture_events 4 in
  Alcotest.(check (list int)) "results equal" r1 r4;
  Alcotest.(check int) "dropped equal" d1 d4;
  Alcotest.(check bool) "event streams identical" true (ev1 = ev4);
  Alcotest.(check bool) "stream non-empty" true (ev1 <> [])

let test_map_sim_no_parent_ring () =
  (* Without an installed ring, map_sim is just map. *)
  Trace.uninstall ();
  let r = Runner.map_sim ~jobs:4 (fun x -> x + 1) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "plain results" [ 2; 3; 4 ] r

let test_map_sim_tap_forces_sequential () =
  (* With a tap installed (the sanitizer case) jobs run in the calling
     domain, so the tap sees every event synchronously. *)
  let seen = ref 0 in
  Trace.set_tap (Some (fun ~at:_ _ -> incr seen));
  Fun.protect
    ~finally:(fun () -> Trace.set_tap None)
    (fun () ->
      let r = Runner.map_sim ~jobs:4 traced_job [ 0; 1; 2 ] in
      Alcotest.(check (list int)) "results" [ 0; 1; 2 ] r;
      (* 3 jobs x (1 sim_start + 40 polls + 40 marks) *)
      Alcotest.(check int) "tap saw every event" (3 * 81) !seen)

(* One traced mini-simulation whose soft-timer events carry full
   attribution coverage: every fire's delay is covered by a cpu_run
   quantum ending at the fire, so the delay audit of the merged stream
   must be conservation-clean and byte-identical at any job count. *)
let audit_job seed =
  Trace.sim_start ~at:0;
  let rng = Prng.create ~seed in
  for i = 1 to 30 do
    let due = i * 1_000 in
    Trace.soft_sched ~at:(due - 500) ~id:i ~due;
    let late = Prng.int rng 400 in
    let at = due + late in
    if late > 0 then Trace.cpu_run ~at ~cpu:0 ~klass:(Prng.int rng 6) ~dur:late;
    Trace.soft_fire ~at ~id:i ~due;
    Trace.soft_check ~at ~src:"syscalls" ~scanned:1 ~fired:1
  done;
  seed

let test_map_sim_audit_jobs_independent () =
  let run jobs =
    let ring = Trace.create ~capacity:16_384 () in
    Trace.install ring;
    Fun.protect ~finally:Trace.uninstall (fun () ->
        ignore (Runner.map_sim ~jobs audit_job (List.init 6 Fun.id) : int list);
        let da = Delay_audit.collect ring in
        (Delay_audit.to_json da, Delay_audit.violations da, Delay_audit.late da))
  in
  let j1, v1, l1 = run 1 in
  let j4, v4, _ = run 4 in
  Alcotest.(check int) "no violations (jobs 1)" 0 v1;
  Alcotest.(check int) "no violations (jobs 4)" 0 v4;
  Alcotest.(check bool) "late fires exist" true (l1 > 0);
  Alcotest.(check string) "audit identical at jobs 1 and 4" j1 j4

(* Metrics registrations: per-job contexts are absorbed in input order,
   so readings are exact (not approximate) at any job count. *)
let m_count = Metrics.counter "test.parallel.count"
let h_lat = Metrics.histogram "test.parallel.lat"

let test_map_metrics_deterministic () =
  let job x =
    let m = Metrics.current () in
    Metrics.cell m m_count := x + 1;
    Hdr.record (Metrics.hdr m h_lat) (float_of_int (x + 1));
    x
  in
  let run jobs =
    let m = Metrics.current () in
    Metrics.reset m;
    ignore (Runner.map ~jobs job (List.init 32 Fun.id) : int list);
    let count = ref 0 and lat = ref 0 in
    Metrics.iter m (fun name v ->
        match (name, v) with
        | "test.parallel.count", Metrics.Counter c -> count := c
        | "test.parallel.lat", Metrics.Histogram h -> lat := Hdr.count h
        | _ -> ());
    (!count, !lat)
  in
  let c1, l1 = run 1 in
  let c4, l4 = run 4 in
  Alcotest.(check int) "exact counter total (jobs 1)" (32 * 33 / 2) c1;
  Alcotest.(check int) "exact counter total (jobs 4)" c1 c4;
  Alcotest.(check int) "histogram records all absorbed" 32 l1;
  Alcotest.(check int) "histogram records all absorbed (jobs 4)" 32 l4

(* The whole reading of rate-clocked experiments: every counter,
   histogram and probe of the dump is the same at jobs 2 as at jobs 1.
   The interval histogram used to be one process-wide Hdr that parallel
   jobs recorded into racily; three parallel runs all but always lost
   a record there. *)
let test_map_metrics_dump_jobs_invariant () =
  let dump jobs =
    let m = Metrics.current () in
    Metrics.reset m;
    ignore
      (Runner.map ~jobs
         (fun f -> f Exp_config.quick)
         [ Exp_rbc_process.run; Exp_rbc_wan.run; Exp_rbc_process.run; Exp_rbc_wan.run ]
        : string list);
    Metrics.dump m
  in
  let d1 = dump 1 in
  for _ = 1 to 3 do
    Alcotest.(check string) "dump at jobs 2 = jobs 1" d1 (dump 2)
  done

let () =
  Runner.set_default_jobs 1;
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "empty and singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "results independent of jobs" `Quick test_map_jobs_independent;
          Alcotest.test_case "raises lowest-index exception" `Quick test_map_raises_lowest_index;
          Alcotest.test_case "nested maps" `Quick test_map_nested;
          Alcotest.test_case "default jobs knob" `Quick test_default_jobs;
        ] );
      ( "map_sim",
        [
          Alcotest.test_case "trace merge matches sequential" `Quick test_map_sim_trace_merge;
          Alcotest.test_case "no parent ring" `Quick test_map_sim_no_parent_ring;
          Alcotest.test_case "tap forces sequential" `Quick test_map_sim_tap_forces_sequential;
          Alcotest.test_case "delay audit independent of jobs" `Quick
            test_map_sim_audit_jobs_independent;
          Alcotest.test_case "domain-local metrics deterministic" `Quick
            test_map_metrics_deterministic;
          Alcotest.test_case "metrics dump independent of jobs" `Quick
            test_map_metrics_dump_jobs_invariant;
        ] );
    ]
