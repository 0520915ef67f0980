(* The Bechamel microbenchmark suite: the operations every experiment
   cell spends most of its cycles in — Engine.schedule / fire, the
   re-arm of an engine timer and the backing event queue, the
   soft-timer schedule + fire path and its per-trigger-state check, the
   always-on observability taps, and each timer store's fast paths.

   dune exec bench/microbench.exe [-- --quota SECONDS]

   The engine rows are the numbers the PR-4 engine overhaul is judged
   by; the before/after table lives in EXPERIMENTS.md. *)

let bench_engine_schedule_fire () =
  (* Steady-state schedule+fire through the public API: one event in
     flight. *)
  let e = Engine.create () in
  let t = ref 0L in
  Bechamel.Staged.stage (fun () ->
      t := Int64.add !t 100L;
      Engine.schedule_at e !t (fun () -> ());
      ignore (Engine.step e : bool))

(* The re-arm pattern of a replaceable occurrence (a TCP sender's
   retransmission timeout, re-armed per ACK) on an engine timer: arm,
   disarm, arm again, fire.  [pending] far-future posts stay resident
   in the heap beside it. *)
let bench_engine_timer_rearm ~pending () =
  let e = Engine.create () in
  for i = 1 to pending do
    Engine.schedule_at e (Int64.of_int (1_000_000_000 + i)) (fun () -> ())
  done;
  let tm = Engine.timer e (Engine.register e ~name:"timer" ignore) ~payload:0 in
  Bechamel.Staged.stage (fun () ->
      Engine.arm_after e tm 100;
      Engine.disarm e tm;
      Engine.arm_after e tm 100;
      ignore (Engine.step e : bool))

let bench_engine_pending64 () =
  (* schedule+fire with a resident population of 64 pending events, so
     sift depth is realistic rather than trivial. *)
  let e = Engine.create () in
  for i = 1 to 64 do
    Engine.schedule_at e (Int64.of_int (1_000_000_000 + i)) (fun () -> ())
  done;
  let t = ref 0L in
  Bechamel.Staged.stage (fun () ->
      t := Int64.add !t 100L;
      Engine.schedule_at e !t (fun () -> ());
      ignore (Engine.step e : bool))

let bench_eventq_push_pop () =
  (* The specialized int-keyed 4-ary heap: 64 resident entries, one
     push+pop per iteration. *)
  let q = Eventq.create () in
  for i = 1 to 64 do
    Eventq.push q ~time:(1_000_000_000 + i) ~seq:i ~payload:i
  done;
  let counter = ref 0 in
  Bechamel.Staged.stage (fun () ->
      counter := !counter + 7_919;
      Eventq.push q ~time:!counter ~seq:!counter ~payload:0;
      Eventq.drop_min q)

let bench_softtimer_fire () =
  (* Schedule + fire one soft event through the whole facility. *)
  let engine = Engine.create () in
  let machine = Machine.create engine in
  let st = Softtimer.attach machine in
  let kind = Softtimer.register st ~name:"bench" (fun _ _ -> ()) in
  Bechamel.Staged.stage (fun () ->
      ignore (Softtimer.schedule_soft_event st ~ticks:0L kind 0 : Softtimer.handle);
      Machine.fire_trigger machine Trigger.Syscall;
      Engine.run_until engine Time_ns.(Engine.now engine + Time_ns.of_us 5.0))

let bench_timing_wheel_check () =
  (* The per-trigger-state check: next_deadline on a wheel with pending
     entries (cache-hit path). *)
  let wheel = Timing_wheel.create ~tick:10_000 () in
  for i = 1 to 64 do
    ignore (Timing_wheel.schedule wheel ~at:(i * 100_000) () : unit Timing_wheel.handle)
  done;
  Bechamel.Staged.stage (fun () -> ignore (Timing_wheel.next_deadline wheel : int))

let bench_hdr_record () =
  (* The PR-5 always-on histogram path: every soft-timer fire and
     rate-clock interval records into an Hdr unconditionally, so this
     must stay within a few tens of ns (acceptance: <= 25 ns/op). *)
  let h = Hdr.create () in
  let values =
    (* Spread across linear and log bucket regions, like real delays. *)
    [| 0.4; 1.7; 3.9; 12.5; 55.0; 240.0; 990.0; 4_321.0 |]
  in
  let i = ref 0 in
  Bechamel.Staged.stage (fun () ->
      i := (!i + 1) land 7;
      Hdr.record h values.(!i))

let bench_timeseries_event () =
  (* Steady-state tap cost: one trace event lands in the current
     window (1 ms) with time advancing 1 us per event, so a window
     flush amortizes over ~1000 events. *)
  let ts = Timeseries.create ~window:(Time_ns.of_us 1000.0) () in
  let t = ref 0L in
  Bechamel.Staged.stage (fun () ->
      t := Int64.add !t 1_000L;
      Timeseries.on_event ts ~at:!t (Trace.Poll { found = 1 }))

let bench_timeseries_window_flush () =
  (* Worst case: every event advances past the window edge, so each
     iteration closes the previous window into the bounded ring and
     opens a fresh one (the windowed counter flush). *)
  let ts = Timeseries.create ~window:(Time_ns.of_us 1.0) ~max_windows:64 () in
  let t = ref 0L in
  Bechamel.Staged.stage (fun () ->
      t := Int64.add !t 1_000L;
      Timeseries.on_event ts ~at:!t (Trace.Poll { found = 1 }))

(* The delay-audit tap hot path: [Delay_audit.on_event] runs once per
   trace event when auditing live, so the two per-check costs — folding
   a [Soft_check] over the active set and closing a fire — must stay
   cheap enough to leave the simulated hot loop unperturbed. *)

let bench_delay_audit_on_check () =
  (* Steady state: 8 late timers in flight, every event is a check that
     scanned-but-skipped them (the worst per-check fan-out). *)
  let da = Delay_audit.create () in
  let t = ref 0L in
  for i = 0 to 7 do
    Delay_audit.on_event da ~at:0L (Trace.Soft_sched { id = i; due = 1_000L })
  done;
  (* Promote past due so the 8 timers are active. *)
  Delay_audit.on_event da ~at:2_000L (Trace.Soft_check { src = "syscalls"; scanned = 8; fired = 0 });
  Bechamel.Staged.stage (fun () ->
      t := Int64.add !t 1_000L;
      Delay_audit.on_event da
        ~at:(Int64.add 2_000L !t)
        (Trace.Soft_check { src = "syscalls"; scanned = 8; fired = 0 }))

let bench_delay_audit_on_fire () =
  (* One sched+fire pair per iteration, 1 us late, with a covering
     Cpu_run quantum: the full tracked-fire close-out (span attribution,
     conservation check, aggregation, exemplar insert). *)
  let da = Delay_audit.create () in
  let t = ref 0L in
  let id = ref 0 in
  Bechamel.Staged.stage (fun () ->
      t := Int64.add !t 10_000L;
      incr id;
      let due = Int64.add !t 1_000L in
      let fire = Int64.add !t 2_000L in
      Delay_audit.on_event da ~at:!t (Trace.Soft_sched { id = !id; due });
      Delay_audit.on_event da ~at:fire
        (Trace.Cpu_run { cpu = 0; klass = 3; dur = 2_000L });
      Delay_audit.on_event da ~at:fire
        (Trace.Soft_fire { id = !id; due; delay = 1_000L });
      Delay_audit.on_event da ~at:fire
        (Trace.Soft_check { src = "syscalls"; scanned = 1; fired = 1 }))

(* Per-store fast-path costs at a steady 1024-timer population — the
   arena bench (store_arena.exe) covers the million-timer regime; these
   catch constant-factor regressions in any single backend. *)

let store_population = 1024

let bench_store_schedule_fire (module M : Timer_store.S) () =
  let t = M.create ~tick:10_000 () in
  let clock = ref 0 in
  (* 16 discrete deadline classes (distinct durations are duration-store
     buckets, so a 1024-way spread would be a degenerate setup, not a
     fast path): ~64 timers expire per class boundary, one iteration per
     10 us, replacements at the horizon. *)
  for i = 1 to store_population do
    ignore (M.schedule t ~at:(((i mod 16) + 1) * 640_000) 0 : int M.handle)
  done;
  let horizon = store_population * 10_000 in
  Bechamel.Staged.stage (fun () ->
      clock := !clock + 10_000;
      ignore (M.schedule t ~at:(!clock + horizon) 0 : int M.handle);
      ignore (M.fire_due t ~now:!clock ~limit:max_int (fun _ _ -> ()) : Fire_outcome.t))

let bench_store_rearm_churn (module M : Timer_store.S) () =
  let t = M.create ~tick:10_000 () in
  let handles = Array.init store_population (fun i -> M.schedule t ~at:((i + 1) * 10_000) 0) in
  let i = ref 0 in
  let bump = ref 0 in
  Bechamel.Staged.stage (fun () ->
      i := (!i + 1) land (store_population - 1);
      (* Deadlines shuffle within the same horizon, so nothing expires:
         pure re-arm cost (a relink of the entry's own row for the
         wheels, unlink + re-append for lawn, stale-entry + compaction
         for eventq). *)
      bump := (!bump + 70_001) mod 10_000_000;
      ignore (M.rearm t handles.(!i) ~at:(10_000 + !bump) : bool))

let store_benches () =
  List.concat_map
    (fun (module M : Timer_store.S) ->
      let open Bechamel in
      [
        Test.make
          ~name:(Printf.sprintf "store.%s.schedule_fire" M.name)
          (bench_store_schedule_fire (module M) ());
        Test.make
          ~name:(Printf.sprintf "store.%s.rearm_churn" M.name)
          (bench_store_rearm_churn (module M) ());
      ])
    Store_registry.all

let () =
  let quota = ref 1.0 in
  (match Array.to_list Sys.argv with
  | _ :: "--quota" :: v :: _ -> (
    match float_of_string_opt v with Some q when q > 0.0 -> quota := q | _ -> ())
  | _ -> ());
  let open Bechamel in
  let open Toolkit in
  let test =
    Test.make_grouped ~name:"softtimers"
      ([
        Test.make ~name:"engine.schedule+fire" (bench_engine_schedule_fire ());
        Test.make ~name:"engine.timer(arm+disarm+arm+fire)"
          (bench_engine_timer_rearm ~pending:0 ());
        Test.make ~name:"engine.schedule+fire@64pending" (bench_engine_pending64 ());
        Test.make ~name:"engine.timer(arm+disarm+arm+fire)@64pending"
          (bench_engine_timer_rearm ~pending:64 ());
        Test.make ~name:"eventq.push+pop@64" (bench_eventq_push_pop ());
        Test.make ~name:"softtimer.schedule+fire" (bench_softtimer_fire ());
        Test.make ~name:"timing_wheel.next_deadline" (bench_timing_wheel_check ());
        Test.make ~name:"hdr.record" (bench_hdr_record ());
        Test.make ~name:"timeseries.on_event" (bench_timeseries_event ());
        Test.make ~name:"timeseries.window-flush" (bench_timeseries_window_flush ());
        Test.make ~name:"delay_audit.on_check" (bench_delay_audit_on_check ());
        Test.make ~name:"delay_audit.on_fire" (bench_delay_audit_on_fire ());
      ]
      @ store_benches ())
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second !quota) ~kde:(Some 1000) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Instance.monotonic_clock results
  in
  let results = analyze (benchmark test) in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> rows := (name, Some est) :: !rows
      | Some _ | None -> rows := (name, None) :: !rows)
    results;
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "%-45s %10.1f ns/op\n" name est
      | None -> Printf.printf "%-45s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows)
