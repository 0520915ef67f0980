(* Tests for the runtime invariant sanitizer (lib/check) and the
   replay-diff trace digest. *)

let us = Time_ns.of_us
let ius x = Time_ns.to_int (us x)

(* ------------------------------------------------------------------ *)
(* Injected violations: each invariant must trip on a bad history. *)

let test_early_fire_caught () =
  let s = Sanitizer.create () in
  (* A soft timer firing 3us *before* its deadline — the injected bug. *)
  let due = us 10.0 and at = us 7.0 in
  Sanitizer.observe s ~at (Trace.Soft_fire { id = 0; due; delay = Time_ns.(at - due) });
  Alcotest.(check int) "one violation" 1 (Sanitizer.violation_count s);
  match Sanitizer.violations s with
  | [ v ] ->
    Alcotest.(check string) "rule" "EARLY_FIRE" (Sanitizer.rule_name v.Sanitizer.rule)
  | _ -> Alcotest.fail "expected exactly one violation"

let test_early_fire_fail_fast_raises () =
  let s = Sanitizer.create ~fail_fast:true () in
  let due = us 10.0 and at = us 7.0 in
  Alcotest.(check bool) "raises" true
    (try
       Sanitizer.observe s ~at (Trace.Soft_fire { id = 0; due; delay = Time_ns.(at - due) });
       false
     with Sanitizer.Violation _ -> true)

let test_on_time_fire_ok () =
  let s = Sanitizer.create () in
  (* Exactly on time, and overdue but within the backup-clock bound
     (default: 2 x 1ms periods). *)
  Sanitizer.observe s ~at:(us 10.0) (Trace.Soft_fire { id = 0; due = us 10.0; delay = 0L });
  Sanitizer.observe s ~at:(us 1800.0)
    (Trace.Soft_fire { id = 0; due = us 300.0; delay = Time_ns.(us 1800.0 - us 300.0) });
  Alcotest.(check int) "no violations" 0 (Sanitizer.violation_count s)

let test_overdue_caught () =
  let s = Sanitizer.create ~hard_clock_hz:1000.0 ~overdue_periods:2.0 () in
  (* Fired 3ms after its deadline: past the 2-period (2ms) bound. *)
  let due = us 100.0 in
  let at = Time_ns.(due + Time_ns.of_ms 3.0) in
  Sanitizer.observe s ~at (Trace.Soft_fire { id = 0; due; delay = Time_ns.(at - due) });
  Alcotest.(check int) "one violation" 1 (Sanitizer.violation_count s);
  match Sanitizer.violations s with
  | [ v ] -> Alcotest.(check string) "rule" "OVERDUE" (Sanitizer.rule_name v.Sanitizer.rule)
  | _ -> Alcotest.fail "expected exactly one violation"

let test_overdue_bound_stretches_with_irq () =
  let s = Sanitizer.create ~hard_clock_hz:1000.0 ~overdue_periods:2.0 () in
  (* A 5ms interrupt dispatch was observed: the bound must absorb it. *)
  Sanitizer.observe s ~at:(us 50.0)
    (Trace.Irq { line = "slow"; cpu = 0; dur = Time_ns.of_ms 5.0 });
  let due = us 100.0 in
  let at = Time_ns.(due + Time_ns.of_ms 6.0) in
  Sanitizer.observe s ~at (Trace.Soft_fire { id = 0; due; delay = Time_ns.(at - due) });
  Alcotest.(check int) "within stretched bound" 0 (Sanitizer.violation_count s)

let test_causality_caught () =
  let s = Sanitizer.create () in
  Sanitizer.observe s ~at:(us 100.0) (Trace.Trigger "syscall");
  Sanitizer.observe s ~at:(us 50.0) (Trace.Trigger "trap");
  Alcotest.(check int) "one violation" 1 (Sanitizer.violation_count s);
  match Sanitizer.violations s with
  | [ v ] -> Alcotest.(check string) "rule" "CAUSALITY" (Sanitizer.rule_name v.Sanitizer.rule)
  | _ -> Alcotest.fail "expected exactly one violation"

let test_sim_start_resets_causality () =
  let s = Sanitizer.create () in
  Sanitizer.observe s ~at:(us 100.0) (Trace.Trigger "syscall");
  (* A fresh simulation legitimately restarts the clock at zero. *)
  Sanitizer.observe s ~at:Time_ns.zero (Trace.Mark Trace.sim_start_mark);
  Sanitizer.observe s ~at:(us 1.0) (Trace.Trigger "trap");
  Alcotest.(check int) "no violations" 0 (Sanitizer.violation_count s)

let test_residency_caught () =
  let s = Sanitizer.create () in
  Sanitizer.check_wheel s ~at:(us 1.0) ~resident:2048 ~pending:100 ~slots:512;
  Alcotest.(check int) "one violation" 1 (Sanitizer.violation_count s);
  (match Sanitizer.violations s with
  | [ v ] ->
    Alcotest.(check string) "rule" "WHEEL_RESIDENCY" (Sanitizer.rule_name v.Sanitizer.rule)
  | _ -> Alcotest.fail "expected exactly one violation");
  (* At the bound is fine. *)
  let s2 = Sanitizer.create () in
  Sanitizer.check_wheel s2 ~at:(us 1.0) ~resident:1024 ~pending:100 ~slots:512;
  Alcotest.(check int) "bound itself ok" 0 (Sanitizer.violation_count s2)

let test_counter_decrease_caught () =
  let reg = Metrics.create () in
  let c = Metrics.cell reg (Metrics.counter "test.monotone") in
  let s = Sanitizer.create ~registry:reg () in
  c := 5;
  Sanitizer.scan_registry s ~at:(us 1.0);
  Alcotest.(check int) "first scan clean" 0 (Sanitizer.violation_count s);
  c := 2;
  Sanitizer.scan_registry s ~at:(us 2.0);
  Alcotest.(check int) "decrease caught" 1 (Sanitizer.violation_count s);
  match Sanitizer.violations s with
  | [ v ] ->
    Alcotest.(check string) "rule" "COUNTER_MONOTONE" (Sanitizer.rule_name v.Sanitizer.rule)
  | _ -> Alcotest.fail "expected exactly one violation"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_report_mentions_rule () =
  let s = Sanitizer.create () in
  let due = us 10.0 and at = us 7.0 in
  Sanitizer.observe s ~at (Trace.Soft_fire { id = 0; due; delay = Time_ns.(at - due) });
  let r = Sanitizer.report s in
  Alcotest.(check bool) "report names the rule" true (contains ~needle:"EARLY_FIRE" r)

(* ------------------------------------------------------------------ *)
(* Tap plumbing and a clean end-to-end run. *)

let test_tap_sees_events_without_ring_buffer () =
  let seen = ref 0 in
  Trace.set_tap (Some (fun ~at:_ _ -> incr seen));
  Alcotest.(check bool) "tap installed" true (Trace.tap_installed ());
  Alcotest.(check bool) "no ring buffer" false (Trace.enabled ());
  Trace.trigger ~at:(ius 1.0) "syscall";
  Trace.soft_sched ~at:(ius 1.0) ~id:0 ~due:(ius 2.0);
  Trace.set_tap None;
  Trace.trigger ~at:(ius 3.0) "syscall";
  Alcotest.(check int) "two events seen while tapped" 2 !seen;
  Alcotest.(check bool) "tap removed" false (Trace.tap_installed ())

(* A real machine + soft-timer run under the sanitizer must be clean,
   and the sanitizer must actually have seen the run. *)
let test_end_to_end_clean () =
  let s = Sanitizer.create ~fail_fast:true () in
  Sanitizer.install s;
  Fun.protect
    ~finally:(fun () -> Sanitizer.uninstall s)
    (fun () ->
      let engine = Engine.create () in
      let machine = Machine.create engine in
      let st = Softtimer.attach machine in
      let fired = ref 0 in
      let count = Softtimer.register st ~name:"count" (fun _ _ -> incr fired) in
      for i = 1 to 100 do
        ignore (Softtimer.schedule_after st (us (float_of_int (37 * i))) count 0 : Softtimer.handle)
      done;
      (* Background work so trigger states occur. *)
      let rec churn n =
        if n > 0 then
          Kernel.syscall machine ~work_us:5.0 (fun _ -> churn (n - 1))
      in
      churn 2000;
      Engine.run_until engine (Time_ns.of_ms 50.0);
      Alcotest.(check bool) "timers fired" true (!fired = 100);
      Alcotest.(check bool) "sanitizer saw events" true (Sanitizer.events_seen s > 100));
  Alcotest.(check int) "clean run" 0 (Sanitizer.violation_count s)

(* The wheel_stats accessor must satisfy the residency bound live. *)
let test_wheel_stats_within_bound () =
  let engine = Engine.create () in
  let machine = Machine.create engine in
  let st = Softtimer.attach machine in
  let noop = Softtimer.register st ~name:"noop" (fun _ _ -> ()) in
  let handles =
    List.init 200 (fun i -> Softtimer.schedule_after st (us (float_of_int (100 + i))) noop 0)
  in
  List.iteri (fun i h -> if i mod 2 = 0 then Softtimer.cancel st h) handles;
  let resident, pending, slots = Softtimer.wheel_stats st in
  Alcotest.(check bool) "pending <= resident" true (pending <= resident);
  Alcotest.(check bool) "residency bound" true (resident <= 2 * Stdlib.max pending slots)

(* ------------------------------------------------------------------ *)
(* Trace digest (replay diff). *)

let digest_of_run seed =
  let tr = Trace.create ~capacity:65536 () in
  Trace.install tr;
  Fun.protect
    ~finally:(fun () -> Trace.uninstall ())
    (fun () ->
      let engine = Engine.create () in
      let machine = Machine.create engine in
      let st = Softtimer.attach machine in
      let rng = Prng.create ~seed in
      let noop = Softtimer.register st ~name:"noop" (fun _ _ -> ()) in
      for _ = 1 to 50 do
        ignore
          (Softtimer.schedule_after st (us (Dist.draw (Dist.Uniform (10.0, 5000.0)) rng)) noop 0
            : Softtimer.handle)
      done;
      let rec churn n =
        if n > 0 then Kernel.syscall machine ~work_us:3.0 (fun _ -> churn (n - 1))
      in
      churn 500;
      Engine.run_until engine (Time_ns.of_ms 20.0);
      Trace_digest.digest tr)

let test_digest_replay_identical () =
  Alcotest.(check int64) "same seed, same digest" (digest_of_run 42) (digest_of_run 42)

let test_digest_differs_across_seeds () =
  Alcotest.(check bool) "different seed, different digest" true
    (not (Int64.equal (digest_of_run 1) (digest_of_run 2)))

let test_digest_sensitive_to_order () =
  let mk evs =
    let tr = Trace.create ~capacity:16 () in
    Trace.install tr;
    List.iter (fun (at, kind) -> Trace.trigger ~at kind) evs;
    Trace.uninstall ();
    Trace_digest.digest tr
  in
  let a = mk [ (ius 1.0, "syscall"); (ius 1.0, "trap") ] in
  let b = mk [ (ius 1.0, "trap"); (ius 1.0, "syscall") ] in
  Alcotest.(check bool) "order matters" true (not (Int64.equal a b))

let () =
  Alcotest.run "check"
    [
      ( "sanitizer-invariants",
        [
          Alcotest.test_case "early fire caught" `Quick test_early_fire_caught;
          Alcotest.test_case "fail-fast raises" `Quick test_early_fire_fail_fast_raises;
          Alcotest.test_case "on-time fire ok" `Quick test_on_time_fire_ok;
          Alcotest.test_case "overdue caught" `Quick test_overdue_caught;
          Alcotest.test_case "overdue bound stretches with irq" `Quick
            test_overdue_bound_stretches_with_irq;
          Alcotest.test_case "causality caught" `Quick test_causality_caught;
          Alcotest.test_case "sim.start resets causality" `Quick test_sim_start_resets_causality;
          Alcotest.test_case "wheel residency caught" `Quick test_residency_caught;
          Alcotest.test_case "counter decrease caught" `Quick test_counter_decrease_caught;
          Alcotest.test_case "report names rules" `Quick test_report_mentions_rule;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "tap without ring buffer" `Quick
            test_tap_sees_events_without_ring_buffer;
          Alcotest.test_case "end-to-end clean run" `Quick test_end_to_end_clean;
          Alcotest.test_case "wheel stats within bound" `Quick test_wheel_stats_within_bound;
        ] );
      ( "trace-digest",
        [
          Alcotest.test_case "replay identical" `Quick test_digest_replay_identical;
          Alcotest.test_case "seeds differ" `Quick test_digest_differs_across_seeds;
          Alcotest.test_case "order sensitive" `Quick test_digest_sensitive_to_order;
        ] );
    ]
