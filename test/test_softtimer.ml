(* Tests for the core contribution: the soft-timer facility, the
   rate-based clock, the hardware pacer baseline, network polling and
   the measurement probes.  The central property is the paper's firing
   window: T < actual < T + X + 1 measurement ticks. *)

let us = Time_ns.of_us

let fresh () =
  let e = Engine.create () in
  let m = Machine.create e in
  let st = Softtimer.attach m in
  (e, m, st)

(* A kind whose events run [f now], for a test's one-off events. *)
let on st f = Softtimer.register st ~name:"test" (fun now _ -> f now)

(* A steady synthetic trigger source: syscall every ~gap_us. *)
let start_triggers ?(gap_us = 20.0) m seed =
  let rng = Prng.create ~seed in
  let rec loop _now =
    let u = Dist.draw (Dist.Exponential gap_us) rng in
    Kernel.user m ~work_us:u (fun _ -> Kernel.syscall m ~work_us:1.0 loop)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Facility basics *)

let test_api_constants () =
  let _, _, st = fresh () in
  Alcotest.(check int64) "measure resolution = CPU Hz" 300_000_000L (Softtimer.measure_resolution st);
  Alcotest.(check int64) "interrupt clock" 1_000L (Softtimer.interrupt_clock_resolution st);
  Alcotest.(check int64) "X ratio" 300_000L (Softtimer.x_ratio st)

let test_measure_time_advances () =
  let e, _, st = fresh () in
  let t0 = Softtimer.measure_time st in
  Engine.run_until e (us 10.0);
  let t1 = Softtimer.measure_time st in
  (* 10 us at 300 MHz = 3000 ticks. *)
  Alcotest.(check int64) "3000 ticks elapsed" 3_000L (Int64.sub t1 t0)

let test_event_fires_at_trigger () =
  let e, m, st = fresh () in
  start_triggers m 1;
  let fired_at = ref None in
  let k = on st (fun now -> fired_at := Some (Time_ns.of_ns now)) in
  ignore (Softtimer.schedule_after st (us 100.0) k 0 : Softtimer.handle);
  Engine.run_until e (Time_ns.of_ms 5.0);
  (match !fired_at with
  | None -> Alcotest.fail "event never fired"
  | Some t ->
    Alcotest.(check bool) "after the delay" true Time_ns.(t >= us 100.0);
    Alcotest.(check bool) "well before the backup tick" true Time_ns.(t < us 400.0));
  Alcotest.(check int) "fired count" 1 (Softtimer.fired st);
  Alcotest.(check bool) "checks happened" true (Softtimer.checks st > 10)

let test_backup_clock_bounds_delay () =
  (* No trigger sources at all (idle machine, deadline oracle disabled by
     detaching? no: the idle oracle fires exactly on time).  Make the CPU
     busy with trigger-less background work instead, so only the 1 kHz
     backup can fire the event. *)
  let e, m, st = fresh () in
  let rec hog _now =
    Machine.submit_quantum m ~prio:Cpu.prio_user ~work_us:500.0 ~trigger:None hog
  in
  hog 0;
  let fired_at = ref None in
  let k = on st (fun now -> fired_at := Some (Time_ns.of_ns now)) in
  ignore (Softtimer.schedule_after st (us 50.0) k 0 : Softtimer.handle);
  Engine.run_until e (Time_ns.of_ms 10.0);
  match !fired_at with
  | None -> Alcotest.fail "backup never fired the event"
  | Some t ->
    Alcotest.(check bool) "not early" true Time_ns.(t >= us 50.0);
    (* One backup period (1 ms) plus handler-completion slack. *)
    Alcotest.(check bool) "within ~one backup period" true Time_ns.(t <= Time_ns.of_ms 1.6)

let test_cancel_prevents_firing () =
  let e, m, st = fresh () in
  start_triggers m 2;
  let fired = ref false in
  let h = Softtimer.schedule_after st (us 100.0) (on st (fun _ -> fired := true)) 0 in
  Alcotest.(check int) "pending" 1 (Softtimer.pending st);
  Softtimer.cancel st h;
  Alcotest.(check int) "cancelled" 0 (Softtimer.pending st);
  Engine.run_until e (Time_ns.of_ms 5.0);
  Alcotest.(check bool) "never fired" false !fired

let test_single_facility_per_machine () =
  let e = Engine.create () in
  let m = Machine.create e in
  let _st = Softtimer.attach m in
  Alcotest.check_raises "second attach rejected"
    (Invalid_argument "Softtimer.attach: a facility is already attached to this machine")
    (fun () -> ignore (Softtimer.attach m))

let test_detach_stops_firing () =
  let e, m, st = fresh () in
  start_triggers m 3;
  let fired = ref false in
  let k = on st (fun _ -> fired := true) in
  ignore (Softtimer.schedule_after st (us 50.0) k 0 : Softtimer.handle);
  Softtimer.detach st;
  Engine.run_until e (Time_ns.of_ms 5.0);
  Alcotest.(check bool) "no firing after detach" false !fired;
  (* The machine accepts a new facility afterwards. *)
  ignore (Softtimer.attach m : Softtimer.t)

let test_negative_ticks_rejected () =
  let _, _, st = fresh () in
  Alcotest.check_raises "negative" (Invalid_argument "Softtimer.schedule_soft_event: negative ticks")
    (fun () -> ignore (Softtimer.schedule_soft_event st ~ticks:(-1L) (on st ignore) 0))

(* Allocation regression: a schedule + cancel on the default store
   allocates nothing.  The event is a kind and an int payload in a row
   of the facility's slab, the facility's handle and the wheel's are
   immediate ints, the deadline reaches the wheel as an int, and the
   idle loop's deadline poke is an engine kind.  Measured at 0.0 minor
   words per op (dune's default dev profile, x86-64); 7.0 while each
   schedule allocated a payload record and a handle box, 18.8 while
   the poke was a closure event.  The list-bucket wheel with boxed tick
   arithmetic cost 40.8, the closure-packed store instance before it
   87.9. *)
let test_schedule_cancel_alloc () =
  let _, _, st = fresh () in
  let kind = on st ignore in
  let op () = Softtimer.cancel st (Softtimer.schedule_soft_event st ~ticks:1_000L kind 0) in
  for _ = 1 to 1_000 do
    op ()
  done;
  let n = 20_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    op ()
  done;
  let per_op = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "schedule + cancel allocates %.1f minor words (bound 0.1)" per_op)
    true (per_op <= 0.1)

(* One trigger-state check that fires one event on the default wheel
   allocates nothing.  The check's fire callback is built once per
   facility, the store takes [now] and hands back the deadline as ints,
   a batch is gathered into an int array, the event's row is read as
   ints, and the delay histogram takes the delay as int ns.  Measured at
   0.0 words; 5.3 while the delay reached the histogram as a boxed
   float and a long non-preemptible quantum queued every dispatch
   quantum behind it (so the CPU's slot arena grew through the run),
   12.0 while quanta took a run-queue cell, 15 with the list-bucket
   wheel's batch cell.  A user-priority hog keeps the CPU out of the
   idle loop (whose deadline poke would fire the event first); the
   dispatch quanta preempt it and complete as the clock advances. *)
let test_check_fire_alloc () =
  let e, m, st = fresh () in
  let rec hog _now =
    Machine.submit_quantum m ~prio:Cpu.prio_user ~work_us:500.0 ~trigger:None hog
  in
  hog 0;
  let kind = on st ignore in
  let words = ref 0.0 and measured = ref 0 in
  for i = 1 to 1_100 do
    ignore (Softtimer.schedule_soft_event st ~ticks:0L kind 0 : Softtimer.handle);
    Engine.run_until e Time_ns.(Engine.now e + us 1.0);
    let fired = Softtimer.fired st in
    let before = Gc.minor_words () in
    Machine.fire_trigger m Trigger.Syscall;
    let w = Gc.minor_words () -. before in
    (* The backup clock may have fired the event first; count only the
       checks that fired it, after a warm-up. *)
    if i > 100 && Softtimer.fired st = fired + 1 then begin
      words := !words +. w;
      incr measured
    end
  done;
  let per_check = !words /. float_of_int !measured in
  Alcotest.(check bool) "most checks fired the event" true (!measured >= 900);
  Alcotest.(check bool)
    (Printf.sprintf "check + fire allocates %.1f minor words (bound 0.1)" per_check)
    true (per_check <= 0.1)

(* The store reads of the check path, counted by a wheel whose
   [next_deadline] counts its calls.  On a machine a user-priority hog
   keeps busy, each check fires the event its kind's handler
   rescheduled at the previous one, and reads the store once: the
   handler's schedule has no idle checker to wake, so it reads
   nothing.  On an idle machine, a schedule does read it, to re-arm
   the idle checker, which fires the event on time. *)
let counting_wheel calls : (module Timer_store.S) =
  let (module W : Timer_store.S) = Timer_store.wheel () in
  (module struct
    include W

    let next_deadline t =
      incr calls;
      W.next_deadline t
  end)

let test_one_read_per_firing_check () =
  let calls = ref 0 in
  let e = Engine.create () in
  let m = Machine.create e in
  let st = Softtimer.attach ~store:(counting_wheel calls) m in
  let rec hog _now =
    Machine.submit_quantum m ~prio:Cpu.prio_user ~work_us:500.0 ~trigger:None hog
  in
  hog 0;
  start_triggers m 3;
  let kind = ref Softtimer.null_kind in
  let arm () = ignore (Softtimer.schedule_soft_event st ~ticks:0L !kind 0 : Softtimer.handle) in
  kind := Softtimer.register st ~name:"again" (fun _ _ -> arm ());
  arm ();
  Engine.run_until e (us 100.0);
  let c0 = !calls and checks0 = Softtimer.checks st and fired0 = Softtimer.fired st in
  Engine.run_until e (Time_ns.of_ms 100.0);
  let checks = Softtimer.checks st - checks0 in
  Alcotest.(check bool) (Printf.sprintf "many checks (%d)" checks) true (checks > 200);
  Alcotest.(check int) "every check fires" checks (Softtimer.fired st - fired0);
  Alcotest.(check int) "one next_deadline per firing check" checks (!calls - c0);
  let calls = ref 0 in
  let e = Engine.create () in
  let m = Machine.create e in
  let st = Softtimer.attach ~store:(counting_wheel calls) m in
  let fired_at = ref (-1) in
  let k = Softtimer.register st ~name:"once" (fun now _ -> fired_at := now) in
  Engine.run_until e (us 10.0);
  let c0 = !calls in
  ignore (Softtimer.schedule_after_ns st 50_000 k 0 : Softtimer.handle);
  Alcotest.(check bool) "an idle machine's schedule reads the store" true (!calls > c0);
  Engine.run_until e (Time_ns.of_ms 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "the idle checker fires it on time (at %d ns)" !fired_at)
    true
    (!fired_at >= 60_000 && !fired_at < 61_000)

(* The handle contract.  A facility on a machine kept busy by a
   user-priority hog, so that no idle check fires an event behind the
   test's back: events fire at the test's [Machine.fire_trigger] calls
   (the backup clock's first tick, at 1 ms, is never reached). *)
let busy () =
  let e, m, st = fresh () in
  let rec hog _now =
    Machine.submit_quantum m ~prio:Cpu.prio_user ~work_us:500.0 ~trigger:None hog
  in
  hog 0;
  let check () =
    Engine.run_until e Time_ns.(Engine.now e + us 2.0);
    Machine.fire_trigger m Trigger.Syscall
  in
  (st, check)

let row (h : Softtimer.handle) = (h :> int) land 0xFF_FFFF

(* A fired event's handle is stale: [cancel] does nothing, [rearm]
   refuses, and neither touches a later event that reuses its row. *)
let test_fired_handle_stale () =
  let st, check = busy () in
  let fired = ref [] in
  let k = Softtimer.register st ~name:"record" (fun _ p -> fired := p :: !fired) in
  let h1 = Softtimer.schedule_soft_event st ~ticks:0L k 1 in
  check ();
  Alcotest.(check (list int)) "fired" [ 1 ] !fired;
  Alcotest.(check int) "nothing pending" 0 (Softtimer.pending st);
  Softtimer.cancel st h1;
  Alcotest.(check bool) "rearm refused" false (Softtimer.rearm st h1 ~ticks:0L);
  Alcotest.(check int) "still nothing pending" 0 (Softtimer.pending st);
  let h2 = Softtimer.schedule_soft_event st ~ticks:0L k 2 in
  Alcotest.(check int) "row reused" (row h1) (row h2);
  Alcotest.(check bool) "fresh handle" true ((h1 :> int) <> (h2 :> int));
  Softtimer.cancel st h1;
  Alcotest.(check bool) "rearm still refused" false (Softtimer.rearm st h1 ~ticks:0L);
  Alcotest.(check int) "the new event is pending" 1 (Softtimer.pending st);
  check ();
  Alcotest.(check (list int)) "the new event fired" [ 2; 1 ] !fired;
  Alcotest.(check (list (pair string int))) "fires by kind" [ ("record", 2) ]
    (Softtimer.kind_fires st)

(* A handler that schedules on its own kind gets a fresh handle (its
   own row is already free, so the new event may take it), while the
   fired handle stays stale. *)
let test_handler_reschedules_own_kind () =
  let st, check = busy () in
  let outer = ref Softtimer.no_handle and inner = ref Softtimer.no_handle in
  let k = ref Softtimer.null_kind in
  k :=
    Softtimer.register st ~name:"again" (fun _ n ->
        if n = 0 then inner := Softtimer.schedule_soft_event st ~ticks:0L !k 1);
  outer := Softtimer.schedule_soft_event st ~ticks:0L !k 0;
  check ();
  Alcotest.(check bool) "fresh handle" true ((!inner :> int) <> (!outer :> int));
  Alcotest.(check int) "the rescheduled event is pending" 1 (Softtimer.pending st);
  Alcotest.(check bool) "fired handle stale" false (Softtimer.rearm st !outer ~ticks:0L);
  Alcotest.(check bool) "new handle live" true (Softtimer.rearm st !inner ~ticks:0L);
  Softtimer.cancel st !inner;
  Alcotest.(check int) "cancelled" 0 (Softtimer.pending st)

(* A raising handler settles its own event before the exception leaves
   the check: not pending, its row free for the next schedule.  The
   rest of its due batch stays pending and fires at the next check in
   (deadline, tie) order. *)
exception Boom

let test_raising_handler_settles () =
  let st, check = busy () in
  let fired = ref [] in
  let boom = Softtimer.register st ~name:"boom" (fun _ _ -> raise Boom) in
  let k = Softtimer.register st ~name:"record" (fun _ p -> fired := p :: !fired) in
  let raiser = Softtimer.schedule_soft_event st ~ticks:0L boom 0 in
  ignore (Softtimer.schedule_soft_event st ~ticks:300L k 2 : Softtimer.handle);
  ignore (Softtimer.schedule_soft_event st ~ticks:0L k 1 : Softtimer.handle);
  Alcotest.check_raises "the check re-raises" Boom check;
  Alcotest.(check (list int)) "the batch stopped" [] !fired;
  Alcotest.(check int) "the rest still pending" 2 (Softtimer.pending st);
  Alcotest.(check bool) "raiser settled" false (Softtimer.rearm st raiser ~ticks:0L);
  let next = Softtimer.schedule_soft_event st ~ticks:Int64.max_int k 3 in
  Alcotest.(check int) "raiser's row free" (row raiser) (row next);
  Softtimer.cancel st next;
  check ();
  Alcotest.(check (list int)) "rest fired in (deadline, tie) order" [ 1; 2 ] (List.rev !fired);
  Alcotest.(check int) "nothing pending" 0 (Softtimer.pending st)

(* Far-future deadlines saturate at the end of time rather than wrap:
   on an idle machine, spans whose deadline lands at or past 2^62 ns
   once livelocked the idle check (the wrapped deadline armed a wake-up
   in the past, forever), and [Int64.max_int] fired at once.  Every
   span, and a re-arm by [Int64.max_int] ticks, must leave its event
   pending at 5 ms with the clock there.  Steps are budgeted so that a
   livelock fails instead of hanging. *)
let test_far_deadlines_stay_pending () =
  let run_to_5ms e =
    let reached = ref false in
    Engine.schedule_at e (Time_ns.of_ms 5.0) (fun () -> reached := true);
    let steps = ref 0 in
    while (not !reached) && !steps < 100_000 && Engine.step e do
      incr steps
    done;
    Alcotest.(check int) "clock at 5 ms" 5_000_000 (Engine.now_i e)
  in
  let check what arm =
    let e, _, st = fresh () in
    let fired = ref false in
    arm st (on st (fun _ -> fired := true));
    run_to_5ms e;
    Alcotest.(check bool) (what ^ ": not fired") false !fired;
    Alcotest.(check int) (what ^ ": still pending") 1 (Softtimer.pending st)
  in
  List.iter
    (fun (what, span) ->
      check what (fun st k -> ignore (Softtimer.schedule_after st span k 0 : Softtimer.handle)))
    [
      ("2^61 ns", Int64.shift_left 1L 61);
      ("2^62 - 1 ns", Int64.of_int max_int);
      ("5e18 ns", 5_000_000_000_000_000_000L);
      ("Int64.max_int ns", Int64.max_int);
    ];
  check "rearm by Int64.max_int ticks" (fun st k ->
      let h = Softtimer.schedule_soft_event st ~ticks:0L k 0 in
      Alcotest.(check bool) "rearm accepted" true (Softtimer.rearm st h ~ticks:Int64.max_int))

(* Every fire records its delay in the facility's context, under
   [softtimer.fire_delay_us]; a fresh context counts this run alone. *)
let test_delay_recording () =
  let outer = Metrics.Local.swap_fresh () in
  let ctx = Metrics.current () in
  Fun.protect ~finally:(fun () -> ignore (Metrics.Local.swap outer : Metrics.t)) (fun () ->
      let e, m, st = fresh () in
      start_triggers m 4;
      let noop = on st ignore in
      for _ = 1 to 20 do
        ignore (Softtimer.schedule_after st (us 30.0) noop 0 : Softtimer.handle)
      done;
      Engine.run_until e (Time_ns.of_ms 20.0);
      let d = Metrics.hdr ctx (Metrics.histogram "softtimer.fire_delay_us") in
      Alcotest.(check int) "all delays recorded" 20 (Hdr.count d);
      Alcotest.(check bool) "delays non-negative" true (Hdr.min d >= 0.0))

(* The paper's bound, as a property over random T and trigger gaps. *)
let test_bounds_property =
  QCheck.Test.make ~name:"T < actual <= T + X + 1 ticks" ~count:60
    QCheck.(pair (int_range 0 200_000) (int_range 5 200))
    (fun (ticks, gap_us) ->
      let e, m, st = fresh () in
      start_triggers ~gap_us:(float_of_int gap_us) m (ticks + gap_us);
      let sched = Softtimer.measure_time st in
      let ok = ref None in
      let check now =
        let actual_ticks = float_of_int now /. 1e9 *. 300e6 -. Int64.to_float sched in
        let x = Int64.to_float (Softtimer.x_ratio st) in
        ok :=
          Some
            (actual_ticks > float_of_int ticks
            && actual_ticks <= float_of_int ticks +. x +. 1.0 +. 2_000.0
               (* 2000 ticks (~6.6 us) of slack for the backup tick's
                  own handler completion time *))
      in
      ignore
        (Softtimer.schedule_soft_event st ~ticks:(Int64.of_int ticks) (on st check) 0
          : Softtimer.handle);
      Engine.run_until e (Time_ns.of_sec 0.05);
      !ok = Some true)

let test_idle_cpu_rescues_busy_machine () =
  (* Â§5.3: with every CPU compute-bound and trigger-less, events wait
     for the backup clock; an extra idle CPU restores exact firing. *)
  let lateness ~cpus =
    let e = Engine.create () in
    let m = Machine.create ~cpus e in
    let st = Softtimer.attach m in
    let rec hog _now =
      Machine.submit_quantum m ~cpu:0 ~prio:Cpu.prio_user ~work_us:700.0 ~trigger:None hog
    in
    hog 0;
    let late = Stats.Sample.create () in
    (* The payload is the schedule instant in ns. *)
    let periodic = ref Softtimer.null_kind in
    let arm () =
      ignore (Softtimer.schedule_after st (us 100.0) !periodic (Engine.now_i e) : Softtimer.handle)
    in
    periodic :=
      Softtimer.register st ~name:"periodic" (fun now at ->
          Stats.Sample.add late (Time_ns.to_us (Time_ns.of_ns (now - at)) -. 100.0);
          arm ());
    arm ();
    Engine.run_until e (Time_ns.of_sec 0.5);
    Stats.Sample.mean late
  in
  let single = lateness ~cpus:1 and dual = lateness ~cpus:2 in
  Alcotest.(check bool)
    (Printf.sprintf "single-cpu waits for the backup (mean %.0f us)" single)
    true (single > 300.0);
  Alcotest.(check bool)
    (Printf.sprintf "idle second cpu fires on time (mean %.1f us)" dual)
    true (dual < 5.0)

(* ------------------------------------------------------------------ *)
(* Rate_clock *)

let test_rate_clock_converges_to_target () =
  let e, m, st = fresh () in
  start_triggers ~gap_us:8.0 m 5;
  let sends = ref 0 in
  let clock =
    Rate_clock.create st
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~target_interval:(us 50.0) ~min_interval:(us 12.0)
      ~send:(fun _ -> incr sends; true)
      ()
  in
  Rate_clock.start clock;
  Engine.run_until e (Time_ns.of_sec 1.0);
  let expected = 1_000_000.0 /. 50.0 in
  let got = float_of_int !sends in
  Alcotest.(check bool)
    (Printf.sprintf "~%.0f sends (got %d)" expected !sends)
    true
    (Float.abs (got -. expected) < 0.05 *. expected);
  let iv = Rate_clock.intervals clock in
  Alcotest.(check bool) "mean interval ~ target" true
    (Float.abs (Hdr.mean iv -. 50.0) < 3.0)

let test_rate_clock_respects_min_interval () =
  let e, m, st = fresh () in
  start_triggers ~gap_us:2.0 m 6;
  let clock =
    Rate_clock.create st
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~target_interval:(us 50.0) ~min_interval:(us 10.0)
      ~send:(fun _ -> true)
      ()
  in
  Rate_clock.start clock;
  Engine.run_until e (Time_ns.of_sec 0.3);
  let iv = Rate_clock.intervals clock in
  (* No interval may undercut the burst bound (tick rounding aside). *)
  Alcotest.(check bool) "min respected" true (Hdr.min iv >= 9.9)

let test_rate_clock_train_ends_and_kicks () =
  let e, m, st = fresh () in
  start_triggers ~gap_us:10.0 m 7;
  let budget = ref 5 in
  let clock =
    Rate_clock.create st ~target_interval:(us 40.0) ~min_interval:(us 12.0)
      ~send:(fun _ -> if !budget > 0 then (decr budget; true) else false)
      ()
  in
  Rate_clock.start clock;
  Engine.run_until e (Time_ns.of_sec 0.1);
  Alcotest.(check int) "train drained the budget" 5 (Rate_clock.sends clock);
  Alcotest.(check bool) "clock idle after empty send" false (Rate_clock.active clock);
  budget := 3;
  Rate_clock.kick clock;
  Engine.run_until e Time_ns.(Engine.now e + Time_ns.of_sec 0.1);
  Alcotest.(check int) "kick starts a new train" 8 (Rate_clock.sends clock)

let test_rate_clock_stop () =
  let e, m, st = fresh () in
  start_triggers m 8;
  let clock =
    Rate_clock.create st ~target_interval:(us 40.0) ~min_interval:(us 12.0)
      ~send:(fun _ -> true)
      ()
  in
  Rate_clock.start clock;
  Engine.run_until e (Time_ns.of_sec 0.05);
  Rate_clock.stop clock;
  let n = Rate_clock.sends clock in
  Engine.run_until e Time_ns.(Engine.now e + Time_ns.of_sec 0.1);
  Alcotest.(check int) "no sends after stop" n (Rate_clock.sends clock)

let test_two_clocks_different_rates () =
  (* Â§5.7: soft timers can clock multiple connections simultaneously at
     different rates -- impossible with a single hardware timer. *)
  let e, m, st = fresh () in
  start_triggers ~gap_us:6.0 m 12;
  let mk target =
    let sends = ref 0 in
    let clock =
      Rate_clock.create st ~target_interval:(us target) ~min_interval:(us 12.0)
        ~send:(fun _ -> incr sends; true)
        ()
    in
    Rate_clock.start clock;
    (clock, sends)
  in
  let _c1, s1 = mk 50.0 in
  let _c2, s2 = mk 200.0 in
  Engine.run_until e (Time_ns.of_sec 1.0);
  let r1 = float_of_int !s1 and r2 = float_of_int !s2 in
  Alcotest.(check bool) (Printf.sprintf "fast clock ~20k (got %.0f)" r1) true
    (Float.abs (r1 -. 20_000.0) < 1_500.0);
  Alcotest.(check bool) (Printf.sprintf "slow clock ~5k (got %.0f)" r2) true
    (Float.abs (r2 -. 5_000.0) < 400.0)

let test_rate_clock_invalid_args () =
  let _, _, st = fresh () in
  Alcotest.check_raises "min > target"
    (Invalid_argument "Rate_clock.create: need 0 < min_interval <= target_interval") (fun () ->
      ignore
        (Rate_clock.create st ~target_interval:(us 10.0) ~min_interval:(us 20.0)
           ~send:(fun _ -> true)
           ()))

let test_rate_clock_memory_bounded () =
  (* Regression: [intervals] used to retain one float per send
     (Stats.Sample.t), i.e. unbounded memory on a long-lived clock — a
     million sends a million floats.  The Hdr store must record every
     gap while staying at a few hundred buckets. *)
  let e, m, st = fresh () in
  start_triggers ~gap_us:4.0 m 9;
  let clock =
    (* Private histogram: this test counts exactly the gaps of this one
       clock, which the shared cohort default would fold together. *)
    Rate_clock.create st
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~target_interval:(us 12.0) ~min_interval:(us 12.0)
      ~send:(fun _ -> true)
      ()
  in
  Rate_clock.start clock;
  Engine.run_until e (Time_ns.of_sec 18.0);
  Rate_clock.stop clock;
  let iv = Rate_clock.intervals clock in
  let sends = Rate_clock.sends clock in
  Alcotest.(check bool)
    (Printf.sprintf "over 1e6 sends (got %d)" sends)
    true (sends >= 1_000_000);
  (* One train, so every send but the first has a recorded gap: nothing
     was sampled away. *)
  Alcotest.(check int) "every gap recorded" (sends - 1) (Hdr.count iv);
  Alcotest.(check bool)
    (Printf.sprintf "bounded store: %d buckets" (Hdr.bucket_count iv))
    true
    (Hdr.bucket_count iv < 1024)

(* One steady-state send of a single rate clock: the trigger-state check
   that fires its event, the send and the reschedule.  The soft event is
   the clock's kind, registered once, and the clock keeps its times in
   int ns, so a send allocates nothing.  Measured at 0.0 minor words per
   send; 12.0 while the send instant, [last_send] and the span handed to
   the reschedule were boxed [Time_ns] values, 36.0 while each
   reschedule built a closure, a [Some] handle, a payload record and a
   handle box and the gaps reached the histograms as a boxed float.  A
   user-priority hog keeps the idle loop from firing the event. *)
let test_rate_clock_send_alloc () =
  let e, m, st = fresh () in
  let rec hog _now =
    Machine.submit_quantum m ~prio:Cpu.prio_user ~work_us:500.0 ~trigger:None hog
  in
  hog 0;
  let clock =
    Rate_clock.create st ~target_interval:(us 5.0) ~min_interval:(us 2.0)
      ~send:(fun _ -> true)
      ()
  in
  Rate_clock.start clock;
  let words = ref 0.0 and measured = ref 0 in
  for i = 1 to 1_100 do
    Engine.run_until e Time_ns.(Engine.now e + us 3.0);
    let sends = Rate_clock.sends clock in
    let before = Gc.minor_words () in
    Machine.fire_trigger m Trigger.Syscall;
    let w = Gc.minor_words () -. before in
    if i > 100 && Rate_clock.sends clock = sends + 1 then begin
      words := !words +. w;
      incr measured
    end
  done;
  let per_send = !words /. float_of_int !measured in
  Alcotest.(check bool) "many checks sent" true (!measured >= 500);
  Alcotest.(check bool)
    (Printf.sprintf "one send allocates %.2f minor words (bound 0.1)" per_send)
    true (per_send <= 0.1)

(* ------------------------------------------------------------------ *)
(* Hw_pacer *)

let test_hw_pacer_paces_at_interval () =
  let e = Engine.create () in
  let m = Machine.create e in
  let pacer = Hw_pacer.create m ~interval:(us 100.0) ~send:(fun _ -> true) () in
  Hw_pacer.start pacer;
  Engine.run_until e (Time_ns.of_sec 0.5);
  let iv = Hw_pacer.intervals pacer in
  Alcotest.(check bool)
    (Printf.sprintf "mean ~100us (got %.1f)" (Hdr.mean iv))
    true
    (Float.abs (Hdr.mean iv -. 100.0) < 3.0);
  Alcotest.(check bool) "~5000 sends" true (abs (Hw_pacer.sends pacer - 5_000) < 100)

let test_hw_pacer_pays_interrupt_cost () =
  let e = Engine.create () in
  let m = Machine.create e in
  let pacer = Hw_pacer.create m ~interval:(us 50.0) ~send:(fun _ -> false) () in
  Hw_pacer.start pacer;
  Engine.run_until e (Time_ns.of_sec 0.1);
  (* ~2000 ticks, each costing >= 4.45 us of interrupt overhead even
     though nothing was pending. *)
  let busy_us = Time_ns.to_us (Cpu.busy_ns (Machine.cpu m)) in
  Alcotest.(check bool)
    (Printf.sprintf "ticks cost CPU (%.0f us)" busy_us)
    true (busy_us > 2_000.0 *. 4.4);
  Alcotest.(check int) "no sends" 0 (Hw_pacer.sends pacer)

let test_hw_pacer_stop () =
  let e = Engine.create () in
  let m = Machine.create e in
  let pacer = Hw_pacer.create m ~interval:(us 100.0) ~send:(fun _ -> true) () in
  Hw_pacer.start pacer;
  Engine.run_until e (Time_ns.of_sec 0.05);
  Hw_pacer.stop pacer;
  let n = Hw_pacer.sends pacer in
  Engine.run_until e Time_ns.(Engine.now e + Time_ns.of_sec 0.1);
  Alcotest.(check int) "stopped" n (Hw_pacer.sends pacer)

(* ------------------------------------------------------------------ *)
(* Net_poll *)

let test_net_poll_adapts_interval () =
  let e, m, st = fresh () in
  start_triggers ~gap_us:5.0 m 9;
  (* A synthetic "ring": packets accumulate at a constant 1 per 40 us. *)
  let backlog = ref 0.0 in
  let last = ref 0 in
  let poll now =
    let dt = float_of_int (now - !last) /. 1e3 in
    last := now;
    backlog := !backlog +. (dt /. 40.0);
    let take = int_of_float !backlog in
    backlog := !backlog -. float_of_int take;
    take
  in
  let poller = Net_poll.create st ~quota:4.0 ~poll () in
  Net_poll.start poller;
  Engine.run_until e (Time_ns.of_sec 1.0);
  let mean_batch = Net_poll.mean_batch poller in
  Alcotest.(check bool)
    (Printf.sprintf "mean batch near quota (got %.2f)" mean_batch)
    true
    (mean_batch > 2.6 && mean_batch < 6.0);
  let iv = Time_ns.to_us (Net_poll.current_interval poller) in
  Alcotest.(check bool)
    (Printf.sprintf "interval near 160us (got %.1f)" iv)
    true (iv > 90.0 && iv < 260.0)

let test_net_poll_bounds_respected () =
  let e, m, st = fresh () in
  start_triggers ~gap_us:5.0 m 10;
  (* Nothing ever found: the interval must grow to its cap and stop. *)
  let poller =
    Net_poll.create st ~quota:2.0 ~poll:(fun _ -> 0) ~max_interval:(Time_ns.of_us 500.0) ()
  in
  Net_poll.start poller;
  Engine.run_until e (Time_ns.of_sec 0.5);
  Alcotest.(check int64) "capped at max" (Time_ns.of_us 500.0) (Net_poll.current_interval poller);
  Net_poll.stop poller;
  let polls = Net_poll.polls poller in
  Engine.run_until e Time_ns.(Engine.now e + Time_ns.of_sec 0.2);
  Alcotest.(check int) "stopped" polls (Net_poll.polls poller)

let test_net_poll_invalid_quota () =
  let _, _, st = fresh () in
  Alcotest.check_raises "quota <= 0" (Invalid_argument "Net_poll.create: quota must be positive")
    (fun () -> ignore (Net_poll.create st ~quota:0.0 ~poll:(fun _ -> 0) ()))

(* ------------------------------------------------------------------ *)
(* Delay_probe *)

let test_gap_recorder_filters () =
  let _, m, _ = fresh () in
  let all = Delay_probe.Gap_recorder.attach m in
  let only_sys = Delay_probe.Gap_recorder.attach ~include_kinds:[ Trigger.Syscall ] m in
  let no_sys = Delay_probe.Gap_recorder.attach ~exclude_kinds:[ Trigger.Syscall ] m in
  Machine.fire_trigger m Trigger.Syscall;
  Machine.fire_trigger m Trigger.Trap;
  Machine.fire_trigger m Trigger.Syscall;
  Alcotest.(check int) "all" 3 (Delay_probe.Gap_recorder.total all);
  Alcotest.(check int) "only syscalls" 2 (Delay_probe.Gap_recorder.total only_sys);
  Alcotest.(check int) "without syscalls" 1 (Delay_probe.Gap_recorder.total no_sys);
  Alcotest.(check int) "count by kind" 2 (Delay_probe.Gap_recorder.count all Trigger.Syscall)

let test_gap_recorder_source_fractions () =
  let _, m, _ = fresh () in
  let r = Delay_probe.Gap_recorder.attach m in
  for _ = 1 to 3 do
    Machine.fire_trigger m Trigger.Syscall
  done;
  Machine.fire_trigger m Trigger.Ip_output;
  (* Clock ticks are excluded from the Table 2 accounting. *)
  Machine.fire_trigger m Trigger.Clock_tick;
  let fr = Delay_probe.Gap_recorder.source_fractions r in
  Alcotest.(check (float 1e-9)) "syscalls 75%" 0.75 (List.assoc Trigger.Syscall fr);
  Alcotest.(check (float 1e-9)) "ip-output 25%" 0.25 (List.assoc Trigger.Ip_output fr)

let test_event_delay_probe () =
  let e, m, st = fresh () in
  start_triggers ~gap_us:25.0 m 11;
  let probe = Delay_probe.Event_delay.start_periodic st ~ticks:0L in
  Engine.run_until e (Time_ns.of_sec 0.5);
  Delay_probe.Event_delay.stop probe;
  let inter = Delay_probe.Event_delay.inter_firing probe in
  Alcotest.(check bool) "fired a lot" true (Delay_probe.Event_delay.fired probe > 1_000);
  (* With T=0, firings track trigger states: mean inter-firing time is
     close to the trigger gap mean (~26 us with the syscall cost). *)
  let mean = Stats.Sample.mean inter in
  Alcotest.(check bool)
    (Printf.sprintf "mean inter-firing ~ trigger gap (got %.1f)" mean)
    true
    (mean > 18.0 && mean < 38.0)

(* ------------------------------------------------------------------ *)
(* Delay-audit conservation: for random workloads, random check
   budgets and EVERY registered timer store, the forensic attribution
   must partition each fire's delay exactly — segments sum to
   [fire_at - due] with zero violations, and the fire counts
   reconcile.  This is the tentpole's conservation contract checked
   end-to-end through the real machine, not a synthetic stream. *)
let audit_one_store ~seed ~budget (module M : Timer_store.S) =
  Softtimer.set_default_check_budget budget;
  Fun.protect
    ~finally:(fun () -> Softtimer.set_default_check_budget max_int)
    (fun () ->
      let e = Engine.create () in
      let m = Machine.create e in
      let st = Softtimer.attach ~store:(module M) m in
      let tr = Trace.create ~capacity:262_144 () in
      Trace.install tr;
      Fun.protect ~finally:Trace.uninstall (fun () ->
          start_triggers m seed;
          let rng = Prng.create ~seed:(seed + 1) in
          let noop = on st ignore and next = ref Softtimer.null_kind in
          let client _now n =
            if n < 80 then begin
              let d = 20.0 +. Dist.draw (Dist.Exponential 80.0) rng in
              let h = Softtimer.schedule_after st (us d) noop 0 in
              if Prng.int rng 4 = 0 then Softtimer.cancel st h;
              ignore (Softtimer.schedule_after st (us 30.0) !next (n + 1) : Softtimer.handle)
            end
          in
          next := Softtimer.register st ~name:"client" client;
          client 0 0;
          Engine.run_until e (Time_ns.of_ms 8.0);
          Softtimer.detach st;
          let da = Delay_audit.collect tr in
          Trace.dropped tr = 0
          && Delay_audit.violations da = 0
          && Delay_audit.fired da
             = Delay_audit.ontime da + Delay_audit.late da + Delay_audit.untracked da
          && Delay_audit.untracked da = 0
          && List.for_all
               (fun x ->
                 Int64.equal x.Delay_audit.x_delay
                   (Array.fold_left Int64.add 0L x.Delay_audit.x_segs))
               (Delay_audit.exemplars da)))

let test_audit_conservation_property =
  QCheck.Test.make ~name:"delay-audit conservation (all stores, random budgets)" ~count:15
    QCheck.(pair (int_range 1 1_000) (int_range 1 4))
    (fun (seed, budget) ->
      List.for_all (audit_one_store ~seed ~budget) Store_registry.all)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "softtimer"
    [
      ( "facility",
        [
          Alcotest.test_case "API constants" `Quick test_api_constants;
          Alcotest.test_case "measure_time advances" `Quick test_measure_time_advances;
          Alcotest.test_case "fires at trigger state" `Quick test_event_fires_at_trigger;
          Alcotest.test_case "backup bounds delay" `Quick test_backup_clock_bounds_delay;
          Alcotest.test_case "cancel" `Quick test_cancel_prevents_firing;
          Alcotest.test_case "one facility per machine" `Quick test_single_facility_per_machine;
          Alcotest.test_case "detach" `Quick test_detach_stops_firing;
          Alcotest.test_case "negative ticks rejected" `Quick test_negative_ticks_rejected;
          Alcotest.test_case "delay recording" `Quick test_delay_recording;
          Alcotest.test_case "idle cpu rescues busy machine" `Quick
            test_idle_cpu_rescues_busy_machine;
          qc test_bounds_property;
          Alcotest.test_case "schedule + cancel allocation" `Quick test_schedule_cancel_alloc;
          Alcotest.test_case "check + fire allocation" `Quick test_check_fire_alloc;
          Alcotest.test_case "far deadlines stay pending" `Quick test_far_deadlines_stay_pending;
          Alcotest.test_case "fired handle is stale" `Quick test_fired_handle_stale;
          Alcotest.test_case "handler reschedules its kind" `Quick
            test_handler_reschedules_own_kind;
          Alcotest.test_case "raising handler settles" `Quick test_raising_handler_settles;
          Alcotest.test_case "one store read per firing check" `Quick
            test_one_read_per_firing_check;
        ] );
      ("delay_audit", [ qc test_audit_conservation_property ]);
      ( "rate_clock",
        [
          Alcotest.test_case "converges to target rate" `Quick test_rate_clock_converges_to_target;
          Alcotest.test_case "respects min interval" `Quick test_rate_clock_respects_min_interval;
          Alcotest.test_case "train end and kick" `Quick test_rate_clock_train_ends_and_kicks;
          Alcotest.test_case "stop" `Quick test_rate_clock_stop;
          Alcotest.test_case "invalid args" `Quick test_rate_clock_invalid_args;
          Alcotest.test_case "two clocks, two rates" `Quick test_two_clocks_different_rates;
          Alcotest.test_case "memory bounded at 1e6 sends" `Quick test_rate_clock_memory_bounded;
          Alcotest.test_case "send allocation" `Quick test_rate_clock_send_alloc;
        ] );
      ( "hw_pacer",
        [
          Alcotest.test_case "paces at interval" `Quick test_hw_pacer_paces_at_interval;
          Alcotest.test_case "pays interrupt cost" `Quick test_hw_pacer_pays_interrupt_cost;
          Alcotest.test_case "stop" `Quick test_hw_pacer_stop;
        ] );
      ( "net_poll",
        [
          Alcotest.test_case "adapts toward quota" `Quick test_net_poll_adapts_interval;
          Alcotest.test_case "bounds respected / stop" `Quick test_net_poll_bounds_respected;
          Alcotest.test_case "invalid quota" `Quick test_net_poll_invalid_quota;
        ] );
      ( "delay_probe",
        [
          Alcotest.test_case "gap recorder filters" `Quick test_gap_recorder_filters;
          Alcotest.test_case "source fractions" `Quick test_gap_recorder_source_fractions;
          Alcotest.test_case "event delay probe" `Quick test_event_delay_probe;
        ] );
    ]
