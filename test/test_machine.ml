(* Tests for the machine layer: CPU scheduling and preemption, interrupt
   controller (latching, spl windows, pollution costs), trigger-state
   dispatch, kernel scripts and the periodic clock. *)

let us = Time_ns.of_us
let ius x = Int64.to_int (us x)

let fresh () =
  let e = Engine.create () in
  let m = Machine.create e in
  (e, m)

(* ------------------------------------------------------------------ *)
(* Cpu *)

let test_cpu_runs_in_priority_order () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let log = ref [] in
  let submit prio tag =
    Cpu.submit cpu ~prio ~work:(ius 10.0) ~trigger:None (fun _ -> log := tag :: !log)
  in
  (* "first" (kernel, preemptible) starts; the softintr submission
     preempts it; then priority order drains the rest. *)
  submit Cpu.prio_kernel "first";
  submit Cpu.prio_user "user";
  submit Cpu.prio_softintr "softintr";
  submit Cpu.prio_background "bg";
  Engine.run e;
  Alcotest.(check (list string)) "preemption then priority order"
    [ "softintr"; "first"; "user"; "bg" ]
    (List.rev !log)

let test_cpu_intr_preempts_user () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finish = Hashtbl.create 4 in
  Cpu.submit cpu ~prio:Cpu.prio_user ~work:(ius 100.0) ~trigger:None (Hashtbl.add finish "user");
  (* Arrives mid-way through the user quantum; must preempt. *)
  Engine.schedule_at e (us 30.0) (fun () ->
      Cpu.submit cpu ~prio:Cpu.prio_intr ~work:(ius 5.0) ~trigger:None (Hashtbl.add finish "intr"));
  Engine.run e;
  Alcotest.(check int) "interrupt done at 35us" (ius 35.0) (Hashtbl.find finish "intr");
  Alcotest.(check int) "user resumed, done at 105us" (ius 105.0) (Hashtbl.find finish "user")

let test_cpu_intr_does_not_preempt_softintr () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finish = Hashtbl.create 4 in
  Cpu.submit cpu ~prio:Cpu.prio_softintr ~work:(ius 50.0) ~trigger:None (Hashtbl.add finish "si");
  Engine.schedule_at e (us 10.0) (fun () ->
      Cpu.submit cpu ~prio:Cpu.prio_intr ~work:(ius 5.0) ~trigger:None (Hashtbl.add finish "intr"));
  Engine.run e;
  Alcotest.(check int) "softintr runs to completion" (ius 50.0) (Hashtbl.find finish "si");
  Alcotest.(check int) "interrupt delayed until then" (ius 55.0) (Hashtbl.find finish "intr")

let test_cpu_busy_accounting () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  Cpu.submit cpu ~prio:Cpu.prio_user ~work:(ius 40.0) ~trigger:None (fun _ -> ());
  Engine.schedule_at e (us 10.0) (fun () ->
      Cpu.submit cpu ~prio:Cpu.prio_intr ~work:(ius 5.0) ~trigger:None (fun _ -> ()));
  Engine.run e;
  Alcotest.(check int64) "total busy" (us 45.0) (Cpu.busy_ns cpu);
  Alcotest.(check int64) "user busy" (us 40.0) (Cpu.busy_ns_at cpu Cpu.prio_user);
  Alcotest.(check int64) "intr busy" (us 5.0) (Cpu.busy_ns_at cpu Cpu.prio_intr);
  Alcotest.(check bool) "idle at end" true (Cpu.is_idle cpu)

let test_cpu_idle_resume_hooks () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let events = ref [] in
  Cpu.set_idle_hook cpu (fun t -> events := ("idle", Time_ns.of_ns t) :: !events);
  Cpu.set_resume_hook cpu (fun t -> events := ("resume", Time_ns.of_ns t) :: !events);
  Engine.schedule_at e (us 5.0) (fun () ->
      Cpu.submit cpu ~prio:Cpu.prio_user ~work:(ius 10.0) ~trigger:None (fun _ -> ()));
  Engine.run e;
  Alcotest.(check (list (pair string int64))) "resume then idle"
    [ ("resume", us 5.0); ("idle", us 15.0) ]
    (List.rev !events)

let test_cpu_preempted_callback_once () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let calls = ref 0 in
  Cpu.submit cpu ~prio:Cpu.prio_user ~work:(ius 100.0) ~trigger:None (fun _ -> incr calls);
  (* Three interrupts during the quantum. *)
  List.iter
    (fun t ->
      Engine.schedule_at e (us t) (fun () ->
          Cpu.submit cpu ~prio:Cpu.prio_intr ~work:(ius 2.0) ~trigger:None (fun _ -> ())))
    [ 10.0; 40.0; 70.0 ];
  Engine.run e;
  Alcotest.(check int) "completion fires exactly once" 1 !calls;
  Alcotest.(check int64) "clock includes all work" (us 106.0) (Engine.now e)

let test_cpu_invalid_args () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  Alcotest.check_raises "bad priority" (Invalid_argument "Cpu.submit: bad priority") (fun () ->
      Cpu.submit cpu ~prio:99 ~work:1 ~trigger:None (fun _ -> ()));
  Alcotest.check_raises "negative work" (Invalid_argument "Cpu.submit: negative work") (fun () ->
      Cpu.submit cpu ~prio:0 ~work:(-1) ~trigger:None (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Interrupts *)

let test_interrupt_costs_charged () =
  let e, m = fresh () in
  let ln =
    Machine.interrupt_line m ~name:"dev" ~source:Trigger.Dev_intr ~handler_work_us:2.0
      ~handler:(fun _ -> ())
      ()
  in
  ignore (Machine.raise_irq m ln : bool);
  Engine.run e;
  (* P-II profile at neutral locality: 1.95 + 2.50 + 2.0 handler. *)
  Alcotest.(check int64) "cost = overhead + handler" (us 6.45) (Cpu.busy_ns (Machine.cpu m));
  Alcotest.(check int) "delivered" 1 (Interrupt.delivered ln);
  Alcotest.(check int) "trigger fired" 1 (Machine.trigger_count m Trigger.Dev_intr)

let test_interrupt_latch_limit () =
  let e, m = fresh () in
  let ln =
    Machine.interrupt_line m ~name:"dev" ~source:Trigger.Dev_intr ~latch_depth:2
      ~handler:(fun _ -> ())
      ()
  in
  (* Block the CPU so raised interrupts stay in flight. *)
  Cpu.submit (Machine.cpu m) ~prio:Cpu.prio_intr ~work:(ius 50.0) ~trigger:None (fun _ -> ());
  let r1 = Machine.raise_irq m ln in
  let r2 = Machine.raise_irq m ln in
  let r3 = Machine.raise_irq m ln in
  Alcotest.(check (list bool)) "third is lost" [ true; true; false ] [ r1; r2; r3 ];
  Engine.run e;
  Alcotest.(check int) "raised" 3 (Interrupt.raised ln);
  Alcotest.(check int) "lost" 1 (Interrupt.lost ln);
  Alcotest.(check int) "delivered" 2 (Interrupt.delivered ln)

(* A preemption storm: device interrupts at irregular 9-13 us spacing
   over a chain of kernel and user quanta.  The running quantum's
   completion is the CPU's engine timer, armed at dispatch and disarmed
   by preemption, so the engine holds exactly the live events at every
   instant, the storm's next interrupt and the running quantum's
   completion: a preempted quantum leaves no completion behind. *)
let test_preemption_leaves_no_dead_entries () =
  let e, m = fresh () in
  let cpu = Machine.cpu m in
  let ln =
    Machine.interrupt_line m ~name:"dev" ~source:Trigger.Dev_intr ~handler_work_us:1.0
      ~handler:ignore ()
  in
  let storm_pending = ref 1 in
  let rec storm n () =
    decr storm_pending;
    ignore (Machine.raise_irq m ln : bool);
    let gap = ius (9.0 +. float_of_int (n mod 5)) in
    if n > 0 then begin
      incr storm_pending;
      Engine.schedule_after e (Time_ns.of_ns gap) (storm (n - 1))
    end
  in
  Engine.schedule_after e (us 3.0) (storm 2_000);
  let quanta = ref 0 and stretched = ref 0 in
  let rec next i _ =
    if i < 2_000 then begin
      let prio = if i land 1 = 0 then Cpu.prio_kernel else Cpu.prio_user in
      let work = ius (if prio = Cpu.prio_kernel then 7.0 else 11.0) in
      let start = Engine.now_i e in
      Cpu.submit cpu ~prio ~work ~trigger:None (fun at ->
          incr quanta;
          if at - start > work then incr stretched;
          next (i + 1) at)
    end
  in
  next 0 0;
  let live () = !storm_pending + if Cpu.is_idle cpu then 0 else 1 in
  let mismatches = ref 0 in
  for step = 1 to 20_000 do
    Engine.run_until e (Int64.of_int (step * 1_700));
    if Engine.pending e <> live () then incr mismatches
  done;
  Alcotest.(check int) "every quantum completed" 2_000 !quanta;
  Alcotest.(check bool)
    (Printf.sprintf "interrupts stretched %d of the quanta" !stretched)
    true (!stretched > 1_000);
  Alcotest.(check bool) "interrupts delivered" true (Interrupt.delivered ln > 1_500);
  Alcotest.(check int) "instants with pending events not live" 0 !mismatches;
  Alcotest.(check int) "pending afterwards" (live ()) (Engine.pending e)

let test_interrupt_pollution_scales_with_locality () =
  let run locality =
    let e, m = fresh () in
    Machine.set_locality m locality;
    let ln = Machine.interrupt_line m ~name:"d" ~source:Trigger.Dev_intr ~handler:(fun _ -> ()) () in
    ignore (Machine.raise_irq m ln : bool);
    Engine.run e;
    Cpu.busy_ns (Machine.cpu m)
  in
  let neutral = run Cache.neutral and flash = run Cache.flash in
  Alcotest.(check bool) "flash pays more per interrupt" true Time_ns.(flash > neutral)

let test_spl_windows_defer_and_lose () =
  let e, m = fresh () in
  let ln =
    Machine.interrupt_line m ~name:"pit" ~source:Trigger.Clock_tick ~latch_depth:1
      ~spl_blockable:true
      ~handler:(fun _ -> ())
      ()
  in
  (* One long disabled window covering t in [gap, gap+duration). *)
  Machine.start_spl_sections m ~rate_per_sec:1.0 ~duration_us:(Dist.Constant 100.0) ~seed:1 ();
  (* The first window starts at an exponential gap; find it by raising
     every 10 us for 3 s and checking some ticks were lost. *)
  let raised = ref 0 in
  let rec tick () =
    if !raised < 300_000 then begin
      incr raised;
      ignore (Machine.raise_irq m ln : bool);
      Engine.schedule_after e (us 10.0) tick
    end
  in
  tick ();
  Engine.run_until e (Time_ns.of_sec 3.0);
  Alcotest.(check bool) "some ticks lost in windows" true (Interrupt.lost ln > 0);
  Alcotest.(check bool) "most ticks delivered" true
    (Interrupt.delivered ln > 9 * Interrupt.raised ln / 10)

let test_costs_calibration () =
  Alcotest.(check (float 1e-9)) "P-II total 4.45us" 4.45
    (Costs.intr_total_us Costs.pentium_ii_300 ~locality:1.0);
  Alcotest.(check (float 1e-9)) "P-III total 4.36us" 4.36
    (Costs.intr_total_us Costs.pentium_iii_500 ~locality:1.0);
  Alcotest.(check (float 1e-9)) "Alpha total 8.64us" 8.64
    (Costs.intr_total_us Costs.alpha_21164_500 ~locality:1.0);
  Alcotest.(check (float 1e-9)) "scaling to 500MHz" 0.6 (Costs.scale_us Costs.pentium_iii_500 1.0)

(* ------------------------------------------------------------------ *)
(* Machine trigger dispatch and kernel scripts *)

let test_trigger_observers_and_counts () =
  let _, m = fresh () in
  let seen = ref [] in
  Machine.add_observer m (fun k _ -> seen := k :: !seen);
  Machine.fire_trigger m Trigger.Syscall;
  Machine.fire_trigger m Trigger.Trap;
  Machine.fire_trigger m Trigger.Syscall;
  Alcotest.(check int) "syscall count" 2 (Machine.trigger_count m Trigger.Syscall);
  Alcotest.(check int) "trap count" 1 (Machine.trigger_count m Trigger.Trap);
  Alcotest.(check int) "total" 3 (Machine.trigger_total m);
  Alcotest.(check int) "observer saw all" 3 (List.length !seen)

let test_check_hook_runs_at_triggers () =
  let e, m = fresh () in
  let checks = ref 0 in
  Machine.set_check_hook m (Some (fun _kind _now -> incr checks));
  Alcotest.(check bool) "attached" true (Machine.check_hook_attached m);
  Kernel.syscall m ~work_us:3.0 (fun _ -> ());
  Engine.run e;
  Alcotest.(check int) "hook ran" 1 !checks;
  Machine.set_check_hook m None;
  Kernel.syscall m ~work_us:3.0 (fun _ -> ());
  Engine.run e;
  Alcotest.(check int) "hook detached" 1 !checks

let test_kernel_entry_costs () =
  let e, m = fresh () in
  Kernel.syscall m ~work_us:5.0 (fun _ -> ());
  Engine.run e;
  (* syscall entry 1.10 + 5.0 body (300 MHz profile, scale 1.0) *)
  Alcotest.(check int64) "syscall cost" (us 6.1) (Cpu.busy_ns (Machine.cpu m));
  Alcotest.(check int) "syscall trigger" 1 (Machine.trigger_count m Trigger.Syscall)

let test_kernel_script_order () =
  let e, m = fresh () in
  let x = Exec.create m in
  let log = ref [] in
  let note = Exec.emitter x (fun now a b -> log := (now, a, b) :: !log) in
  let sc = Exec.script x in
  List.iter
    (fun s -> Exec.quantum sc (Exec.step x s))
    [
      Kernel.step_user m ~work_us:10.0;
      Kernel.step_syscall ~work_us:2.0 m;
      Kernel.step_ip_output m;
    ];
  Exec.emit sc note 1 2;
  Exec.drawn sc (Exec.step x (Kernel.step_tcp_timer m)) [| 3.0 |] 0;
  let done_at = ref Time_ns.zero in
  Exec.run sc (fun t -> done_at := Time_ns.of_ns t);
  Engine.run e;
  (* user 10 + syscall 1.1 + 2 + IP output 7, then the emit, then the
     TCP timer step with its drawn 3 us of work. *)
  Alcotest.(check (list (triple int int int))) "emit after three quanta"
    [ (ius 20.1, 1, 2) ] !log;
  Alcotest.(check int64) "script completed" (us 23.1) !done_at;
  Alcotest.(check int) "ip-output trigger" 1 (Machine.trigger_count m Trigger.Ip_output);
  Alcotest.(check int) "tcpip trigger" 1 (Machine.trigger_count m Trigger.Tcpip_other);
  Alcotest.(check int) "syscall trigger" 1 (Machine.trigger_count m Trigger.Syscall)

(* NaN and infinity have no nanosecond conversion: every float-work
   entry point rejects them before converting, while negative work
   still counts as zero. *)
let test_non_finite_work_rejected () =
  let e, m = fresh () in
  List.iter
    (fun w ->
      Alcotest.check_raises "submit_quantum"
        (Invalid_argument "Machine.submit_quantum: non-finite work") (fun () ->
          Machine.submit_quantum m ~prio:Cpu.prio_kernel ~work_us:w ~trigger:None ignore))
    [ nan; infinity; neg_infinity ];
  Alcotest.check_raises "interrupt_line"
    (Invalid_argument "Machine.interrupt_line: non-finite work") (fun () ->
      ignore
        (Machine.interrupt_line m ~name:"dev" ~source:Trigger.Dev_intr ~handler_work_us:nan
           ~handler:ignore ()
          : Interrupt.line));
  Alcotest.check_raises "add_periodic_timer"
    (Invalid_argument "Machine.add_periodic_timer: non-finite work") (fun () ->
      ignore (Machine.add_periodic_timer m ~hz:1000.0 ~handler_work_us:infinity ignore
              : Interrupt.line));
  Alcotest.check_raises "Hw_pacer.create" (Invalid_argument "Hw_pacer.create: non-finite work")
    (fun () ->
      ignore (Hw_pacer.create m ~interval:(us 20.0) ~send:(fun _ -> true) ~dispatch_work_us:nan ()
              : Hw_pacer.t));
  Alcotest.check_raises "Exec.step" (Invalid_argument "Machine.work_ns: non-finite work")
    (fun () -> ignore (Exec.step (Exec.create m) (Kernel.step_user m ~work_us:infinity) : Exec.step));
  Alcotest.(check bool) "nothing submitted" true (Cpu.is_idle (Machine.cpu m));
  let done_at = ref (-1L) in
  Machine.submit_quantum m ~prio:Cpu.prio_kernel ~work_us:(-5.0) ~trigger:None (fun t ->
      done_at := Time_ns.of_ns t);
  Engine.run e;
  Alcotest.(check int64) "negative work counts as zero" 0L !done_at;
  Alcotest.check_raises "int-ns path keeps the negative-work check"
    (Invalid_argument "Cpu.submit: negative work") (fun () ->
      Cpu.submit (Machine.cpu m) ~prio:Cpu.prio_kernel ~work:(-1) ~trigger:None ignore)

(* A registered step's work is converted once, with and without the
   check surcharge, and the hook attached at submission picks which one
   the quantum charges.  With a 50.4 ns check, 3000.3 ns of work rounds
   to 3051 ns as one sum (what [submit_quantum] charges) but to
   3000 + 50 ns as two roundings. *)
let test_fixed_work_rounding_and_hook_switch () =
  let e = Engine.create () in
  let profile = { Costs.pentium_ii_300 with Costs.softtimer_check_us = 0.0504 } in
  let m = Machine.create ~profile e in
  let x = Exec.create m in
  let a = Profile.intern [ "test"; "fixed" ] in
  let q =
    Exec.step x
      {
        Kernel.prio = Cpu.prio_kernel;
        work_us = 3.0003;
        trigger = Some Trigger.Syscall;
        attr = a;
        entry_us = 0.0;
        entry_attr = a;
      }
  in
  (* Wall-clock length of one quantum submitted now, run to completion. *)
  let charged submit =
    let start = Engine.now_i e and done_at = ref (-1) in
    submit (fun t -> done_at := t);
    Engine.run_until e (Int64.of_int (start + 100_000));
    !done_at - start
  in
  let step_ns () =
    charged (fun k ->
        let sc = Exec.script x in
        Exec.quantum sc q;
        Exec.run sc k)
  in
  Alcotest.(check int) "no facility: plain work" 3000 (step_ns ());
  let st = Softtimer.attach m in
  Alcotest.(check int) "attached: one rounding of the sum" 3051 (step_ns ());
  Alcotest.(check int) "the float path charges the same" 3051
    (charged (fun k ->
         Machine.submit_quantum m ~prio:Cpu.prio_kernel ~work_us:3.0003
           ~trigger:(Some Trigger.Syscall) k));
  Softtimer.detach st;
  Alcotest.(check int) "detached: plain work again" 3000 (step_ns ());
  ignore (Softtimer.attach m : Softtimer.t);
  Alcotest.(check int) "re-attached: checked work again" 3051 (step_ns ())

(* A completion whose callback raises still dispatches the queued work
   before the exception leaves the engine, so the CPU does not stall
   until something else submits. *)
let test_raising_completion_dispatches_queue () =
  let e, m = fresh () in
  let b_done = ref (-1) in
  Machine.submit_quantum m ~prio:Cpu.prio_kernel ~work_us:10.0 ~trigger:(Some Trigger.Syscall)
    (fun _ -> failwith "quantum A");
  Machine.submit_quantum m ~prio:Cpu.prio_kernel ~work_us:5.0 ~trigger:None (fun t ->
      b_done := t);
  Alcotest.check_raises "A's callback raises" (Failure "quantum A") (fun () ->
      Engine.run_until e (us 100.0));
  Alcotest.(check int) "B's completion armed" 1 (Engine.pending e);
  Engine.run_until e (us 100.0);
  Alcotest.(check int) "B completes after A" (ius 15.0) !b_done;
  Alcotest.(check int) "A's trigger state ran" 1 (Machine.trigger_count m Trigger.Syscall)

(* Minor words per iteration of [f], after a warm-up. *)
let words_per ~n f =
  for _ = 1 to 100 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* One quantum through completion on an idle machine allocates nothing,
   0.0 measured: it takes a slot of the CPU's arena and a place in its
   priority's ring, with no task record (7 words) or run-queue cell (3)
   as before, no running record, option, per-dispatch completion
   closure, boxed busy counter or boxed engine clock (3 more while the
   engine boxed its clock at every advance), and nothing for the idle
   transitions. *)
let quantum_words_bound = 1.0

let test_submit_quantum_alloc () =
  let e, m = fresh () in
  let cb _ = () in
  let per =
    words_per ~n:10_000 (fun () ->
        Machine.submit_quantum m ~prio:Cpu.prio_kernel ~work_us:5.0 ~trigger:None cb;
        Engine.run e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "submit_quantum + completion allocates %.1f minor words (bound %.0f)" per
       quantum_words_bound)
    true (per <= quantum_words_bound)

(* One interrupt raised and delivered: the line's completion callback is
   built once and the overhead, handler work and clock stay in int ns, so
   a delivery costs what its quantum does (0.0 words measured; 10.0
   while a quantum took a task record and a queue cell, 13.0 with the
   boxed engine clock) and nothing more — no closure over the delivery
   and no int64 boxes, which made it 34. *)
let irq_words_bound = quantum_words_bound

let test_irq_delivery_alloc () =
  let e, m = fresh () in
  let ln = Machine.interrupt_line m ~name:"dev" ~source:Trigger.Dev_intr ~handler:ignore () in
  let per =
    words_per ~n:10_000 (fun () ->
        ignore (Machine.raise_irq m ln : bool);
        Engine.run e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "raise + delivery allocates %.1f minor words (bound %.0f)" per irq_words_bound)
    true (per <= irq_words_bound)

(* A script is a recycled cursor of the machine's arena, and its items
   share one completion callback, so a 20-item script allocates what a
   1-item one does: the 19 extra items cost 19 quanta and nothing per
   item on top. *)
let test_exec_cursor_alloc () =
  let e, m = fresh () in
  let x = Exec.create m in
  let step = Exec.step x (Kernel.step_user m ~work_us:5.0) in
  let run k () =
    let sc = Exec.script x in
    for _ = 1 to k do
      Exec.quantum sc step
    done;
    Exec.run sc ignore;
    Engine.run e
  in
  let w1 = words_per ~n:2_000 (run 1) in
  let w20 = words_per ~n:2_000 (run 20) in
  let per_item = (w20 -. w1) /. 19.0 in
  Alcotest.(check bool)
    (Printf.sprintf "per extra script item %.2f minor words (bound %.0f, one quantum)" per_item
       quantum_words_bound)
    true
    (per_item <= quantum_words_bound)

let test_kernel_scaling_with_profile () =
  let e = Engine.create () in
  let m = Machine.create ~profile:Costs.pentium_iii_500 e in
  Kernel.user m ~work_us:100.0 (fun _ -> ());
  Engine.run e;
  (* 100 us of 300 MHz work takes 60 us at 500 MHz. *)
  Alcotest.(check int64) "user work rescaled" (us 60.0) (Cpu.busy_ns (Machine.cpu m))

let test_periodic_clock_ticks () =
  let e, m = fresh () in
  Machine.start_interrupt_clock m;
  Alcotest.(check bool) "running" true (Machine.interrupt_clock_running m);
  Machine.start_interrupt_clock m;  (* idempotent *)
  Engine.run_until e (Time_ns.of_ms 10.5);
  let ticks = Machine.trigger_count m Trigger.Clock_tick in
  Alcotest.(check bool) (Printf.sprintf "~10 ticks in 10.5ms (got %d)" ticks) true
    (ticks >= 9 && ticks <= 11)

let test_extra_timer_frequency () =
  let e, m = fresh () in
  let ln = Machine.add_periodic_timer m ~hz:100_000.0 (fun _ -> ()) in
  Engine.run_until e (Time_ns.of_ms 10.0);
  let delivered = Interrupt.delivered ln in
  Alcotest.(check bool) (Printf.sprintf "~1000 ticks in 10ms (got %d)" delivered) true
    (delivered >= 990 && delivered <= 1001)

let test_idle_poll_generates_triggers () =
  let e, m = fresh () in
  Machine.set_idle_poll m (Some (us 2.0));
  Engine.run_until e (Time_ns.of_ms 1.0);
  let idles = Machine.trigger_count m Trigger.Idle in
  Alcotest.(check bool) (Printf.sprintf "~500 idle polls (got %d)" idles) true
    (idles >= 450 && idles <= 510)

let test_idle_deadline_fires_exactly () =
  let e, m = fresh () in
  let deadline = us 123.0 in
  let armed = ref (Some deadline) in
  let fired_at = ref None in
  Machine.set_check_hook m
    (Some
       (fun _kind now ->
         let now = Time_ns.of_ns now in
         match !armed with
         | Some d when Time_ns.(now >= d) ->
           armed := None;
           fired_at := Some now
         | _ -> ()));
  Machine.set_idle_deadline_fn m
    (Some (fun () -> match !armed with Some d -> Time_ns.to_int d | None -> max_int));
  Engine.run_until e (Time_ns.of_ms 1.0);
  Alcotest.(check (option int64)) "fires exactly at deadline while idle" (Some deadline) !fired_at

(* ------------------------------------------------------------------ *)
(* Multi-CPU (§5.2/§5.3) *)

let test_smp_parallel_execution () =
  let e = Engine.create () in
  let m = Machine.create ~cpus:2 e in
  let done_at = Hashtbl.create 2 in
  Machine.submit_quantum m ~cpu:0 ~prio:Cpu.prio_user ~work_us:100.0 ~trigger:None
    (Hashtbl.add done_at "a");
  Machine.submit_quantum m ~cpu:1 ~prio:Cpu.prio_user ~work_us:100.0 ~trigger:None
    (Hashtbl.add done_at "b");
  Engine.run e;
  Alcotest.(check int) "a at 100us" (ius 100.0) (Hashtbl.find done_at "a");
  Alcotest.(check int) "b in parallel" (ius 100.0) (Hashtbl.find done_at "b");
  Alcotest.(check int64) "busy sums both" (us 200.0) (Machine.total_busy_ns m);
  Alcotest.(check int) "cpu count" 2 (Machine.cpu_count m)

let test_smp_single_checker_polls () =
  (* Two idle CPUs must not double the idle-poll trigger rate. *)
  let rate cpus =
    let e = Engine.create () in
    let m = Machine.create ~cpus e in
    Machine.set_idle_poll m (Some (us 2.0));
    Engine.run_until e (Time_ns.of_ms 1.0);
    Machine.trigger_count m Trigger.Idle
  in
  let one = rate 1 and two = rate 2 in
  Alcotest.(check bool)
    (Printf.sprintf "same poll rate with 2 cpus (%d vs %d)" one two)
    true
    (abs (one - two) <= 2)

let test_smp_checker_handoff () =
  let e = Engine.create () in
  let m = Machine.create ~cpus:2 e in
  Machine.set_idle_poll m (Some (us 2.0));
  Alcotest.(check (option int)) "cpu0 checks first" (Some 0) (Machine.checking_cpu m);
  (* Busy work on CPU 0: the checker role must move to CPU 1. *)
  Machine.submit_quantum m ~cpu:0 ~prio:Cpu.prio_user ~work_us:500.0 ~trigger:None
    (fun _ -> ());
  Alcotest.(check (option int)) "handoff to cpu1" (Some 1) (Machine.checking_cpu m);
  Engine.run_until e (us 600.0);
  Alcotest.(check bool) "cpu0 idle again" true (Machine.any_cpu_idle m);
  Alcotest.(check bool) "a checker exists" true (Machine.checking_cpu m <> None);
  (* Polls continued throughout. *)
  Alcotest.(check bool) "polls continued" true (Machine.trigger_count m Trigger.Idle > 250)

let test_smp_no_checker_when_all_busy () =
  let e = Engine.create () in
  let m = Machine.create ~cpus:2 e in
  Machine.set_idle_poll m (Some (us 2.0));
  for cpu = 0 to 1 do
    Machine.submit_quantum m ~cpu ~prio:Cpu.prio_user ~work_us:300.0 ~trigger:None
      (fun _ -> ())
  done;
  Alcotest.(check (option int)) "nobody checks" None (Machine.checking_cpu m);
  Alcotest.(check bool) "no cpu idle" false (Machine.any_cpu_idle m);
  Engine.run_until e (us 400.0);
  Alcotest.(check bool) "checker back after work" true (Machine.checking_cpu m <> None)

let test_smp_interrupt_affinity () =
  let e = Engine.create () in
  let m = Machine.create ~cpus:2 e in
  let ln =
    Machine.interrupt_line m ~name:"dev1" ~source:Trigger.Dev_intr ~cpu:1
      ~handler:(fun _ -> ())
      ()
  in
  ignore (Machine.raise_irq m ln : bool);
  Engine.run e;
  Alcotest.(check int64) "cpu0 untouched" 0L (Cpu.busy_ns (Machine.nth_cpu m 0));
  Alcotest.(check bool) "cpu1 paid" true Time_ns.(Cpu.busy_ns (Machine.nth_cpu m 1) > 0L)

let test_smp_invalid_args () =
  let e = Engine.create () in
  Alcotest.check_raises "zero cpus" (Invalid_argument "Machine.create: need at least one cpu")
    (fun () -> ignore (Machine.create ~cpus:0 e));
  let m = Machine.create ~cpus:2 e in
  Alcotest.check_raises "bad cpu index" (Invalid_argument "Machine.nth_cpu: bad index")
    (fun () -> ignore (Machine.nth_cpu m 2));
  Alcotest.check_raises "bad submit cpu" (Invalid_argument "Machine.submit_quantum: bad cpu")
    (fun () ->
      Machine.submit_quantum m ~cpu:5 ~prio:0 ~work_us:1.0 ~trigger:None (fun _ -> ()))

(* Property: the CPU conserves work -- whatever mix of priorities and
   arrival times, total busy time equals total submitted work, every
   callback fires exactly once, and the clock ends past the last
   completion. *)
let test_cpu_work_conservation =
  QCheck.Test.make ~name:"cpu conserves work" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (triple (int_range 0 4) (int_range 0 200) (int_range 0 500)))
    (fun jobs ->
      let e = Engine.create () in
      let cpu = Cpu.create e in
      let completions = ref 0 in
      let total = ref 0L in
      List.iter
        (fun (prio, work_us, at_us) ->
          let work = Time_ns.of_us (float_of_int work_us) in
          total := Int64.add !total work;
          Engine.schedule_at e
            (Time_ns.of_us (float_of_int at_us))
            (fun () ->
              Cpu.submit cpu ~prio ~work:(Int64.to_int work) ~trigger:None (fun _ ->
                  incr completions)))
        jobs;
      Engine.run e;
      !completions = List.length jobs
      && Int64.equal (Cpu.busy_ns cpu) !total
      && Cpu.is_idle cpu)

(* Reference model of the scheduling policy, over plain lists: FIFO
   within a priority, a preempted quantum resumes first at its
   priority, priorities 0 and 1 are never preempted, and a more urgent
   arrival preempts a preemptible quantum.  Arrivals at an instant are
   handled, in submission order, before a completion at that instant
   (the test schedules every arrival before any completion is posted).
   Returns the completions as (job, instant) in order and the busy time
   per priority. *)
let model_schedule jobs =
  let arrivals =
    List.mapi (fun i (prio, work, at) -> (at, i, prio, work)) jobs
    |> List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b)
  in
  let queues = Array.make Cpu.prio_count [] in
  let busy = Array.make Cpu.prio_count 0 in
  (* running: (job, prio, remaining, started) *)
  let running = ref None and done_ = ref [] in
  let dispatch now =
    let rec first p =
      if p >= Cpu.prio_count then None
      else match queues.(p) with [] -> first (p + 1) | q :: rest -> queues.(p) <- rest; Some q
    in
    running := Option.map (fun (i, p, rem) -> (i, p, rem, now)) (first 0)
  in
  let rec loop arrivals =
    let t_done = match !running with Some (_, _, rem, st) -> Some (st + rem) | None -> None in
    match (arrivals, t_done) with
    | [], None -> ()
    | (at, i, prio, work) :: rest, _
      when (match t_done with Some td -> at <= td | None -> true) ->
      queues.(prio) <- queues.(prio) @ [ (i, prio, work) ];
      (match !running with
      | None -> dispatch at
      | Some (j, p, rem, st) when p >= Cpu.prio_kernel && prio < p ->
        busy.(p) <- busy.(p) + (at - st);
        queues.(p) <- (j, p, rem - (at - st)) :: queues.(p);
        dispatch at
      | Some _ -> ());
      loop rest
    | _, Some td ->
      (match !running with
      | Some (j, p, rem, _) ->
        busy.(p) <- busy.(p) + rem;
        done_ := (j, td) :: !done_
      | None -> ());
      dispatch td;
      loop arrivals
    | _ :: _, None -> assert false
  in
  loop arrivals;
  (List.rev !done_, Array.to_list busy)

(* Property: the CPU completes quanta in the model's order, at the
   model's instants, with the model's busy time per priority, whatever
   mix of priorities and arrival times. *)
let test_cpu_scheduling_order =
  QCheck.Test.make ~name:"cpu scheduling order matches the reference model" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (triple (int_range 0 4) (int_range 0 50_000) (int_range 0 300_000)))
    (fun jobs ->
      let e = Engine.create () in
      let cpu = Cpu.create e in
      let done_ = ref [] in
      let job = Array.of_list jobs in
      let k_submit =
        Engine.register e ~name:"submit" (fun i ->
            let prio, work, _ = job.(i) in
            Cpu.submit cpu ~prio ~work ~trigger:None (fun now -> done_ := (i, now) :: !done_))
      in
      Array.iteri
        (fun i (_, _, at) -> Engine.post_at_i e at k_submit i)
        job;
      Engine.run e;
      let expected_done, expected_busy = model_schedule jobs in
      List.rev !done_ = expected_done
      && List.init Cpu.prio_count (fun p -> Int64.to_int (Cpu.busy_ns_at cpu p)) = expected_busy)

(* Property: engine events fire exactly once, in (time, insertion) order,
   and cancelled events never fire.  An event is a closure post or an
   engine timer; a cancelled one is a timer disarmed after every event
   is scheduled. *)
let test_engine_event_order_property =
  QCheck.Test.make ~name:"engine fires in order, cancels hold" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 0 1000) bool))
    (fun specs ->
      let e = Engine.create () in
      let fired = ref [] in
      let spec = Array.of_list specs in
      let k = Engine.register e ~name:"t" (fun i -> fired := (fst spec.(i), i) :: !fired) in
      let timers =
        Array.mapi
          (fun i (at_us, cancel) ->
            let at = ius (float_of_int at_us) in
            if cancel || i land 1 = 1 then begin
              let tm = Engine.timer e k ~payload:i in
              Engine.arm_after e tm at;
              Some tm
            end
            else begin
              Engine.schedule_at e (Int64.of_int at) (fun () -> fired := (at_us, i) :: !fired);
              None
            end)
          spec
      in
      Array.iteri
        (fun i (_, cancel) -> if cancel then Option.iter (Engine.disarm e) timers.(i))
        spec;
      Engine.run e;
      let fired = List.rev !fired in
      let expected =
        specs
        |> List.mapi (fun i (at, c) -> (at, i, c))
        |> List.filter (fun (_, _, c) -> not c)
        |> List.map (fun (at, i, _) -> (at, i))
        |> List.sort compare
      in
      fired = expected)

let () =
  Alcotest.run "machine"
    [
      ( "cpu",
        [
          Alcotest.test_case "priority order" `Quick test_cpu_runs_in_priority_order;
          Alcotest.test_case "interrupt preempts user" `Quick test_cpu_intr_preempts_user;
          Alcotest.test_case "softintr not preempted" `Quick test_cpu_intr_does_not_preempt_softintr;
          Alcotest.test_case "busy accounting" `Quick test_cpu_busy_accounting;
          Alcotest.test_case "idle/resume hooks" `Quick test_cpu_idle_resume_hooks;
          Alcotest.test_case "preempted callback fires once" `Quick test_cpu_preempted_callback_once;
          Alcotest.test_case "invalid args" `Quick test_cpu_invalid_args;
          QCheck_alcotest.to_alcotest test_cpu_work_conservation;
          QCheck_alcotest.to_alcotest test_cpu_scheduling_order;
          QCheck_alcotest.to_alcotest test_engine_event_order_property;
          Alcotest.test_case "raising completion dispatches queue" `Quick
            test_raising_completion_dispatches_queue;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "costs charged" `Quick test_interrupt_costs_charged;
          Alcotest.test_case "latch limit" `Quick test_interrupt_latch_limit;
          Alcotest.test_case "preemption leaves no dead entries" `Quick
            test_preemption_leaves_no_dead_entries;
          Alcotest.test_case "pollution scales with locality" `Quick
            test_interrupt_pollution_scales_with_locality;
          Alcotest.test_case "spl windows defer and lose" `Quick test_spl_windows_defer_and_lose;
          Alcotest.test_case "cost calibration" `Quick test_costs_calibration;
        ] );
      ( "machine",
        [
          Alcotest.test_case "observers and counts" `Quick test_trigger_observers_and_counts;
          Alcotest.test_case "check hook" `Quick test_check_hook_runs_at_triggers;
          Alcotest.test_case "kernel entry costs" `Quick test_kernel_entry_costs;
          Alcotest.test_case "script order" `Quick test_kernel_script_order;
          Alcotest.test_case "non-finite work rejected" `Quick test_non_finite_work_rejected;
          Alcotest.test_case "submit_quantum allocation" `Quick test_submit_quantum_alloc;
          Alcotest.test_case "script cursor allocation" `Quick test_exec_cursor_alloc;
          Alcotest.test_case "interrupt delivery allocation" `Quick test_irq_delivery_alloc;
          Alcotest.test_case "profile scaling" `Quick test_kernel_scaling_with_profile;
          Alcotest.test_case "periodic clock" `Quick test_periodic_clock_ticks;
          Alcotest.test_case "extra timer frequency" `Quick test_extra_timer_frequency;
          Alcotest.test_case "idle poll triggers" `Quick test_idle_poll_generates_triggers;
          Alcotest.test_case "idle deadline poke" `Quick test_idle_deadline_fires_exactly;
          Alcotest.test_case "fixed work rounding and hook switch" `Quick
            test_fixed_work_rounding_and_hook_switch;
        ] );
      ( "smp",
        [
          Alcotest.test_case "parallel execution" `Quick test_smp_parallel_execution;
          Alcotest.test_case "single checker polls" `Quick test_smp_single_checker_polls;
          Alcotest.test_case "checker handoff" `Quick test_smp_checker_handoff;
          Alcotest.test_case "no checker when all busy" `Quick test_smp_no_checker_when_all_busy;
          Alcotest.test_case "interrupt affinity" `Quick test_smp_interrupt_affinity;
          Alcotest.test_case "invalid args" `Quick test_smp_invalid_args;
        ] );
    ]
