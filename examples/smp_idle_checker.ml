(* The paper's "most pessimistic scenario" and the idle-CPU rescue
   (Sections 5.2/5.3).

   Build & run:  dune exec examples/smp_idle_checker.exe

   Soft timers degrade when every CPU is busy with code that reaches no
   trigger states (a tight compute loop): events then wait for the 1 kHz
   backup interrupt.  But "the soft timer facility can schedule events
   at very fine grain whenever a CPU is idle" -- and on a multiprocessor
   only ONE idle CPU polls for pending events while the others halt
   (Section 5.2).  This example measures event lateness in three
   machines and shows the checker arbitration at work. *)

let measure_lateness ~cpus ~busy_cpus =
  let engine = Engine.create () in
  let machine = Machine.create ~cpus engine in
  let facility = Softtimer.attach machine in
  (* Compute-bound, trigger-less work on the first [busy_cpus] CPUs:
     long quanta, no syscalls, nothing for soft timers to ride on. *)
  for cpu = 0 to busy_cpus - 1 do
    let rec hog _now =
      Machine.submit_quantum machine ~cpu ~prio:Cpu.prio_user ~work_us:800.0 ~trigger:None hog
    in
    hog 0
  done;
  let lateness = Stats.Sample.create () in
  let period = Time_ns.of_us 100.0 in
  let rec periodic () =
    let scheduled = Engine.now engine in
    ignore
      (Softtimer.schedule_after facility period (fun now ->
           Stats.Sample.add lateness (Time_ns.to_us Time_ns.(of_ns now - scheduled) -. 100.0);
           periodic ())
        : Softtimer.handle)
  in
  periodic ();
  Engine.run_until engine (Time_ns.of_sec 2.0);
  lateness

let () =
  print_endline "Periodic 100 us soft event; how late does it fire?\n";
  List.iter
    (fun (label, cpus, busy) ->
      let l = measure_lateness ~cpus ~busy_cpus:busy in
      Printf.printf "%-44s mean %7.1f us   median %7.1f us   max %7.1f us\n" label
        (Stats.Sample.mean l) (Stats.Sample.median l) (Stats.Sample.max l))
    [
      ("1 CPU, idle (idle loop checks):", 1, 0);
      ("1 CPU, compute-bound (backup clock only):", 1, 1);
      ("2 CPUs, one compute-bound (idle CPU checks):", 2, 1);
    ];
  print_newline ();
  (* Show the arbitration: with two idle CPUs, exactly one checks. *)
  let engine = Engine.create () in
  let machine = Machine.create ~cpus:2 engine in
  Machine.set_idle_poll machine (Some (Time_ns.of_us 2.0));
  Engine.run_until engine (Time_ns.of_ms 1.0);
  Printf.printf
    "2 idle CPUs for 1 ms: %d idle-loop polls (one checker, ~500 expected), checker = CPU %s\n"
    (Machine.trigger_count machine Trigger.Idle)
    (match Machine.checking_cpu machine with Some i -> string_of_int i | None -> "-");
  print_endline
    "\nWith every CPU compute-bound, events wait for the 1 ms backup tick; an idle\n\
     CPU restores ~exact firing, and only one idle CPU spends cycles checking."
