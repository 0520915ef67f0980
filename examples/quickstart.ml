(* Quickstart: schedule soft-timer events on a simulated machine and
   watch when they fire.

   Build & run:  dune exec examples/quickstart.exe

   The soft-timer facility fires events at *trigger states* -- kernel
   entry points like system-call returns.  Here we give the machine a
   modest synthetic system-call workload (one syscall every ~25 us on
   average), schedule a handful of events, and print how late each one
   fired relative to its requested delay.  The backup interrupt clock
   (1 kHz) bounds the delay at ~1 ms even if trigger states stop. *)

let () =
  let engine = Engine.create () in
  let machine = Machine.create engine in
  let facility = Softtimer.attach machine in

  Printf.printf "measurement clock: %Ld Hz (CPU cycle counter)\n"
    (Softtimer.measure_resolution facility);
  Printf.printf "interrupt clock:   %Ld Hz (backup)\n" (Softtimer.interrupt_clock_resolution facility);
  Printf.printf "firing window:     (T, T + X + 1) with X = %Ld ticks\n\n"
    (Softtimer.x_ratio facility);

  (* A background workload that reaches trigger states every ~25 us. *)
  let rng = Prng.create ~seed:42 in
  let rec busy_process _now =
    let think = Dist.draw (Dist.Exponential 22.0) rng in
    Kernel.user machine ~work_us:think (fun _ -> Kernel.syscall machine ~work_us:3.0 busy_process)
  in
  busy_process 0;

  (* Schedule events at various delays and report their firing error.
     A soft event is a kind, registered once, and an int payload: here
     the index of the requested delay. *)
  let delays_us = [| 10.0; 50.0; 100.0; 500.0; 2_000.0 |] in
  let scheduled_at = Engine.now engine in
  let oneshot =
    Softtimer.register facility ~name:"oneshot" (fun now i ->
        let d = delays_us.(i) in
        let actual = Time_ns.(of_ns now - scheduled_at) in
        Printf.printf "requested %8.1f us -> fired after %8.1f us  (late by %6.2f us)\n" d
          (Time_ns.to_us actual)
          (Time_ns.to_us actual -. d))
  in
  Array.iteri
    (fun i d ->
      ignore (Softtimer.schedule_after facility (Time_ns.of_us d) oneshot i : Softtimer.handle))
    delays_us;

  Engine.run_until engine (Time_ns.of_ms 10.0);

  (* Periodic events: reschedule from the handler, the payload carrying
     the schedule instant in ns.  Over many firings the mean lateness is
     the mean *residual* trigger gap. *)
  let lateness = Stats.Sample.create () in
  let period = Time_ns.of_us 100.0 in
  let periodic = ref Softtimer.null_kind in
  let arm () =
    ignore
      (Softtimer.schedule_after facility period !periodic (Engine.now_i engine) : Softtimer.handle)
  in
  periodic :=
    Softtimer.register facility ~name:"periodic" (fun now scheduled_at ->
        Stats.Sample.add lateness (float_of_int (now - scheduled_at) /. 1e3 -. 100.0);
        arm ());
  arm ();
  Engine.run_until engine (Time_ns.of_sec 2.0);

  Printf.printf
    "\nperiodic 100 us event, %d firings: lateness mean %.1f us, median %.1f us, max %.1f us\n"
    (Stats.Sample.count lateness) (Stats.Sample.mean lateness) (Stats.Sample.median lateness)
    (Stats.Sample.max lateness);
  Printf.printf "(facility stats: %d checks at trigger states, %d events fired)\n"
    (Softtimer.checks facility) (Softtimer.fired facility)
