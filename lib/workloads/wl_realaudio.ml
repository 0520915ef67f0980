(* Decode loop: a burst of user-mode work, then a cheap system call —
   the player's clock read / read / ioctl, all *simulated* as kernel
   quanta (no real wall-clock is consulted here).  Occasional longer
   decode stretches give the distribution its tail; the 1 kHz clock
   bounds it at 1 ms. *)

let user_segment =
  Dist.Mixture
    [
      (0.90, Dist.Lognormal { mu = log 3.6; sigma = 0.55 });
      (0.0997, Dist.Uniform (15.0, 45.0));
      (0.0003, Dist.Uniform (100.0, 900.0));
    ]

let syscall_body = Dist.Exponential 1.0

let start machine ~seed =
  Machine.start_interrupt_clock machine;
  let rng = Prng.create ~seed in
  let rec loop _now =
    let u = Dist.draw user_segment rng in
    let b = Dist.draw syscall_body rng in
    Kernel.user machine ~work_us:u (fun _ -> Kernel.syscall machine ~work_us:b loop)
  in
  loop 0;
  (* The live audio stream: ~40 packets/s of receive interrupts. *)
  let line =
    Machine.interrupt_line machine ~name:"audio-rx" ~source:Trigger.Ip_intr ~handler_work_us:3.0
      ~handler:(fun _ -> ())
      ()
  in
  let engine = Machine.engine machine in
  let rec stream () =
    let gap = Dist.span (Dist.Exponential 25_000.0) rng in
    Engine.schedule_after engine gap (fun () ->
        ignore (Machine.raise_irq machine line : bool);
        stream ())
  in
  stream ()
