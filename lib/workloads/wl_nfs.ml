let request_interarrival = Dist.Exponential 3_600.0  (* us: ~280 req/s *)
let disk_latency = Dist.Uniform (2_000.0, 8_000.0)  (* us *)
let nfsd_syscall_body = Dist.Erlang { k = 2; mean = 8.0 }

(* Block-layer work between trigger states; rarely a long directory or
   metadata scan. *)
let kernel_segment =
  Dist.Mixture
    [
      (0.65, Dist.Uniform (15.0, 90.0));
      (0.315, Dist.Uniform (120.0, 360.0));
      (0.035, Dist.Uniform (400.0, 880.0));
    ]

let a_nfsd_segment = Profile.intern [ "kernel"; "nfsd_segment" ]

let start machine ~seed =
  Machine.start_interrupt_clock machine;
  Machine.set_idle_poll machine (Some (Time_ns.of_us (Machine.profile machine).Costs.idle_loop_us));
  let rng = Prng.create ~seed in
  let engine = Machine.engine machine in
  let rx_line =
    Machine.interrupt_line machine ~name:"nfs-rx" ~source:Trigger.Ip_intr ~handler_work_us:4.0
      ~handler:(fun _ -> ())
      ()
  in
  let disk_line =
    Machine.interrupt_line machine ~name:"nfs-disk" ~source:Trigger.Dev_intr ~handler_work_us:5.0
      ~handler:(fun _ -> ())
      ()
  in
  let exec = Exec.create machine in
  let syscall_step = Kernel.step_syscall machine in
  let q_syscall = Exec.step exec syscall_step in
  let q_segment =
    Exec.step exec
      {
        Kernel.prio = Cpu.prio_kernel;
        work_us = 0.0;
        trigger = None;
        attr = a_nfsd_segment;
        entry_us = 0.0;
        entry_attr = a_nfsd_segment;
      }
  in
  let q_ip_output = Exec.step exec (Kernel.step_ip_output machine) in
  (* One script's variates, drawn into slots and copied into the
     script as it is built. *)
  let draws = Array.make 3 0.0 in
  let syscall sc i =
    draws.(i) <- syscall_step.Kernel.entry_us +. Costs.scale_us (Machine.profile machine) draws.(i);
    Exec.drawn sc q_syscall draws i
  in
  let serve_request () =
    ignore (Machine.raise_irq machine rx_line : bool);
    (* The request's variates, drawn last item first. *)
    Dist.draw_into nfsd_syscall_body rng draws 2;
    Dist.draw_into kernel_segment rng draws 1;
    Dist.draw_into nfsd_syscall_body rng draws 0;
    let sc = Exec.script exec in
    syscall sc 0;
    Exec.drawn sc q_segment draws 1;
    syscall sc 2;
    Exec.run sc (fun _ ->
        let wait = Dist.span disk_latency rng in
        Engine.schedule_after engine wait (fun () ->
            ignore (Machine.raise_irq machine disk_line : bool);
            (* Completion: hand the reply back and send it. *)
            let sc = Exec.script exec in
            Exec.quantum sc q_ip_output;
            Dist.draw_into nfsd_syscall_body rng draws 0;
            syscall sc 0;
            Exec.run sc ignore))
  in
  let rec arrivals () =
    let gap = Dist.span request_interarrival rng in
    Engine.schedule_after engine gap (fun () ->
        serve_request ();
        arrivals ())
  in
  arrivals ()
