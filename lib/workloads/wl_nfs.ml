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
    Machine.interrupt_line machine ~name:"nfs-rx" ~source:Trigger.Ip_intr
      ~handler:(fun _ -> ())
      ()
  in
  let disk_line =
    Machine.interrupt_line machine ~name:"nfs-disk" ~source:Trigger.Dev_intr
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
  let syscall sc us =
    Exec.drawn sc q_syscall
      (syscall_step.Kernel.entry_us +. Costs.scale_us (Machine.profile machine) us)
  in
  let serve_request () =
    ignore (Machine.raise_irq machine rx_line ~handler_work_us:4.0 () : bool);
    (* The request's variates, drawn last item first. *)
    let last = Dist.draw nfsd_syscall_body rng in
    let segment = Dist.draw kernel_segment rng in
    let first = Dist.draw nfsd_syscall_body rng in
    let sc = Exec.script exec in
    syscall sc first;
    Exec.drawn sc q_segment segment;
    syscall sc last;
    Exec.run sc (fun _ ->
        let wait = Dist.span disk_latency rng in
        Engine.schedule_after engine wait (fun () ->
            ignore (Machine.raise_irq machine disk_line ~handler_work_us:5.0 () : bool);
            (* Completion: hand the reply back and send it. *)
            let sc = Exec.script exec in
            Exec.quantum sc q_ip_output;
            syscall sc (Dist.draw nfsd_syscall_body rng);
            Exec.run sc ignore))
  in
  let rec arrivals () =
    let gap = Dist.span request_interarrival rng in
    Engine.schedule_after engine gap (fun () ->
        serve_request ();
        arrivals ())
  in
  arrivals ()
