type phase = Exec_storm | Compile | Disk_wait

(* Phase durations, us. *)
let storm_duration = Dist.Uniform (800.0, 3_000.0)
let compile_duration = Dist.Uniform (4_000.0, 18_000.0)
let disk_duration = Dist.Uniform (1_000.0, 6_000.0)

(* Gaps within phases. *)
let storm_user = Dist.Exponential 1.2
let storm_body = Dist.Exponential 1.0

let compile_user =
  Dist.Mixture
    [
      (0.745, Dist.Lognormal { mu = log 6.5; sigma = 0.9 });
      (0.254, Dist.Uniform (25.0, 90.0));
      (0.001, Dist.Uniform (150.0, 950.0));
    ]

let compile_body = Dist.Exponential 2.0

let start machine ~seed =
  Machine.start_interrupt_clock machine;
  Machine.set_idle_poll machine (Some (Time_ns.of_us (Machine.profile machine).Costs.idle_loop_us));
  let rng = Prng.create ~seed in
  let engine = Machine.engine machine in
  let disk_line =
    Machine.interrupt_line machine ~name:"build-disk" ~source:Trigger.Dev_intr
      ~handler_work_us:5.0 ~handler:(fun _ -> ())
      ()
  in
  let next_phase = function
    | Exec_storm -> Compile
    | Compile -> Disk_wait
    | Disk_wait -> Exec_storm
  in
  let rec run_phase phase =
    let duration = Dist.span (match phase with
      | Exec_storm -> storm_duration
      | Compile -> compile_duration
      | Disk_wait -> disk_duration) rng
    in
    let deadline = Time_ns.(Engine.now engine + duration) in
    match phase with
    | Disk_wait ->
      (* CPU idle; the idle loop polls.  A disk completion ends it. *)
      Engine.schedule_at engine deadline (fun () ->
          ignore (Machine.raise_irq machine disk_line : bool);
          run_phase (next_phase phase))
    | Exec_storm | Compile ->
      let user, body =
        match phase with
        | Exec_storm -> (storm_user, storm_body)
        | Compile | Disk_wait -> (compile_user, compile_body)
      in
      let rec churn _now =
        if Time_ns.(Engine.now engine >= deadline) then run_phase (next_phase phase)
        else begin
          let u = Dist.draw user rng in
          let b = Dist.draw body rng in
          (* Compilation alternates syscalls with page-fault traps. *)
          let entry k =
            if phase = Exec_storm && Dist.bernoulli rng 0.45 then
              Kernel.trap machine ~work_us:(b +. 4.0) k
            else Kernel.syscall machine ~work_us:b k
          in
          Kernel.user machine ~work_us:u (fun _ -> entry churn)
        end
      in
      churn 0
  in
  run_phase Exec_storm
