type row = {
  offered_kpps : float;
  interrupt_goodput : float;
  hybrid_goodput : float;
  softpoll_goodput : float;
}

type mode = Interrupts | Hybrid | Softpoll

(* Per-packet protocol+app processing beyond the interrupt cost. *)
let process_us = 10.0
let warm = 0.7

let a_rx_cold = Profile.intern [ "softintr"; "rx_process"; "cold" ]
let a_rx_warm = Profile.intern [ "softintr"; "rx_process"; "warm" ]

let goodput (cfg : Exp_config.t) ~mode ~rate_pps =
  let engine = Engine.create () in
  let machine = Machine.create engine in
  let processed = ref 0 in
  let nic_ref = ref None in
  let the_nic () = match !nic_ref with Some n -> n | None -> assert false in
  let exec = Exec.create machine in
  let rx cost attr =
    Exec.step exec
      {
        Kernel.prio = Cpu.prio_softintr;
        work_us = cost;
        trigger = None;
        attr;
        entry_us = 0.0;
        entry_attr = attr;
      }
  in
  let q_cold = rx process_us a_rx_cold and q_warm = rx (process_us *. warm) a_rx_warm in
  let e_processed = Exec.emitter exec (fun _ _ _ -> incr processed) in
  let batch_done _ =
    if mode = Hybrid then
      (* Poll-on-completion: the drain hands us the next batch
         through on_rx_batch; 0 means interrupts were re-enabled. *)
      ignore (Nic.hybrid_done (the_nic ()) : int)
  in
  (* Process a batch: first packet cold, rest warm; in hybrid mode, ask
     the NIC for more work when done and keep going. *)
  let on_rx_batch _now batch =
    let sc = Exec.script exec in
    List.iteri
      (fun i _pkt ->
        Exec.quantum sc (if i = 0 then q_cold else q_warm);
        Exec.emit sc e_processed 0 0)
      batch;
    Exec.run sc batch_done
  in
  let nic =
    Nic.create machine ~name:"flood0" ~bandwidth_bps:1e9 ~wire_latency:(Time_ns.of_us 5.0)
      ~tx_deliver:(fun _ _ -> ())
      ~on_rx_batch ~rx_ring_capacity:256 ()
  in
  nic_ref := Some nic;
  let facility_poller =
    match mode with
    | Interrupts ->
      Nic.set_mode nic Nic.Interrupt_driven;
      None
    | Hybrid ->
      Nic.set_mode nic Nic.Hybrid;
      None
    | Softpoll ->
      Nic.set_mode nic Nic.Polled;
      let st = Softtimer.attach machine in
      let poller =
        Net_poll.create st ~quota:4.0 ~poll:(fun _ -> Nic.poll nic) ()
      in
      Net_poll.start poller;
      Some poller
  in
  ignore facility_poller;
  (* The flood: deterministic exponential inter-arrivals at [rate_pps]. *)
  let rng = Prng.create ~seed:cfg.Exp_config.seed in
  let gap_dist = Dist.Exponential (1e6 /. rate_pps) in
  let rec flood () =
    Engine.schedule_after engine (Dist.span gap_dist rng) (fun () ->
        Nic.deliver nic
          (Packet.create ~size_bytes:1500 ~meta:() ~born:(Engine.now_i engine));
        flood ())
  in
  flood ();
  let span = if cfg.Exp_config.quick then 0.4 else 1.5 in
  Engine.run_until engine (Time_ns.of_sec span);
  float_of_int !processed /. span

let rates (cfg : Exp_config.t) =
  if cfg.Exp_config.quick then [ 20e3; 60e3; 120e3; 200e3 ]
  else [ 10e3; 20e3; 40e3; 60e3; 80e3; 100e3; 140e3; 200e3; 300e3 ]

let compute cfg =
  List.map
    (fun rate_pps ->
      {
        offered_kpps = rate_pps /. 1e3;
        interrupt_goodput = goodput cfg ~mode:Interrupts ~rate_pps;
        hybrid_goodput = goodput cfg ~mode:Hybrid ~rate_pps;
        softpoll_goodput = goodput cfg ~mode:Softpoll ~rate_pps;
      })
    (rates cfg)

let render _cfg rows =
  let open Tablefmt in
  let t =
    create
      ~title:
        "Extension -- receiver livelock under overload (goodput, packets/s; 10 us/packet stack cost)"
      ~columns:
        [
          ("offered (kpps)", Right);
          ("interrupts", Right);
          ("MR hybrid", Right);
          ("soft-timer poll", Right);
        ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          cell_f ~decimals:0 r.offered_kpps;
          cell_f ~decimals:0 r.interrupt_goodput;
          cell_f ~decimals:0 r.hybrid_goodput;
          cell_f ~decimals:0 r.softpoll_goodput;
        ])
    rows;
  render t
  ^ "  expected: interrupt goodput collapses past saturation (livelock); the hybrid and\n\
    \  soft-timer polling saturate flat (Mogul & Ramakrishnan '97; paper Section 6).\n"

let run cfg =
  Exp_config.header "Extension: receiver livelock (interrupts vs hybrid vs soft polling)"
  ^ render cfg (compute cfg)
