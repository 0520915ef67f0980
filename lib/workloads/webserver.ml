type server_kind = Apache | Flash

type http_mode = Http | Persistent of int

type net_mode = Interrupts | Soft_polling of float

type pacing = No_pacing | Soft_pacing | Hw_pacing of Time_ns.span

type config = {
  kind : server_kind;
  http : http_mode;
  net : net_mode;
  pacing : pacing;
  profile : Costs.profile;
  connections : int;
  nic_count : int;
  seed : int;
  extra_timer_hz : float option;
  attach_facility : bool;
  background_compute : bool;
  locality_override : Cache.locality option;
}

let default_config =
  {
    kind = Apache;
    http = Http;
    net = Interrupts;
    pacing = No_pacing;
    profile = Costs.pentium_ii_300;
    connections = 16;
    nic_count = 3;
    seed = 7;
    extra_timer_hz = None;
    attach_facility = false;
    background_compute = false;
    locality_override = None;
  }

(* ------------------------------------------------------------------ *)
(* Packet metadata on the simulated LAN.                               *)

type wkind =
  | Syn
  | Synack
  | Handshake_ack
  | Get
  | Ack_small  (** server's ACK of a GET / other bare ACK to client *)
  | Data of int  (** i-th data segment of the current response *)
  | Data_ack
  | Fin  (** client closes *)
  | Fin_ack  (** server's FIN+ACK back *)
  | Last_ack

type wmeta = { conn : int; wkind : wkind }

(* ------------------------------------------------------------------ *)
(* The request anatomy: every duration in microseconds at 300 MHz      *)
(* (Kernel steps rescale them to the machine's profile).               *)

type anatomy = {
  locality : Cache.locality;
  rx_process_us : float;  (** per-packet input protocol processing *)
  p_tcpip_trigger : float;
      (** probability an input-processing quantum ends in one of the
          network subsystem's additional trigger states (§5.2) *)
  setup_syscalls : int;
  setup_syscall_body : Dist.t;
  setup_user_segments : int;
  setup_user : Dist.t;
  setup_kernel_extra_us : float;  (** socket/PCB allocation etc. *)
  setup_traps : float;  (** expected page faults at connection setup *)
  pre_syscalls : int;
  pre_syscall_body : Dist.t;
  pre_user_segments : int;
  pre_user : Dist.t;
  data_packets : int;
  copy_per_packet_us : float;  (** socket copy + checksum *)
  writev_every : int;  (** a write(2) syscall per this many packets *)
  post_syscalls : int;
  post_syscall_body : Dist.t;
  post_user_segments : int;
  post_user : Dist.t;
  request_ctx_switches : int;
  window_updates : int;  (** bare ACK/window-update packets per request *)
  teardown_syscalls : int;
  teardown_syscall_body : Dist.t;
  teardown_user_us : float;
}

let lognormal ~median ~sigma = Dist.Lognormal { mu = log median; sigma }

let apache_anatomy =
  {
    locality = Cache.apache;
    rx_process_us = 13.0;
    p_tcpip_trigger = 0.20;
    setup_syscalls = 5;
    setup_syscall_body = Dist.Erlang { k = 2; mean = 7.0 };
    setup_user_segments = 2;
    setup_user =
      Dist.Mixture
        [ (0.7, lognormal ~median:55.0 ~sigma:0.5); (0.3, Dist.Uniform (88.0, 138.0)) ];
    setup_kernel_extra_us = 130.0;
    setup_traps = 1.0;
    pre_syscalls = 6;
    pre_syscall_body = Dist.Erlang { k = 2; mean = 7.5 };
    pre_user_segments = 6;
    pre_user =
      Dist.Mixture
        [
          (0.30, Dist.Uniform (0.5, 3.0));  (* back-to-back syscalls *)
          (0.57, lognormal ~median:46.0 ~sigma:0.5);
          (0.13, Dist.Uniform (88.0, 138.0));
        ];
    data_packets = 5;
    copy_per_packet_us = 19.0;
    writev_every = 3;
    post_syscalls = 4;
    post_syscall_body = Dist.Erlang { k = 2; mean = 7.5 };
    post_user_segments = 3;
    post_user =
      Dist.Mixture
        [
          (0.30, Dist.Uniform (0.5, 3.0));  (* back-to-back syscalls *)
          (0.57, lognormal ~median:46.0 ~sigma:0.5);
          (0.13, Dist.Uniform (88.0, 138.0));
        ];
    request_ctx_switches = 2;
    window_updates = 2;
    teardown_syscalls = 2;
    teardown_syscall_body = Dist.Erlang { k = 2; mean = 5.0 };
    teardown_user_us = 25.0;
  }

let flash_anatomy =
  {
    locality = Cache.flash;
    rx_process_us = 10.0;
    p_tcpip_trigger = 0.20;
    setup_syscalls = 7;
    setup_syscall_body = Dist.Erlang { k = 2; mean = 7.0 };
    setup_user_segments = 2;
    setup_user =
      Dist.Mixture
        [ (0.85, lognormal ~median:62.0 ~sigma:0.35); (0.15, Dist.Uniform (95.0, 130.0)) ];
    setup_kernel_extra_us = 120.0;
    setup_traps = 0.15;
    pre_syscalls = 2;
    pre_syscall_body = Dist.Erlang { k = 2; mean = 5.0 };
    pre_user_segments = 1;
    pre_user =
      Dist.Mixture
        [ (0.9, lognormal ~median:12.0 ~sigma:0.5); (0.1, Dist.Uniform (85.0, 115.0)) ];
    data_packets = 5;
    copy_per_packet_us = 6.0;
    writev_every = 5;
    post_syscalls = 1;
    post_syscall_body = Dist.Erlang { k = 2; mean = 5.0 };
    post_user_segments = 0;
    post_user = Dist.Constant 0.0;
    request_ctx_switches = 0;
    window_updates = 1;
    teardown_syscalls = 3;
    teardown_syscall_body = Dist.Erlang { k = 2; mean = 6.0 };
    teardown_user_us = 40.0;
  }

let anatomy_of = function Apache -> apache_anatomy | Flash -> flash_anatomy

(* Client-side latencies (not CPU-scaled: they belong to the LAN and the
   client machines, which are never the bottleneck). *)
let wire_latency = Time_ns.of_us 30.0
let client_turnaround = Time_ns.of_us 50.0
let client_think = Time_ns.of_us 80.0
let client_restart = Time_ns.of_us 120.0

(* ------------------------------------------------------------------ *)

type conn_client_state = {
  mutable data_got : int;
  mutable reqs_left : int;
}

type t = {
  cfg : config;
  anatomy : anatomy;
  engine : Engine.t;
  machine : Machine.t;
  facility : Softtimer.t option;
  mutable poller : Net_poll.t option;
  rng : Prng.t;
  nics : wmeta Nic.t array;
  clients : conn_client_state array;
  mutable completed : int;
  mutable measuring : bool;
  mutable measured : int;
  mutable measure_span : Time_ns.span;
  (* pacing *)
  pace_queue : (Time_ns.t -> unit) Queue.t;
  mutable pace_in_train : bool;
  mutable pace_last : Time_ns.t;
  mutable pace_sends : int;
  pace_intervals : Stats.Online.t;
  mutable hw_pacer : Hw_pacer.t option;
  mutable started : bool;
}

let config t = t.cfg
let engine t = t.engine
let machine t = t.machine
let facility t = t.facility
let poller t = t.poller
let completed_requests t = t.completed
let pacing_intervals t = t.pace_intervals
let pacer_sends t = t.pace_sends

let rx_interrupts t =
  Array.fold_left (fun acc nic -> acc + Interrupt.delivered (Nic.rx_line nic)) 0 t.nics

let rx_packets t = Array.fold_left (fun acc nic -> acc + Nic.rx_packets nic) 0 t.nics
let rx_batches t = Array.fold_left (fun acc nic -> acc + Nic.rx_batches nic) 0 t.nics

let small_packet t conn wkind =
  Packet.create ~size_bytes:64 ~meta:{ conn; wkind } ~born:(Engine.now t.engine)

let data_packet t conn i =
  Packet.create ~size_bytes:1500 ~meta:{ conn; wkind = Data i } ~born:(Engine.now t.engine)

let nic_of t conn = t.nics.(conn mod Array.length t.nics)

(* Client -> server, after the client's turnaround and the wire. *)
let client_send t conn ~after wkind =
  let nic = nic_of t conn in
  ignore
    (Engine.schedule_after t.engine
       Time_ns.(after + wire_latency)
       (fun () -> Nic.deliver nic (small_packet t conn wkind))
      : Engine.handle)

(* ------------------------------------------------------------------ *)
(* Server-side scripts.                                                *)

(* Attribution categories for this workload's inline submissions. *)
let a_kernel_work = Profile.intern [ "kernel"; "work" ]
let a_socket_copy = Profile.intern [ "kernel"; "socket_copy" ]
let a_conn_setup = Profile.intern [ "kernel"; "conn_setup" ]
let a_ip_output_handler = Profile.intern [ "kernel"; "ip_output"; "in_handler" ]
let a_rx_cold = Profile.intern [ "softintr"; "rx_process"; "cold" ]
let a_rx_warm = Profile.intern [ "softintr"; "rx_process"; "warm" ]
let a_tcp_sweep = Profile.intern [ "softintr"; "tcp_timer"; "sweep" ]
let a_background = Profile.intern [ "user"; "background" ]
let a_poll_status = Profile.intern [ "softtimer"; "net_poll"; "status_read" ]
let a_pace_touch = Profile.intern [ "softtimer"; "rbc"; "handler_touch" ]

let step_kernel_work ?(attr = a_kernel_work) m ~work_us =
  {
    Kernel.prio = Cpu.prio_kernel;
    work_us = Costs.scale_us (Machine.profile m) work_us;
    trigger = None;
    attr;
    entry_us = 0.0;
    entry_attr = attr;
  }

let syscall_steps t n body =
  List.init n (fun _ -> Exec.quantum (Kernel.step_syscall ~work_us:(Dist.draw body t.rng) t.machine))

let interleave xs ys =
  (* x1 y1 x2 y2 ... with leftovers appended *)
  let rec go acc xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs, y :: ys -> go (y :: x :: acc) xs ys
  in
  go [] xs ys

let user_steps t n dist =
  List.init n (fun _ ->
      Exec.quantum (Kernel.step_user t.machine ~work_us:(Dist.draw dist t.rng)))

(* Transmit one packet: the IP output loop's work and trigger state,
   then the wire. *)
let tx_items t conn pkt =
  [
    Exec.quantum (Kernel.step_ip_output t.machine);
    Exec.emit (fun _now -> Nic.transmit (nic_of t conn) pkt);
  ]

let pace_record t now =
  if t.pace_in_train then
    Stats.Online.add t.pace_intervals (Time_ns.to_us Time_ns.(now - t.pace_last));
  t.pace_last <- now;
  t.pace_sends <- t.pace_sends + 1

(* One paced transmission: pop a pending packet, account the interval,
   transmit.  Returns false when nothing is pending. *)
let pace_send t now =
  match Queue.take_opt t.pace_queue with
  | None ->
    t.pace_in_train <- false;
    false
  | Some do_tx ->
    pace_record t now;
    t.pace_in_train <- not (Queue.is_empty t.pace_queue);
    do_tx now;
    true

(* Transmission performed from inside a timer handler: the IP output
   work is charged, but it happens within the handler's context rather
   than ending in a fresh trigger state of its own. *)
let tx_items_in_handler t conn pkt =
  [
    Exec.quantum
      {
        Kernel.prio = Cpu.prio_kernel;
        work_us = Costs.scale_us (Machine.profile t.machine) 7.0;
        trigger = None;
        attr = a_ip_output_handler;
        entry_us = 0.0;
        entry_attr = a_ip_output_handler;
      };
    Exec.emit (fun _now -> Nic.transmit (nic_of t conn) pkt);
  ]

(* Emission of a data packet: inline, or deferred through the pacer. *)
let data_tx_item t conn i =
  match t.cfg.pacing with
  | No_pacing -> tx_items t conn (data_packet t conn i)
  | Soft_pacing | Hw_pacing _ ->
    [
      Exec.emit
        (fun _now ->
          let pkt = data_packet t conn i in
          Queue.add
            (fun _send_time -> Exec.run t.machine (tx_items_in_handler t conn pkt) ignore)
            t.pace_queue);
    ]

let write_phase_items t conn =
  let a = t.anatomy in
  let items = ref [] in
  for i = 0 to a.data_packets - 1 do
    if i mod a.writev_every = 0 then
      items :=
        Exec.quantum (Kernel.step_syscall ~work_us:(Dist.draw a.pre_syscall_body t.rng) t.machine)
        :: !items;
    items :=
      Exec.quantum
        (step_kernel_work ~attr:a_socket_copy t.machine ~work_us:a.copy_per_packet_us)
      :: !items;
    items := List.rev_append (List.rev (data_tx_item t conn i)) !items
  done;
  List.rev !items

let maybe_trap t p =
  if Prng.float t.rng < p then [ Exec.quantum (Kernel.step_trap t.machine) ] else []

let ctx_steps t n = List.init n (fun _ -> Exec.quantum (Kernel.step_ctx_switch t.machine))

(* The application-level handling of one GET. *)
let request_items t conn =
  let a = t.anatomy in
  let pre =
    interleave (user_steps t a.pre_user_segments a.pre_user) (syscall_steps t a.pre_syscalls a.pre_syscall_body)
  in
  let post =
    interleave (syscall_steps t a.post_syscalls a.post_syscall_body) (user_steps t a.post_user_segments a.post_user)
  in
  let ctx = ctx_steps t a.request_ctx_switches in
  let ctx_in, ctx_out =
    match ctx with [] -> ([], []) | [ c ] -> ([ c ], []) | c1 :: rest -> ([ c1 ], rest)
  in
  let window_update =
    if a.window_updates >= 1 then tx_items t conn (small_packet t conn Ack_small) else []
  in
  let window_update2 =
    if a.window_updates >= 2 then tx_items t conn (small_packet t conn Ack_small) else []
  in
  ctx_in @ pre @ write_phase_items t conn @ window_update @ post @ window_update2 @ ctx_out

let setup_items t =
  let a = t.anatomy in
  ctx_steps t (match t.cfg.kind with Apache -> 1 | Flash -> 0)
  @ interleave (user_steps t a.setup_user_segments a.setup_user) (syscall_steps t a.setup_syscalls a.setup_syscall_body)
  @ [
      Exec.quantum
        (step_kernel_work ~attr:a_conn_setup t.machine ~work_us:a.setup_kernel_extra_us);
    ]
  @ maybe_trap t a.setup_traps

let teardown_items t conn =
  let a = t.anatomy in
  tx_items t conn (small_packet t conn Ack_small)
  @ syscall_steps t a.teardown_syscalls a.teardown_syscall_body
  @ [ Exec.quantum (Kernel.step_user t.machine ~work_us:a.teardown_user_us) ]
  @ tx_items t conn (small_packet t conn Fin_ack)

(* ------------------------------------------------------------------ *)
(* Client behaviour (runs on the client machines: pure engine events). *)

let on_response_complete t conn =
  t.completed <- t.completed + 1;
  if t.measuring then t.measured <- t.measured + 1;
  let st = t.clients.(conn) in
  if st.reqs_left > 0 then begin
    st.reqs_left <- st.reqs_left - 1;
    st.data_got <- 0;
    client_send t conn ~after:client_think Get
  end
  else client_send t conn ~after:client_turnaround Fin

let rec client_handle t now pkt =
  ignore now;
  let conn = pkt.Packet.meta.conn in
  let st = t.clients.(conn) in
  match pkt.Packet.meta.wkind with
  | Synack ->
    client_send t conn ~after:client_turnaround Handshake_ack;
    client_send t conn ~after:Time_ns.(client_turnaround + Time_ns.of_us 8.0) Get
  | Data i ->
    ignore i;
    st.data_got <- st.data_got + 1;
    if st.data_got mod 2 = 0 || st.data_got = t.anatomy.data_packets then
      client_send t conn ~after:client_turnaround Data_ack;
    if st.data_got = t.anatomy.data_packets then on_response_complete t conn
  | Ack_small -> ()
  | Fin_ack ->
    client_send t conn ~after:client_turnaround Last_ack;
    (* Connection over: this client starts a fresh one. *)
    ignore
      (Engine.schedule_after t.engine client_restart (fun () -> start_connection t conn)
        : Engine.handle)
  | Syn | Handshake_ack | Get | Data_ack | Fin | Last_ack ->
    (* Server-bound kinds never reach the client. *)
    ()

and start_connection t conn =
  let st = t.clients.(conn) in
  st.data_got <- 0;
  st.reqs_left <- (match t.cfg.http with Http -> 0 | Persistent n -> max 0 (n - 1));
  client_send t conn ~after:Time_ns.zero Syn

(* ------------------------------------------------------------------ *)
(* Server-side packet dispatch (after input protocol processing).      *)

let server_dispatch t pkt =
  let conn = pkt.Packet.meta.conn in
  match pkt.Packet.meta.wkind with
  | Syn ->
    (* PCB allocation + SYN-ACK transmission. *)
    Exec.run t.machine
      (Exec.quantum (step_kernel_work t.machine ~work_us:14.0)
       :: tx_items t conn (small_packet t conn Synack))
      ignore
  | Handshake_ack ->
    (* Completes the handshake; connection setup work happens when the
       server application accepts. *)
    Exec.run t.machine (setup_items t) ignore
  | Get ->
    (* TCP ACKs the request, then the application handles it. *)
    Exec.run t.machine
      (tx_items t conn (small_packet t conn Ack_small) @ request_items t conn)
      ignore
  | Data_ack -> ()
  | Fin -> Exec.run t.machine (teardown_items t conn) ignore
  | Last_ack -> ()
  | Synack | Ack_small | Data _ | Fin_ack ->
    (* Client-bound kinds never reach the server. *)
    ()

(* Input protocol processing of one received batch: the first packet
   pays the full per-packet cost, the rest run warm (aggregation
   benefit, §5.9). *)
let on_rx_batch t _now batch =
  let a = t.anatomy in
  (* In interrupt mode the batch is processed from a software interrupt:
     its dispatch and the cold-cache protocol processing cost extra
     compared with polled processing, which runs in an
     already-locality-shifted trigger state (the paper's Â§4.2
     argument). *)
  let intr_mode = match t.cfg.net with Interrupts -> true | Soft_polling _ -> false in
  let softintr_surcharge =
    if intr_mode then 2.5 +. (2.0 *. a.locality.Cache.sensitivity) else 0.0
  in
  let items =
    List.concat
      (List.mapi
         (fun i pkt ->
           let cost =
             if i = 0 then a.rx_process_us +. softintr_surcharge
             else a.rx_process_us *. a.locality.Cache.warm_fraction
           in
           let trigger =
             if Prng.float t.rng < a.p_tcpip_trigger then Some Trigger.Tcpip_other else None
           in
           let attr = if i = 0 then a_rx_cold else a_rx_warm in
           [
             Exec.Quantum
               {
                 Kernel.prio = Cpu.prio_softintr;
                 work_us = cost;
                 trigger;
                 attr;
                 entry_us = 0.0;
                 entry_attr = attr;
               };
             Exec.emit (fun _ -> server_dispatch t pkt);
           ])
         batch)
  in
  Exec.run t.machine items ignore

(* ------------------------------------------------------------------ *)

let start_tcp_timer_sweeps t =
  let period = Time_ns.of_ms 200.0 in
  let rec sweep () =
    for _ = 1 to t.cfg.connections do
      Machine.submit_quantum t.machine ~attr:a_tcp_sweep ~prio:Cpu.prio_softintr
        ~work_us:1.5
        ~trigger:(Some Trigger.Tcpip_other)
        (fun _ -> ())
    done;
    ignore (Engine.schedule_after t.engine period sweep : Engine.handle)
  in
  ignore (Engine.schedule_after t.engine period sweep : Engine.handle)

let start_background_compute t =
  (* An endless CPU hog at background priority: big syscall-free quanta. *)
  let rec churn _now =
    Machine.submit_quantum t.machine ~attr:a_background ~prio:Cpu.prio_background
      ~work_us:400.0 ~trigger:None churn
  in
  churn Time_ns.zero

let create cfg =
  let engine = Engine.create () in
  let machine = Machine.create ~profile:cfg.profile engine in
  let anatomy = anatomy_of cfg.kind in
  let anatomy =
    match cfg.locality_override with
    | None -> anatomy
    | Some locality -> { anatomy with locality }
  in
  Machine.set_locality machine anatomy.locality;
  let needs_facility =
    cfg.attach_facility
    || (match cfg.net with Soft_polling _ -> true | Interrupts -> false)
    || (match cfg.pacing with Soft_pacing -> true | No_pacing | Hw_pacing _ -> false)
  in
  let facility = if needs_facility then Some (Softtimer.attach machine) else None in
  if not needs_facility then Machine.start_interrupt_clock machine;
  (* FreeBSD's spl-protected critical sections: they defer (and can
     lose) periodic-timer ticks, Â§5.7. *)
  Machine.start_spl_sections machine ~seed:(cfg.seed + 101) ();
  (match cfg.extra_timer_hz with
  | Some hz -> ignore (Machine.add_periodic_timer machine ~hz (fun _ -> ()) : Interrupt.line)
  | None -> ());
  let t_ref = ref None in
  let the_t () = match !t_ref with Some t -> t | None -> assert false in
  let nics =
    Array.init cfg.nic_count (fun i ->
        Nic.create machine
          ~name:(Printf.sprintf "fxp%d" i)
          ~bandwidth_bps:100e6 ~wire_latency
          ~tx_deliver:(fun now pkt -> client_handle (the_t ()) now pkt)
          ~on_rx_batch:(fun now batch -> on_rx_batch (the_t ()) now batch)
          ~tx_intr_coalesce:8 ~rx_intr_delay:(Time_ns.of_us 25.0) ())
  in
  let t =
    {
      cfg;
      anatomy;
      engine;
      machine;
      facility;
      poller = None;
      rng = Prng.create ~seed:cfg.seed;
      nics;
      clients =
        Array.init cfg.connections (fun _ -> { data_got = 0; reqs_left = 0 });
      completed = 0;
      measuring = false;
      measured = 0;
      measure_span = 0L;
      pace_queue = Queue.create ();
      pace_in_train = false;
      pace_last = Time_ns.zero;
      pace_sends = 0;
      pace_intervals = Stats.Online.create ();
      hw_pacer = None;
      started = false;
    }
  in
  t_ref := Some t;
  (* Network polling. *)
  (match (cfg.net, facility) with
  | Soft_polling quota, Some st ->
    Array.iter (fun nic -> Nic.set_mode nic Nic.Polled) nics;
    let poll _now =
      (* Reading the interfaces' status registers costs a little even
         when nothing is found. *)
      Machine.submit_quantum machine ~attr:a_poll_status ~prio:Cpu.prio_intr
        ~work_us:(0.4 *. float_of_int (Array.length nics))
        ~trigger:None
        (fun _ -> ());
      Array.fold_left (fun acc nic -> acc + Nic.poll nic) 0 nics
    in
    t.poller <- Some (Net_poll.create st ~quota ~poll ())
  | Soft_polling _, None -> assert false
  | Interrupts, _ -> ());
  (* Pacing of data transmissions. *)
  (match (cfg.pacing, facility) with
  | Soft_pacing, Some st ->
    (* A soft-timer event at every trigger state; transmit one packet
       whenever the handler runs and a packet is pending (the paper's
       rate-clocking overhead experiment).  Each invocation touches the
       pacing and TCP state, whose cache footprint costs more on a
       locality-sensitive server - the residual 2-6% overhead of the
       paper's Table 3. *)
    let handler_touch_us = 0.5 *. anatomy.locality.Cache.sensitivity in
    let touch_attr = Some a_pace_touch in
    let rec arm () = ignore (Softtimer.schedule_soft_event st ~ticks:0L on_fire : Softtimer.handle)
    and on_fire now =
      Machine.submit_quantum machine ?attr:touch_attr ~prio:Cpu.prio_intr
        ~work_us:handler_touch_us ~trigger:None ignore;
      ignore (pace_send t now : bool);
      arm ()
    in
    arm ()
  | Soft_pacing, None -> assert false
  | Hw_pacing interval, _ ->
    let pacer =
      Hw_pacer.create machine ~interval ~send:(fun now -> pace_send t now) ()
    in
    t.hw_pacer <- Some pacer
  | No_pacing, _ -> ());
  t

let requests_per_sec t =
  if Time_ns.(t.measure_span <= 0L) then nan
  else float_of_int t.measured /. Time_ns.to_sec t.measure_span

let run t ~warmup ~measure =
  if t.started then invalid_arg "Webserver.run: already run";
  t.started <- true;
  start_tcp_timer_sweeps t;
  if t.cfg.background_compute then start_background_compute t;
  (match t.poller with Some p -> Net_poll.start p | None -> ());
  (match t.hw_pacer with Some p -> Hw_pacer.start p | None -> ());
  (* Stagger connection starts to avoid a synchronised thundering herd. *)
  Array.iteri
    (fun conn _ ->
      ignore
        (Engine.schedule_after t.engine
           (Time_ns.mul (Time_ns.of_us 37.0) conn)
           (fun () -> start_connection t conn)
          : Engine.handle))
    t.clients;
  Engine.run_until t.engine warmup;
  t.measuring <- true;
  t.measured <- 0;
  t.measure_span <- measure;
  Engine.run_until t.engine Time_ns.(warmup + measure);
  t.measuring <- false
