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
(* Segment kinds on the simulated LAN, as int codes.  A packet's meta is
   [conn_code t conn kind], the packing emit arguments use, so it is an
   immediate.  Client -> server kinds come first. *)

let k_syn = 0
let k_handshake_ack = 1
let k_get = 2
let k_data_ack = 3
let k_fin = 4  (* client closes *)
let k_last_ack = 5
let k_synack = 6
let k_ack_small = 7  (* server's ACK of a GET / other bare ACK to client *)
let k_fin_ack = 8  (* server's FIN+ACK back *)
let k_data = 9  (* the i-th data segment of a response is [k_data + i] *)

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
let wire_latency_ns = 30_000
let wire_latency = Time_ns.of_ns wire_latency_ns
let client_turnaround = 50_000
let client_think = 80_000
let client_restart = 120_000
let client_stagger = 37_000  (* between the first connections' starts *)

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
  nics : int Nic.t array;
  packets : int Packet.Pool.t;  (* every packet on the LAN, both ways *)
  clients : conn_client_state array;
  mutable completed : int;
  mutable measuring : bool;
  mutable measured : int;
  mutable measure_span : Time_ns.span;
  (* pacing: pending paced transmissions, a ring of
     ([conn_code conn (k_data + index)], born) pairs *)
  mutable pace_ring : int array;
  mutable pace_head : int;
  mutable pace_len : int;
  mutable pace_in_train : bool;
  mutable pace_last : int;  (* ns *)
  mutable pace_sends : int;
  pace_intervals : Stats.Online.t;
  mutable hw_pacer : Hw_pacer.t option;
  mutable started : bool;
  mutable k_client : Engine.kind;  (* payload [conn * 8 + k], a client kind or [code_restart] *)
  (* The server's script arena and its steps and emits, registered once
     in [create]. *)
  exec : Exec.t;
  q_ip_output : Exec.step;
  q_ip_output_handler : Exec.step;  (* IP output inside a timer handler *)
  q_ctx : Exec.step;
  q_copy : Exec.step;  (* socket copy + checksum of one data packet *)
  q_conn_setup : Exec.step;
  q_pcb : Exec.step;  (* PCB allocation for a SYN *)
  q_teardown_user : Exec.step;
  q_trap : Exec.step;
  q_rx : Exec.step array;  (* input processing: cold, cold + trigger, warm, warm + trigger *)
  q_syscall : Exec.step;  (* templates of the drawn steps *)
  q_user : Exec.step;
  syscall_entry_us : float;
  scale : float;  (* [Costs.scale_us] of the profile, as one factor *)
  e_tx_small : Exec.emitter;  (* [conn_code conn kind], born *)
  e_tx_data : Exec.emitter;  (* [conn_code conn (k_data + index)], born *)
  e_pace : Exec.emitter;  (* [conn_code conn (k_data + index)] *)
  e_dispatch : Exec.emitter;  (* [conn_code conn kind] *)
  draws : float array;  (* one script's variates, in draw order *)
}

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

let nic_of t conn = t.nics.(conn mod Array.length t.nics)

(* An emit's first argument, and a packet's meta, packs a connection
   with a small code. *)
let conn_code t conn x = (x * t.cfg.connections) + conn
let conn_of t a = a mod t.cfg.connections
let code_of t a = a / t.cfg.connections

(* Server -> client segments: the emit's argument is the packet's meta. *)
let[@hot] tx_small t _now a born =
  Nic.transmit (nic_of t (conn_of t a))
    (Packet.Pool.acquire t.packets ~size_bytes:64 ~meta:a ~born)

let[@hot] tx_data t _now a born =
  Nic.transmit (nic_of t (conn_of t a))
    (Packet.Pool.acquire t.packets ~size_bytes:1500 ~meta:a ~born)

(* Client events: a packet of a client -> server kind, delivered to
   the server's NIC, or a connection (re)start. *)
let code_restart = 6

(* Client -> server, [after] ns of the client's turnaround plus the
   wire. *)
let client_send t conn ~after kind =
  Engine.post_after_i t.engine (after + wire_latency_ns) t.k_client ((conn * 8) + kind)

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

(* Script building.  Every step is registered with the server's arena
   in [create]; a drawn step appends its template with the drawn work.
   Scripts are written front to back, after their variates are drawn
   into [t.draws] in each builder's fixed draw order, which the
   server's random stream depends on.  A drawn step's work is computed
   in its slot of [t.draws] and copied from there into the script, so no
   float is boxed.  A transmission's packet is acquired when the script
   reaches it, born at the instant the script was built. *)

let syscall_item t sc i =
  t.draws.(i) <- t.syscall_entry_us +. (t.draws.(i) *. t.scale);
  Exec.drawn sc t.q_syscall t.draws i

let user_item t sc i =
  t.draws.(i) <- t.draws.(i) *. t.scale;
  Exec.drawn sc t.q_user t.draws i

let draw_n t dist base n =
  for i = base to base + n - 1 do
    Dist.draw_into dist t.rng t.draws i
  done

(* Append [x1 y1 x2 y2 ...] (leftovers of the longer side last): [nx]
   steps drawn at [t.draws.(xb ..)], syscalls when [x_sys] and user
   steps otherwise, and [ny] steps of the other kind drawn at
   [t.draws.(yb ..)]. *)
let interleave t sc ~x_sys ~xb ~nx ~yb ~ny =
  let m = Int.min nx ny in
  for p = 0 to nx + ny - 1 do
    let from_x = if p < 2 * m then p land 1 = 0 else nx > ny in
    let j = if p < 2 * m then p lsr 1 else p - m in
    let i = if from_x then xb + j else yb + j in
    if from_x = x_sys then syscall_item t sc i else user_item t sc i
  done

(* Transmit one bare segment: the IP output loop's work and trigger
   state, then the wire. *)
let tx t sc conn kind =
  Exec.quantum sc t.q_ip_output;
  Exec.emit sc t.e_tx_small (conn_code t conn kind) (Engine.now_i t.engine)

let pace_record t now =
  if t.pace_in_train then Stats.Online.add_us_of_ns t.pace_intervals (now - t.pace_last);
  t.pace_last <- now;
  t.pace_sends <- t.pace_sends + 1

(* Queue a paced transmission, doubling the ring when full. *)
let[@hot] pace_push t a born =
  let cap = Array.length t.pace_ring / 2 in
  if t.pace_len = cap then begin
    let ring = Array.make (4 * cap) 0 in
    for k = 0 to cap - 1 do
      Array.blit t.pace_ring (2 * ((t.pace_head + k) mod cap)) ring (2 * k) 2
    done;
    t.pace_ring <- ring;
    t.pace_head <- 0
  end;
  let at = 2 * ((t.pace_head + t.pace_len) mod (Array.length t.pace_ring / 2)) in
  t.pace_ring.(at) <- a;
  t.pace_ring.(at + 1) <- born;
  t.pace_len <- t.pace_len + 1

(* One paced transmission: pop a pending packet, account the interval,
   transmit.  Returns false when nothing is pending.  A paced packet is
   transmitted from inside a timer handler: the IP output work is
   charged, but within the handler's context rather than ending in a
   fresh trigger state of its own. *)
let[@hot] pace_send t now =
  if t.pace_len = 0 then begin
    t.pace_in_train <- false;
    false
  end
  else begin
    let at = 2 * t.pace_head in
    let a = t.pace_ring.(at) and born = t.pace_ring.(at + 1) in
    t.pace_head <- (t.pace_head + 1) mod (Array.length t.pace_ring / 2);
    t.pace_len <- t.pace_len - 1;
    pace_record t now;
    t.pace_in_train <- t.pace_len > 0;
    let sc = Exec.script t.exec in
    Exec.quantum sc t.q_ip_output_handler;
    Exec.emit sc t.e_tx_data a born;
    Exec.run sc ignore;
    true
  end

(* Emission of a data packet: inline, or deferred through the pacer.  An
   inline packet goes on the wire when the script reaches it, and its IP
   output quantum runs after that.  A paced packet joins the pacer's
   queue when the script reaches it. *)
let data_tx t sc conn i =
  let a = conn_code t conn (k_data + i) in
  match t.cfg.pacing with
  | No_pacing ->
    Exec.emit sc t.e_tx_data a (Engine.now_i t.engine);
    Exec.quantum sc t.q_ip_output
  | Soft_pacing | Hw_pacing _ -> Exec.emit sc t.e_pace a 0

let write_syscalls a = (a.data_packets + a.writev_every - 1) / a.writev_every

(* The server's handling of one GET: TCP ACKs the request, then the
   application serves it.  Draw order: pre-phase syscalls, pre-phase
   user, post-phase user, post-phase syscalls, write-phase syscalls. *)
let[@hot] get_script t conn =
  let a = t.anatomy in
  let pre_s = 0 in
  let pre_u = pre_s + a.pre_syscalls in
  let post_u = pre_u + a.pre_user_segments in
  let post_s = post_u + a.post_user_segments in
  let wr = post_s + a.post_syscalls in
  draw_n t a.pre_syscall_body pre_s a.pre_syscalls;
  draw_n t a.pre_user pre_u a.pre_user_segments;
  draw_n t a.post_user post_u a.post_user_segments;
  draw_n t a.post_syscall_body post_s a.post_syscalls;
  draw_n t a.pre_syscall_body wr (write_syscalls a);
  let sc = Exec.script t.exec in
  tx t sc conn k_ack_small;
  if a.request_ctx_switches >= 1 then Exec.quantum sc t.q_ctx;
  interleave t sc ~x_sys:false ~xb:pre_u ~nx:a.pre_user_segments ~yb:pre_s ~ny:a.pre_syscalls;
  for i = 0 to a.data_packets - 1 do
    if i mod a.writev_every = 0 then syscall_item t sc (wr + (i / a.writev_every));
    Exec.quantum sc t.q_copy;
    data_tx t sc conn i
  done;
  if a.window_updates >= 1 then tx t sc conn k_ack_small;
  interleave t sc ~x_sys:true ~xb:post_s ~nx:a.post_syscalls ~yb:post_u ~ny:a.post_user_segments;
  if a.window_updates >= 2 then tx t sc conn k_ack_small;
  for _ = 2 to a.request_ctx_switches do
    Exec.quantum sc t.q_ctx
  done;
  sc

(* Connection setup when the application accepts.  Draw order: the
   page-fault coin, then syscalls, then user. *)
let[@hot] setup_script t =
  let a = t.anatomy in
  let trap = Dist.bernoulli t.rng a.setup_traps in
  let su = a.setup_syscalls in
  draw_n t a.setup_syscall_body 0 a.setup_syscalls;
  draw_n t a.setup_user su a.setup_user_segments;
  let sc = Exec.script t.exec in
  (match t.cfg.kind with Apache -> Exec.quantum sc t.q_ctx | Flash -> ());
  interleave t sc ~x_sys:false ~xb:su ~nx:a.setup_user_segments ~yb:0 ~ny:a.setup_syscalls;
  Exec.quantum sc t.q_conn_setup;
  if trap then Exec.quantum sc t.q_trap;
  sc

let[@hot] teardown_script t conn =
  let a = t.anatomy in
  draw_n t a.teardown_syscall_body 0 a.teardown_syscalls;
  let sc = Exec.script t.exec in
  tx t sc conn k_ack_small;
  for i = 0 to a.teardown_syscalls - 1 do
    syscall_item t sc i
  done;
  Exec.quantum sc t.q_teardown_user;
  tx t sc conn k_fin_ack;
  sc

(* ------------------------------------------------------------------ *)
(* Client behaviour (runs on the client machines: pure engine events). *)

let on_response_complete t conn =
  t.completed <- t.completed + 1;
  if t.measuring then t.measured <- t.measured + 1;
  let st = t.clients.(conn) in
  if st.reqs_left > 0 then begin
    st.reqs_left <- st.reqs_left - 1;
    st.data_got <- 0;
    client_send t conn ~after:client_think k_get
  end
  else client_send t conn ~after:client_turnaround k_fin

let start_connection t conn =
  let st = t.clients.(conn) in
  st.data_got <- 0;
  st.reqs_left <- (match t.cfg.http with Http -> 0 | Persistent n -> Int.max 0 (n - 1));
  client_send t conn ~after:0 k_syn

(* A server -> client segment reaches its client, which reads it and
   releases it. *)
let[@hot] client_handle t _now pkt =
  let a = pkt.Packet.meta in
  Packet.Pool.release t.packets pkt;
  let conn = conn_of t a and kind = code_of t a in
  let st = t.clients.(conn) in
  if kind = k_synack then begin
    client_send t conn ~after:client_turnaround k_handshake_ack;
    client_send t conn ~after:(client_turnaround + 8_000) k_get
  end
  else if kind >= k_data then begin
    st.data_got <- st.data_got + 1;
    if st.data_got mod 2 = 0 || st.data_got = t.anatomy.data_packets then
      client_send t conn ~after:client_turnaround k_data_ack;
    if st.data_got = t.anatomy.data_packets then on_response_complete t conn
  end
  else if kind = k_fin_ack then begin
    client_send t conn ~after:client_turnaround k_last_ack;
    (* Connection over: this client starts a fresh one. *)
    Engine.post_after_i t.engine client_restart t.k_client ((conn * 8) + code_restart)
  end
(* [k_ack_small] needs nothing; server-bound kinds never reach the
   client. *)

let[@hot] client_event t payload =
  let conn = payload lsr 3 and code = payload land 7 in
  if code = code_restart then start_connection t conn
  else
    Nic.deliver (nic_of t conn)
      (Packet.Pool.acquire t.packets ~size_bytes:64 ~meta:(conn_code t conn code)
         ~born:(Engine.now_i t.engine))

(* ------------------------------------------------------------------ *)
(* Server-side packet dispatch (after input protocol processing).      *)

let[@hot] server_dispatch t _now a _ =
  let conn = conn_of t a and kind = code_of t a in
  if kind = k_syn then begin
    (* PCB allocation + SYN-ACK transmission. *)
    let sc = Exec.script t.exec in
    Exec.quantum sc t.q_pcb;
    tx t sc conn k_synack;
    Exec.run sc ignore
  end
  else if kind = k_handshake_ack then
    (* Completes the handshake; connection setup work happens when the
       server application accepts. *)
    Exec.run (setup_script t) ignore
  else if kind = k_get then
    (* TCP ACKs the request, then the application handles it. *)
    Exec.run (get_script t conn) ignore
  else if kind = k_fin then Exec.run (teardown_script t conn) ignore
(* A data ACK or the last ACK needs nothing. *)

(* Input protocol processing of one received batch: the first packet
   pays the full per-packet cost, the rest run warm (aggregation
   benefit, §5.9).  Each packet draws whether its quantum ends in one of
   the network subsystem's additional trigger states; after its quantum
   the packet is dispatched (client-bound kinds never reach the
   server, so they have nothing to dispatch).  A packet dies once its
   items are in the script, and goes back to the pool. *)
let[@hot] on_rx_batch t _now batch n =
  let sc = Exec.script t.exec in
  for i = 0 to n - 1 do
    let pkt = batch.(i) in
    let trig = Dist.bernoulli t.rng t.anatomy.p_tcpip_trigger in
    Exec.quantum sc t.q_rx.((if i = 0 then 0 else 2) + if trig then 1 else 0);
    let a = pkt.Packet.meta in
    if code_of t a <= k_last_ack then Exec.emit sc t.e_dispatch a 0;
    Packet.Pool.release t.packets pkt
  done;
  Exec.run sc ignore

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
    Engine.schedule_after t.engine period sweep
  in
  Engine.schedule_after t.engine period sweep

let start_background_compute t =
  (* An endless CPU hog at background priority: big syscall-free quanta. *)
  let rec churn _now =
    Machine.submit_quantum t.machine ~attr:a_background ~prio:Cpu.prio_background
      ~work_us:400.0 ~trigger:None churn
  in
  churn 0

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
  let packets = Packet.Pool.create () in
  let nics =
    Array.init cfg.nic_count (fun i ->
        Nic.create machine
          ~name:(Printf.sprintf "fxp%d" i)
          ~bandwidth_bps:100e6 ~wire_latency
          ~tx_deliver:(fun now pkt -> client_handle (the_t ()) now pkt)
          ~on_rx_batch:(fun now batch n -> on_rx_batch (the_t ()) now batch n)
          ~on_drop:(Packet.Pool.release packets)
          ~tx_intr_coalesce:8 ~rx_intr_delay:(Time_ns.of_us 25.0) ())
  in
  let a = anatomy in
  let exec = Exec.create machine in
  let step = Exec.step exec in
  let kernel_work attr us = step (step_kernel_work ~attr machine ~work_us:us) in
  let rx work_us attr trigger =
    step
      {
        Kernel.prio = Cpu.prio_softintr;
        work_us;
        trigger;
        attr;
        entry_us = 0.0;
        entry_attr = attr;
      }
  in
  (* In interrupt mode a batch is processed from a software interrupt:
     its dispatch and the cold-cache protocol processing cost extra
     compared with polled processing, which runs in an
     already-locality-shifted trigger state (the paper's §4.2
     argument). *)
  let softintr_surcharge =
    match cfg.net with
    | Interrupts -> 2.5 +. (2.0 *. a.locality.Cache.sensitivity)
    | Soft_polling _ -> 0.0
  in
  let cold = a.rx_process_us +. softintr_surcharge in
  let warm = a.rx_process_us *. a.locality.Cache.warm_fraction in
  let tcpip = Some Trigger.Tcpip_other in
  let max_draws =
    List.fold_left Int.max 0
      [
        a.pre_syscalls + a.pre_user_segments + a.post_user_segments + a.post_syscalls
        + write_syscalls a;
        a.setup_syscalls + a.setup_user_segments;
        a.teardown_syscalls;
      ]
  in
  let syscall = Kernel.step_syscall machine in
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
      packets;
      clients =
        Array.init cfg.connections (fun _ -> { data_got = 0; reqs_left = 0 });
      completed = 0;
      measuring = false;
      measured = 0;
      measure_span = 0L;
      pace_ring = Array.make (2 * 16) 0;
      pace_head = 0;
      pace_len = 0;
      pace_in_train = false;
      pace_last = 0;
      pace_sends = 0;
      pace_intervals = Stats.Online.create ();
      hw_pacer = None;
      started = false;
      k_client = Engine.null_kind;
      exec;
      q_ip_output = step (Kernel.step_ip_output machine);
      q_ip_output_handler = kernel_work a_ip_output_handler 7.0;
      q_ctx = step (Kernel.step_ctx_switch machine);
      q_copy = kernel_work a_socket_copy a.copy_per_packet_us;
      q_conn_setup = kernel_work a_conn_setup a.setup_kernel_extra_us;
      q_pcb = kernel_work a_kernel_work 14.0;
      q_teardown_user = step (Kernel.step_user machine ~work_us:a.teardown_user_us);
      q_trap = step (Kernel.step_trap machine);
      q_rx =
        [|
          rx cold a_rx_cold None;
          rx cold a_rx_cold tcpip;
          rx warm a_rx_warm None;
          rx warm a_rx_warm tcpip;
        |];
      q_syscall = step syscall;
      q_user = step (Kernel.step_user machine ~work_us:0.0);
      syscall_entry_us = syscall.Kernel.entry_us;
      scale = Costs.scale_us cfg.profile 1.0;
      e_tx_small = Exec.emitter exec (fun now a born -> tx_small (the_t ()) now a born);
      e_tx_data = Exec.emitter exec (fun now a born -> tx_data (the_t ()) now a born);
      e_pace = Exec.emitter exec (fun now a _ -> pace_push (the_t ()) a now);
      e_dispatch = Exec.emitter exec (fun now a b -> server_dispatch (the_t ()) now a b);
      draws = Array.make max_draws 0.0;
    }
  in
  t_ref := Some t;
  t.k_client <- Engine.register engine ~name:"web.client" (client_event t);
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
    let touch_ns = Time_ns.(to_int (of_us (0.5 *. anatomy.locality.Cache.sensitivity))) in
    let touch_attr = Some a_pace_touch in
    let kind = ref Softtimer.null_kind in
    let arm () = ignore (Softtimer.schedule_soft_event st ~ticks:0L !kind 0 : Softtimer.handle) in
    kind :=
      Softtimer.register st ~name:"web.pace" (fun now _ ->
          Machine.submit_work_ns machine ?attr:touch_attr ~prio:Cpu.prio_intr
            ~work_ns:touch_ns ignore;
          ignore (pace_send t now : bool);
          arm ());
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
      Engine.post_after_i t.engine (client_stagger * conn) t.k_client
        ((conn * 8) + code_restart))
    t.clients;
  Engine.run_until t.engine warmup;
  t.measuring <- true;
  t.measured <- 0;
  t.measure_span <- measure;
  Engine.run_until t.engine Time_ns.(warmup + measure);
  t.measuring <- false

module For_testing = struct
  (* DEAD001 here and below: the server's test surface. *)
  let[@lint.allow "DEAD001"] get_script = get_script
  let[@lint.allow "DEAD001"] packets t = t.packets
end
