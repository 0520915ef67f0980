type mode =
  [ `Regular
  | `Paced
  | `Paced_jitter of (unit -> Time_ns.span) ]

type result = {
  segments : int;
  response_time : Time_ns.span;
  throughput_bps : float;
  wan_drops : int;
  biggest_ack : int;
  max_burst : int;
  retransmits : int;
}

let bottleneck_interval ~bottleneck_bps ?(params = Tcp_types.default) () =
  let frame_bits = (params.Tcp_types.mss + Packet.frame_overhead) * 8 in
  Time_ns.of_sec (float_of_int frame_bits /. bottleneck_bps)

let run_transfer ?(params = Tcp_types.default) ?(access_bps = 100e6) ?(wan_queue = 2048)
    ~bottleneck_bps ~one_way_delay ~segments mode =
  if segments <= 0 then invalid_arg "Session.run_transfer: segments must be positive";
  let engine = Engine.create () in
  Trace.sim_start ~at:(Engine.now_i engine);
  let finish_time = ref None in
  let biggest_ack = ref 0 in
  let max_burst = ref 0 in
  let retransmits = ref (fun () -> 0) in
  (* Forward path: server NIC -> access link -> WAN (bottleneck + delay)
     -> client.  Reverse path: client -> WAN (delay; bottleneck idle in
     that direction) -> server. *)
  let client_rx : (int -> Tcp_types.segment Packet.t -> unit) ref =
    ref (fun _ _ -> ())
  in
  let server_rx : (int -> Tcp_types.segment Packet.t -> unit) ref =
    ref (fun _ _ -> ())
  in
  let wan_fwd =
    Wan.create engine ~bottleneck_bps ~one_way_delay ~queue_capacity:wan_queue
      ~deliver:(fun now p -> !client_rx now p)
      ()
  in
  let wan_rev =
    Wan.create engine ~bottleneck_bps ~one_way_delay ~queue_capacity:wan_queue
      ~deliver:(fun now p -> !server_rx now p)
      ()
  in
  let access =
    Link.create engine ~bandwidth_bps:access_bps ~latency:(Time_ns.of_us 10.0)
      ~deliver:(fun _now p -> Wan.forward wan_fwd p)
      ()
  in
  let transmit _now p = Link.send access p in
  let receiver =
    Receiver.create engine params ~send_ack:(fun now ~ack_upto ->
        Wan.forward wan_rev (Tcp_types.make_ack ~ack_upto ~born:(Time_ns.to_int now)))
  in
  (* Server side: dispatch on transfer mode once the request arrives. *)
  let started = ref false in
  let start_server () =
    match mode with
    | `Regular ->
      let sender =
        Sender.create engine params ~total_segments:segments ~transmit ()
      in
      retransmits := (fun () -> Sender.retransmits sender);
      server_rx :=
        (fun _now p ->
          if p.Packet.meta.Tcp_types.is_ack then begin
            Sender.on_ack sender ~ack_upto:p.Packet.meta.Tcp_types.ack_upto;
            max_burst := max !max_burst (Sender.max_burst_observed sender)
          end);
      Sender.start sender;
      max_burst := max !max_burst (Sender.max_burst_observed sender)
    | `Paced ->
      let interval = bottleneck_interval ~bottleneck_bps ~params () in
      let sender =
        Paced_sender.create engine params ~total_segments:segments ~interval ~transmit ()
      in
      server_rx := (fun _ _ -> ());
      max_burst := 1;
      Paced_sender.start sender
    | `Paced_jitter jitter ->
      let interval = bottleneck_interval ~bottleneck_bps ~params () in
      let sender =
        Paced_sender.create engine params ~total_segments:segments ~interval ~transmit ~jitter
          ()
      in
      server_rx := (fun _ _ -> ());
      max_burst := 1;
      Paced_sender.start sender
  in
  client_rx :=
    (fun _now p ->
      if not p.Packet.meta.Tcp_types.is_ack then begin
        Receiver.on_data receiver ~seq:p.Packet.meta.Tcp_types.seq;
        biggest_ack := max !biggest_ack (Receiver.biggest_ack receiver);
        if Receiver.delivered receiver >= segments && Option.is_none !finish_time then
          finish_time := Some (Engine.now engine)
      end);
  (* The client's request: one small packet across the reverse path. *)
  server_rx :=
    (fun _now _p ->
      if not !started then begin
        started := true;
        start_server ()
      end);
  Wan.forward wan_rev
    (Packet.create ~size_bytes:200
       ~meta:{ Tcp_types.seq = -1; is_ack = false; ack_upto = 0 }
       ~born:0);
  (* Run until the transfer completes (bounded safety horizon). *)
  let horizon = Time_ns.of_sec 3600.0 in
  let rec pump () =
    match !finish_time with
    | Some _ -> ()
    | None ->
      if Engine.pending engine = 0 || Time_ns.(Engine.now engine > horizon) then ()
      else if Engine.step engine then pump ()
  in
  pump ();
  Receiver.stop receiver;
  let response_time =
    match !finish_time with
    | Some t -> t
    | None -> invalid_arg "Session.run_transfer: transfer did not complete (lossy setup?)"
  in
  let payload_bits = float_of_int (segments * params.Tcp_types.mss * 8) in
  {
    segments;
    response_time;
    throughput_bps = payload_bits /. Time_ns.to_sec response_time;
    wan_drops = Wan.drops wan_fwd;
    biggest_ack = !biggest_ack;
    max_burst = !max_burst;
    retransmits = !retransmits ();
  }
