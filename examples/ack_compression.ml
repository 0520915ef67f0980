(* Big ACKs and sender burstiness (paper, Appendix A).

   Build & run:  dune exec examples/ack_compression.exe

   A receiver whose application is slow to read from the socket buffer
   delays its ACKs; when one finally goes out it covers many segments (a
   "big ACK"), and the self-clocked sender answers it with a burst of
   back-to-back packets at access-link speed.  Rate-based clocking
   avoids the burst by pacing transmissions independently of ACK
   arrival. *)

let run ~app_read_delay ~paced =
  let engine = Engine.create () in
  (* Mid-transfer: the pipeline is already open (cwnd has grown), which
     is where big ACKs bite. *)
  let params = { Tcp_types.default with Tcp_types.initial_cwnd = 32 } in
  let segments = 300 in
  let one_way_delay = Time_ns.of_ms 10.0 in
  let bottleneck_bps = 50e6 in
  let client_rx = ref (fun _ _ -> ()) in
  let server_rx = ref (fun _ _ -> ()) in
  let wan_fwd =
    Wan.create engine ~bottleneck_bps ~one_way_delay ~deliver:(fun now p -> !client_rx now p) ()
  in
  let wan_rev =
    Wan.create engine ~bottleneck_bps ~one_way_delay ~deliver:(fun now p -> !server_rx now p) ()
  in
  let transmit _now p = Wan.forward wan_fwd p in
  let receiver =
    Receiver.create engine params ~send_ack:(fun now ~ack_upto ->
        Wan.forward wan_rev (Tcp_types.make_ack ~ack_upto ~born:(Time_ns.to_int now)))
  in
  Receiver.set_app_read_delay receiver app_read_delay;
  let finish = ref Time_ns.zero in
  let max_burst = ref 1 in
  if paced then begin
    let interval = Session.bottleneck_interval ~bottleneck_bps () in
    let sender =
      Paced_sender.create engine params ~total_segments:segments ~interval ~transmit ()
    in
    Paced_sender.start sender
  end
  else begin
    let sender = Sender.create engine params ~total_segments:segments ~transmit () in
    server_rx :=
      (fun _now p ->
        if p.Packet.meta.Tcp_types.is_ack then begin
          Sender.on_ack sender ~ack_upto:p.Packet.meta.Tcp_types.ack_upto;
          max_burst := max !max_burst (Sender.max_burst_observed sender)
        end);
    Sender.start sender
  end;
  client_rx :=
    (fun now p ->
      if not p.Packet.meta.Tcp_types.is_ack then begin
        Receiver.on_data receiver ~seq:p.Packet.meta.Tcp_types.seq;
        if Receiver.delivered receiver >= segments then finish := Time_ns.of_ns now
      end);
  Engine.run_until engine (Time_ns.of_sec 30.0);
  Receiver.stop receiver;
  (Receiver.biggest_ack receiver, !max_burst, Time_ns.to_ms !finish)

let () =
  print_endline "300-segment transfer, 20 ms RTT, 50 Mbps bottleneck:\n";
  List.iter
    (fun (label, delay) ->
      let big_ack, burst, ms = run ~app_read_delay:delay ~paced:false in
      Printf.printf "%-34s biggest ACK covers %3d segs; sender max burst %3d pkts; done %.0f ms\n"
        ("self-clocked, " ^ label) big_ack burst ms)
    [
      ("receiver reads promptly", None);
      ("receiver reads 5 ms late", Some (Time_ns.of_ms 5.0));
      ("receiver reads 40 ms late", Some (Time_ns.of_ms 40.0));
    ];
  let big_ack, burst, ms = run ~app_read_delay:(Some (Time_ns.of_ms 40.0)) ~paced:true in
  Printf.printf "%-34s biggest ACK covers %3d segs; sender max burst %3d pkts; done %.0f ms\n"
    "rate-clocked, reads 40 ms late" big_ack burst ms;
  print_endline
    "\nBig ACKs provoke bursts from a self-clocked sender; the paced sender never bursts.";
  print_endline "(Paper: 40% of >20 KB transfers at the Rice CS web server showed big ACKs.)"
