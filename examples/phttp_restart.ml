(* Restarting an idle persistent-HTTP connection (paper §6).

   Build & run:  dune exec examples/phttp_restart.exe

   When a P-HTTP connection goes idle, TCP closes its congestion window;
   the next request then suffers a full slow-start, defeating the point
   of keeping the connection open (Visweswaraiah & Heidemann, cited by
   the paper).  With rate-based clocking the sender instead restarts at
   the capacity it measured during the previous busy period -- here
   estimated with packet pairs from the first transfer's arrivals. *)

let one_way_delay = Time_ns.of_ms 50.0
let bottleneck_bps = 50e6

(* First response: a regular slow-started transfer whose arrivals feed
   the capacity estimator (what the connection "learned"). *)
let first_transfer_and_estimate () =
  let engine = Engine.create () in
  let est = Capacity.create ~packet_bits:(1500 * 8) () in
  let finish = ref Time_ns.zero in
  let client_rx = ref (fun _ _ -> ()) in
  let server_rx = ref (fun _ _ -> ()) in
  let wan_fwd =
    Wan.create engine ~bottleneck_bps ~one_way_delay ~deliver:(fun now p -> !client_rx now p) ()
  in
  let wan_rev =
    Wan.create engine ~bottleneck_bps ~one_way_delay ~deliver:(fun now p -> !server_rx now p) ()
  in
  let params = Tcp_types.default in
  let receiver =
    Receiver.create engine params ~send_ack:(fun now ~ack_upto ->
        Wan.forward wan_rev (Tcp_types.make_ack ~ack_upto ~born:(Time_ns.to_int now)))
  in
  let segments = 200 in
  let sender =
    Sender.create engine params ~total_segments:segments
      ~transmit:(fun _ p -> Wan.forward wan_fwd p)
      ()
  in
  server_rx :=
    (fun _ p ->
      if p.Packet.meta.Tcp_types.is_ack then
        Sender.on_ack sender ~ack_upto:p.Packet.meta.Tcp_types.ack_upto);
  client_rx :=
    (fun now p ->
      if not p.Packet.meta.Tcp_types.is_ack then begin
        (* The receiver-side estimator sees every data arrival. *)
        Capacity.on_arrival est (Time_ns.of_ns now);
        Receiver.on_data receiver ~seq:p.Packet.meta.Tcp_types.seq;
        if Receiver.delivered receiver >= segments then finish := Time_ns.of_ns now
      end);
  Sender.start sender;
  Engine.run_until engine (Time_ns.of_sec 30.0);
  Sender.stop sender;
  Receiver.stop receiver;
  (Time_ns.to_ms !finish, Capacity.estimate_bps est)

let () =
  let first_ms, est = first_transfer_and_estimate () in
  Printf.printf "first response (200 segments, slow start):   %7.1f ms\n" first_ms;
  let est_bps = match est with Some b -> b | None -> failwith "no estimate" in
  Printf.printf "capacity learned from its arrivals:          %7.1f Mbps (true %.0f)\n\n"
    (est_bps /. 1e6) (bottleneck_bps /. 1e6);

  (* The connection idles; a new request arrives.  Compare restarting
     with slow-start (cwnd reset to 1, current practice) against
     rate-based clocking at the learned capacity. *)
  let next = 100 in
  let slow_start =
    Session.run_transfer ~bottleneck_bps ~one_way_delay ~segments:next `Regular
  in
  (* Pace at the *estimated* rate: interval derived from est_bps. *)
  let paced =
    Session.run_transfer ~bottleneck_bps:est_bps ~one_way_delay ~segments:next `Paced
  in
  Printf.printf "restart after idle, next response (%d segments):\n" next;
  Printf.printf "  slow-start from cwnd=1 (current practice): %7.1f ms\n"
    (Time_ns.to_ms slow_start.Session.response_time);
  Printf.printf "  rate-clocked at the learned capacity:      %7.1f ms  (%.0f%% lower)\n"
    (Time_ns.to_ms paced.Session.response_time)
    (100.0
    *. (1.0
       -. Time_ns.to_ms paced.Session.response_time
          /. Time_ns.to_ms slow_start.Session.response_time))
