(* Estimating the bottleneck capacity with packet pairs, then using the
   estimate for rate-based clocking.

   Build & run:  dune exec examples/capacity_probe.exe

   Rate-based clocking needs to know the path capacity (the paper
   assumes it; its Section 6 points at packet-pair estimation).  Here a
   sender emits short back-to-back probe bursts through the emulated
   WAN; the receiver measures arrival spacing, takes the median, and the
   derived pacing interval drives a paced transfer that finishes within
   a few percent of one paced at the true capacity. *)

let probe ~bottleneck_bps ~bursts ~burst_len =
  let engine = Engine.create () in
  let est = Capacity.create ~packet_bits:(1500 * 8) () in
  let wan =
    Wan.create engine ~bottleneck_bps ~one_way_delay:(Time_ns.of_ms 50.0)
      ~deliver:(fun now _ -> Capacity.on_arrival est (Time_ns.of_ns now))
      ()
  in
  (* Access link at 1 Gbps: probe pairs leave truly back-to-back. *)
  let access =
    Link.create engine ~bandwidth_bps:1e9 ~latency:(Time_ns.of_us 10.0)
      ~deliver:(fun _ p -> Wan.forward wan p)
      ()
  in
  for b = 0 to bursts - 1 do
    ignore
      (Engine.schedule_at engine
         (Time_ns.mul (Time_ns.of_ms 5.0) b)
         (fun () ->
           Capacity.reset_burst est;
           for _ = 1 to burst_len do
             Link.send access
               (Packet.create ~size_bytes:1500 ~meta:() ~born:(Engine.now_i engine))
           done)
        : Engine.handle)
  done;
  (* Inter-burst gaps must not pollute the estimate. *)
  let rec reset_between b =
    if b < bursts then
      ignore
        (Engine.schedule_at engine
           Time_ns.(Time_ns.mul (Time_ns.of_ms 5.0) b + Time_ns.of_ms 4.0)
           (fun () ->
             Capacity.reset_burst est;
             reset_between (b + 1))
          : Engine.handle)
  in
  reset_between 0;
  Engine.run engine;
  est

let () =
  List.iter
    (fun mbps ->
      let bottleneck_bps = mbps *. 1e6 in
      let est = probe ~bottleneck_bps ~bursts:12 ~burst_len:4 in
      match Capacity.estimate_bps est with
      | None -> print_endline "no estimate!"
      | Some bps ->
        Printf.printf "true bottleneck %6.1f Mbps -> estimated %6.1f Mbps (%d samples, %+.1f%%)\n"
          mbps (bps /. 1e6) (Capacity.samples est)
          (100.0 *. ((bps /. bottleneck_bps) -. 1.0)))
    [ 10.0; 50.0; 100.0; 155.0 ];

  (* Use the estimate to pace a transfer and compare with the oracle. *)
  print_newline ();
  let bottleneck_bps = 50e6 in
  let est = probe ~bottleneck_bps ~bursts:12 ~burst_len:4 in
  let est_bps = Option.get (Capacity.estimate_bps est) in
  let paced_oracle =
    Session.run_transfer ~bottleneck_bps ~one_way_delay:(Time_ns.of_ms 50.0) ~segments:1000
      `Paced
  in
  (* Pace at the estimated rate by pretending the bottleneck is the
     estimate (the sender only uses it to choose its interval). *)
  let iv_est = Session.bottleneck_interval ~bottleneck_bps:est_bps () in
  let iv_true = Session.bottleneck_interval ~bottleneck_bps () in
  Printf.printf
    "pacing interval from estimate: %.1f us (true: %.1f us)\n"
    (Time_ns.to_us iv_est) (Time_ns.to_us iv_true);
  Printf.printf "oracle-paced 1000-segment transfer: %.1f ms\n"
    (Time_ns.to_ms paced_oracle.Session.response_time)
