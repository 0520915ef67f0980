(* A web transfer over a long fat pipe, with and without rate-based
   clocking -- the paper's motivating scenario (Section 5.8).

   Build & run:  dune exec examples/paced_transfer.exe [segments]

   A client 50 ms away requests a file; the server either lets stock TCP
   slow-start ramp up, or -- knowing the bottleneck bandwidth -- paces
   packets at exactly that rate using rate-based clocking.  For typical
   web-object sizes the paced transfer finishes several times sooner. *)

let () =
  let segments = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 100 in
  let one_way_delay = Time_ns.of_ms 50.0 in
  Printf.printf "Transfer of %d x 1448-byte segments (%.1f KB), RTT 100 ms\n\n" segments
    (float_of_int (segments * 1448) /. 1024.0);
  List.iter
    (fun mbps ->
      let bottleneck_bps = mbps *. 1e6 in
      let regular =
        Session.run_transfer ~bottleneck_bps ~one_way_delay ~segments `Regular
      in
      let paced = Session.run_transfer ~bottleneck_bps ~one_way_delay ~segments `Paced in
      Printf.printf "bottleneck %3.0f Mbps:\n" mbps;
      Printf.printf "  regular TCP (slow-start): %8.1f ms  (%5.2f Mbps, max burst %d pkts)\n"
        (Time_ns.to_ms regular.Session.response_time)
        (regular.Session.throughput_bps /. 1e6)
        regular.Session.max_burst;
      Printf.printf "  rate-based clocking:      %8.1f ms  (%5.2f Mbps)\n"
        (Time_ns.to_ms paced.Session.response_time)
        (paced.Session.throughput_bps /. 1e6);
      Printf.printf "  response time reduction:  %8.0f%%\n\n"
        (100.0
        *. (1.0
           -. Time_ns.to_ms paced.Session.response_time
              /. Time_ns.to_ms regular.Session.response_time)))
    [ 50.0; 100.0 ];

  (* The same paced transfer driven through a real Rate_clock on a
     simulated machine, so pacing events ride actual trigger states. *)
  let engine = Engine.create () in
  let machine = Machine.create engine in
  let facility = Softtimer.attach machine in
  let rng = Prng.create ~seed:11 in
  let rec chatter _now =
    let think = Dist.draw (Dist.Exponential 25.0) rng in
    Kernel.user machine ~work_us:think (fun _ -> Kernel.syscall machine ~work_us:3.0 chatter)
  in
  chatter 0;
  let sent_at = Stats.Sample.create () in
  let last = ref None in
  let sender, clock =
    Paced_sender.create_with_rate_clock facility Tcp_types.default ~total_segments:500
      ~target_interval:(Time_ns.of_us 120.0) ~min_interval:(Time_ns.of_us 12.0)
      ~transmit:(fun now _pkt ->
        (match !last with
        | Some prev -> Stats.Sample.add sent_at (Time_ns.to_us Time_ns.(now - prev))
        | None -> ());
        last := Some now)
      ()
  in
  Paced_sender.start sender;
  Engine.run_until engine (Time_ns.of_sec 1.0);
  Printf.printf
    "Rate_clock on a live machine: %d segments paced at target 120 us -> measured mean %.1f us \
     (stddev %.1f)\n"
    (Paced_sender.sent sender) (Stats.Sample.mean sent_at) (Stats.Sample.stddev sent_at);
  ignore clock
