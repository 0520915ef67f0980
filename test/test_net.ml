(* Tests for the network substrate: packets, links, drop-tail queue, WAN
   emulator and the NIC's interrupt/polled receive paths. *)

let us = Time_ns.of_us

let mk_packet ?(size = 1500) meta = Packet.create ~size_bytes:size ~meta ~born:0

(* ------------------------------------------------------------------ *)
(* Packet *)

let test_packet_basics () =
  let p = mk_packet ~size:100 "x" in
  Alcotest.(check int) "bits" 800 (Packet.bits p);
  Alcotest.(check int) "mtu payload" 1448 Packet.mtu_payload;
  Alcotest.(check int) "frame overhead" 52 Packet.frame_overhead;
  Alcotest.check_raises "negative size" (Invalid_argument "Packet.create: negative size")
    (fun () -> ignore (mk_packet ~size:(-1) "x"))

(* ------------------------------------------------------------------ *)
(* Link *)

let test_link_serialization_and_latency () =
  let e = Engine.create () in
  let deliveries = ref [] in
  (* 1500 B at 100 Mbps = 120 us on the wire; +30 us propagation. *)
  let link =
    Link.create e ~bandwidth_bps:100e6 ~latency:(us 30.0)
      ~deliver:(fun now p -> deliveries := (Time_ns.of_ns now, p.Packet.meta) :: !deliveries)
      ()
  in
  Link.send link (mk_packet "a");
  Link.send link (mk_packet "b");
  Alcotest.(check int) "both in flight" 2 (Link.in_flight link);
  Engine.run e;
  let deliveries = List.rev !deliveries in
  Alcotest.(check (list (pair int64 string)))
    "FIFO with back-to-back serialisation"
    [ (us 150.0, "a"); (us 270.0, "b") ]
    deliveries;
  Alcotest.(check int) "sent count" 2 (Link.sent link)

let test_link_on_sent_fires_before_delivery () =
  let e = Engine.create () in
  let log = ref [] in
  let link =
    Link.create e ~bandwidth_bps:100e6 ~latency:(us 30.0)
      ~on_sent:(fun now _ -> log := ("sent", Time_ns.of_ns now) :: !log)
      ~deliver:(fun now _ -> log := ("delivered", Time_ns.of_ns now) :: !log)
      ()
  in
  Link.send link (mk_packet "a");
  Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "sent at serialisation end, delivery after latency"
    [ ("sent", us 120.0); ("delivered", us 150.0) ]
    (List.rev !log)

let test_link_idle_restarts () =
  let e = Engine.create () in
  let count = ref 0 in
  let link =
    Link.create e ~bandwidth_bps:100e6 ~latency:0L ~deliver:(fun _ _ -> incr count) ()
  in
  Link.send link (mk_packet "a");
  Engine.run e;
  Alcotest.(check bool) "idle" false (Link.busy link);
  Link.send link (mk_packet "b");
  Engine.run e;
  Alcotest.(check int) "second delivered after idle" 2 !count

(* Allocation: bursts of 64 packets sent back to back and run to
   delivery.  Each packet's serialise and deliver events are the link's
   own kinds, the packets wait in the link's ring and the clock and the
   delivery callback's time are ints, so nothing remains (0.00 minor
   words measured; 6.00 while the engine boxed its clock at the two
   instants a packet reaches, 25.00 when each event was a fresh closure
   and the waiting packets sat in a [Queue]). *)
let test_link_send_deliver_words () =
  let e = Engine.create () in
  let delivered = ref 0 in
  let link =
    Link.create e ~bandwidth_bps:100e6 ~latency:(us 30.0) ~deliver:(fun _ _ -> incr delivered) ()
  in
  let p = mk_packet "a" in
  let burst () =
    for _ = 1 to 64 do
      Link.send link p
    done;
    Engine.run e
  in
  burst ();
  burst ();
  let n = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    burst ()
  done;
  let per = (Gc.minor_words () -. before) /. float_of_int (64 * n) in
  Alcotest.(check int) "all delivered" (64 * (n + 2)) !delivered;
  Alcotest.(check bool)
    (Printf.sprintf "send -> deliver allocates %.2f minor words per packet (bound 0.5)" per)
    true (per <= 0.5)

(* ------------------------------------------------------------------ *)
(* Droptail *)

let test_droptail_bounds () =
  let q = Droptail.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Droptail.push q 1);
  Alcotest.(check bool) "push 2" true (Droptail.push q 2);
  Alcotest.(check bool) "push 3 drops" false (Droptail.push q 3);
  Alcotest.(check int) "drops" 1 (Droptail.drops q);
  Alcotest.(check int) "accepted" 2 (Droptail.accepted q);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Droptail.pop q);
  Alcotest.(check bool) "room again" true (Droptail.push q 4);
  Alcotest.(check int) "length" 2 (Droptail.length q)

(* ------------------------------------------------------------------ *)
(* Wan *)

let test_wan_delay_and_bandwidth () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let wan =
    Wan.create e ~bottleneck_bps:50e6 ~one_way_delay:(Time_ns.of_ms 50.0)
      ~deliver:(fun now _ -> arrivals := Time_ns.of_ns now :: !arrivals)
      ()
  in
  (* 1500 B at 50 Mbps = 240 us serialisation. *)
  Wan.forward wan (mk_packet "a");
  Wan.forward wan (mk_packet "b");
  Engine.run e;
  let arrivals = List.rev !arrivals in
  Alcotest.(check int64) "first: 240us + 50ms" Time_ns.(us 240.0 + Time_ns.of_ms 50.0)
    (List.nth arrivals 0);
  Alcotest.(check int64) "second: +240us" Time_ns.(us 480.0 + Time_ns.of_ms 50.0)
    (List.nth arrivals 1);
  Alcotest.(check int) "forwarded" 2 (Wan.forwarded wan)

let test_wan_drops_when_full () =
  let e = Engine.create () in
  let count = ref 0 in
  let wan =
    Wan.create e ~bottleneck_bps:1e6 ~one_way_delay:0L ~queue_capacity:3
      ~deliver:(fun _ _ -> incr count)
      ()
  in
  for _ = 1 to 10 do
    Wan.forward wan (mk_packet "x")
  done;
  Engine.run e;
  Alcotest.(check int) "3 delivered" 3 !count;
  Alcotest.(check int) "7 dropped" 7 (Wan.drops wan)

(* ------------------------------------------------------------------ *)
(* Nic *)

let make_nic ?(rx_intr_delay = 0L) ?(tx_intr_coalesce = 0) machine =
  let batches = ref [] in
  let tx_delivered = ref [] in
  let nic =
    Nic.create machine ~name:"test0" ~bandwidth_bps:100e6 ~wire_latency:(us 30.0)
      ~tx_deliver:(fun now p ->
        tx_delivered := (Time_ns.of_ns now, p.Packet.meta) :: !tx_delivered)
      ~on_rx_batch:(fun _now batch -> batches := List.map (fun p -> p.Packet.meta) batch :: !batches)
      ~tx_intr_coalesce ~rx_intr_delay ()
  in
  (nic, batches, tx_delivered)

let test_nic_interrupt_reception () =
  let e = Engine.create () in
  let m = Machine.create e in
  let nic, batches, _ = make_nic m in
  Nic.deliver nic (mk_packet "p1");
  Engine.run e;
  Alcotest.(check (list (list string))) "one batch of one" [ [ "p1" ] ] !batches;
  Alcotest.(check int) "ip-intr trigger" 1 (Machine.trigger_count m Trigger.Ip_intr);
  Alcotest.(check int) "rx packets" 1 (Nic.rx_packets nic)

let test_nic_coalesces_with_mitigation_delay () =
  let e = Engine.create () in
  let m = Machine.create e in
  let nic, batches, _ = make_nic ~rx_intr_delay:(us 25.0) m in
  Nic.deliver nic (mk_packet "p1");
  Engine.schedule_at e (us 10.0) (fun () -> Nic.deliver nic (mk_packet "p2"));
  Engine.run e;
  Alcotest.(check (list (list string))) "one interrupt, batch of two" [ [ "p1"; "p2" ] ] !batches;
  Alcotest.(check int) "one rx batch" 1 (Nic.rx_batches nic)

let test_nic_polled_mode_accumulates () =
  let e = Engine.create () in
  let m = Machine.create e in
  let nic, batches, _ = make_nic m in
  Nic.set_mode nic Nic.Polled;
  (* Keep the CPU busy so the idle fall-back does not kick in. *)
  let rec hog _ = Machine.submit_quantum m ~prio:Cpu.prio_background ~work_us:100.0 ~trigger:None hog in
  hog 0;
  Engine.schedule_at e (us 10.0) (fun () -> Nic.deliver nic (mk_packet "p1"));
  Engine.schedule_at e (us 20.0) (fun () -> Nic.deliver nic (mk_packet "p2"));
  Engine.run_until e (us 200.0);
  Alcotest.(check (list (list string))) "no interrupt processing" [] !batches;
  Alcotest.(check int) "ring holds both" 2 (Nic.rx_ring_length nic);
  let n = Nic.poll nic in
  Alcotest.(check int) "poll drains two" 2 n;
  Alcotest.(check (list (list string))) "batch delivered via poll" [ [ "p1"; "p2" ] ] !batches;
  Alcotest.(check int) "poll on empty ring" 0 (Nic.poll nic)

let test_nic_polled_idle_fallback () =
  let e = Engine.create () in
  let m = Machine.create e in
  let nic, batches, _ = make_nic m in
  Nic.set_mode nic Nic.Polled;
  (* CPU idle: delivery must raise an interrupt anyway (paper 5.9). *)
  Nic.deliver nic (mk_packet "p1");
  Engine.run e;
  Alcotest.(check (list (list string))) "processed via interrupt" [ [ "p1" ] ] !batches

let test_nic_transmit_path () =
  let e = Engine.create () in
  let m = Machine.create e in
  let nic, _, tx_delivered = make_nic ~tx_intr_coalesce:2 m in
  Nic.transmit nic (mk_packet "t1");
  Nic.transmit nic (mk_packet "t2");
  Engine.run e;
  Alcotest.(check int) "both on the wire" 2 (List.length !tx_delivered);
  Alcotest.(check int) "tx packets counted" 2 (Nic.tx_packets nic);
  (* Coalesce 2 -> exactly one tx-complete interrupt. *)
  Alcotest.(check int) "one tx interrupt" 1 (Interrupt.delivered (Nic.tx_line nic))

let test_nic_hybrid_one_interrupt_per_burst () =
  let e = Engine.create () in
  let m = Machine.create e in
  let batches = ref [] in
  let nic_ref = ref None in
  let nic =
    Nic.create m ~name:"h0" ~bandwidth_bps:100e6 ~wire_latency:(us 30.0)
      ~tx_deliver:(fun _ _ -> ())
      ~on_rx_batch:(fun _ batch ->
        batches := List.map (fun p -> p.Packet.meta) batch :: !batches;
        (* Processing takes 20 us, then poll-on-completion. *)
        Machine.submit_quantum m ~prio:Cpu.prio_softintr ~work_us:20.0 ~trigger:None
          (fun _ ->
            match !nic_ref with
            | Some nic -> ignore (Nic.hybrid_done nic : int)
            | None -> ()))
      ()
  in
  nic_ref := Some nic;
  Nic.set_mode nic Nic.Hybrid;
  (* A burst of 4 packets 10 us apart: the first interrupts; the rest
     are picked up by poll-on-completion without further interrupts. *)
  List.iter
    (fun t ->
      Engine.schedule_at e (us t) (fun () ->
          Nic.deliver nic (mk_packet (string_of_int (int_of_float t)))))
    [ 0.0; 10.0; 20.0; 30.0 ];
  Engine.run_until e (Time_ns.of_ms 2.0);
  Alcotest.(check int) "one interrupt for the burst" 1 (Interrupt.delivered (Nic.rx_line nic));
  let total = List.fold_left (fun acc b -> acc + List.length b) 0 !batches in
  Alcotest.(check int) "all four processed" 4 total;
  Alcotest.(check bool) "more than one batch" true (List.length !batches >= 2);
  (* Ring empty: interrupts re-enabled; a later packet interrupts again. *)
  Nic.deliver nic (mk_packet "later");
  Engine.run_until e (Time_ns.of_ms 4.0);
  Alcotest.(check int) "interrupt re-enabled" 2 (Interrupt.delivered (Nic.rx_line nic))

let test_nic_ring_capacity_drops () =
  let e = Engine.create () in
  let m = Machine.create e in
  let nic =
    Nic.create m ~name:"b0" ~bandwidth_bps:100e6 ~wire_latency:(us 30.0)
      ~tx_deliver:(fun _ _ -> ())
      ~on_rx_batch:(fun _ _ -> ())
      ~rx_ring_capacity:2 ()
  in
  Nic.set_mode nic Nic.Polled;
  (* CPU busy: no idle fallback, the ring fills. *)
  let rec hog _ = Machine.submit_quantum m ~prio:Cpu.prio_background ~work_us:100.0 ~trigger:None hog in
  hog 0;
  for i = 1 to 5 do
    Nic.deliver nic (mk_packet (string_of_int i))
  done;
  Alcotest.(check int) "ring holds capacity" 2 (Nic.rx_ring_length nic);
  Alcotest.(check int) "overflow dropped" 3 (Nic.rx_dropped nic)

let test_nic_no_tx_interrupts_when_polled () =
  let e = Engine.create () in
  let m = Machine.create e in
  let nic, _, _ = make_nic ~tx_intr_coalesce:1 m in
  Nic.set_mode nic Nic.Polled;
  Nic.transmit nic (mk_packet "t1");
  Engine.run e;
  Alcotest.(check int) "no tx interrupt in polled mode" 0 (Interrupt.delivered (Nic.tx_line nic))

let () =
  Alcotest.run "net"
    [
      ("packet", [ Alcotest.test_case "basics" `Quick test_packet_basics ]);
      ( "link",
        [
          Alcotest.test_case "serialisation and latency" `Quick test_link_serialization_and_latency;
          Alcotest.test_case "on_sent hook" `Quick test_link_on_sent_fires_before_delivery;
          Alcotest.test_case "idle restart" `Quick test_link_idle_restarts;
          Alcotest.test_case "send -> deliver words" `Quick test_link_send_deliver_words;
        ] );
      ("droptail", [ Alcotest.test_case "bounds" `Quick test_droptail_bounds ]);
      ( "wan",
        [
          Alcotest.test_case "delay and bandwidth" `Quick test_wan_delay_and_bandwidth;
          Alcotest.test_case "drops when full" `Quick test_wan_drops_when_full;
        ] );
      ( "nic",
        [
          Alcotest.test_case "interrupt reception" `Quick test_nic_interrupt_reception;
          Alcotest.test_case "mitigation coalescing" `Quick test_nic_coalesces_with_mitigation_delay;
          Alcotest.test_case "polled accumulation" `Quick test_nic_polled_mode_accumulates;
          Alcotest.test_case "polled idle fallback" `Quick test_nic_polled_idle_fallback;
          Alcotest.test_case "transmit path" `Quick test_nic_transmit_path;
          Alcotest.test_case "no tx interrupts when polled" `Quick test_nic_no_tx_interrupts_when_polled;
          Alcotest.test_case "hybrid: one interrupt per burst" `Quick
            test_nic_hybrid_one_interrupt_per_burst;
          Alcotest.test_case "ring capacity drops" `Quick test_nic_ring_capacity_drops;
        ] );
    ]
