(* Tests for the TCP substrate: congestion-window accounting, the
   delayed-ACK receiver, the self-clocked sender, the paced sender and
   whole-transfer sessions over the WAN emulator, including delivery
   conservation properties. *)

let ms = Time_ns.of_ms
let us = Time_ns.of_us

(* ------------------------------------------------------------------ *)
(* Cwnd *)

let test_cwnd_slow_start_growth () =
  let c = Cwnd.create Tcp_types.default in
  Alcotest.(check int) "initial" 1 (Cwnd.window c);
  Alcotest.(check bool) "in slow start" true (Cwnd.in_slow_start c);
  Cwnd.on_ack c;
  Cwnd.on_ack c;
  Alcotest.(check int) "1 + 2 acks" 3 (Cwnd.window c);
  Alcotest.(check int) "acks seen" 2 (Cwnd.acks_seen c)

let test_cwnd_congestion_avoidance () =
  let c = Cwnd.create { Tcp_types.default with Tcp_types.ssthresh = 4; initial_cwnd = 4 } in
  Alcotest.(check bool) "out of slow start" false (Cwnd.in_slow_start c);
  for _ = 1 to 4 do
    Cwnd.on_ack c
  done;
  (* cwnd grows by ~1/cwnd per ACK: four ACKs at cwnd ~4 add just under
     one segment. *)
  Alcotest.(check int) "still 4 after four acks" 4 (Cwnd.window c);
  for _ = 1 to 5 do
    Cwnd.on_ack c
  done;
  Alcotest.(check int) "reaches 5 after nine" 5 (Cwnd.window c)

(* ------------------------------------------------------------------ *)
(* Receiver *)

let make_receiver ?(params = Tcp_types.default) e =
  let acks = ref [] in
  let r =
    Receiver.create e params ~send_ack:(fun now ~ack_upto -> acks := (now, ack_upto) :: !acks)
  in
  (r, acks)

let test_receiver_acks_every_second_segment () =
  let e = Engine.create () in
  let r, acks = make_receiver e in
  Receiver.on_data r ~seq:0;
  Alcotest.(check int) "no ack after 1 segment" 0 (List.length !acks);
  Receiver.on_data r ~seq:1;
  Alcotest.(check (list (pair int64 int))) "ack covers 2" [ (Time_ns.zero, 2) ] (List.rev !acks);
  Receiver.stop r

let test_receiver_heartbeat_flushes () =
  let e = Engine.create () in
  let r, acks = make_receiver e in
  Receiver.on_data r ~seq:0;
  Engine.run_until e (ms 450.0);
  Receiver.stop r;
  (* The 200 ms heartbeat flushed the single pending segment. *)
  match List.rev !acks with
  | [ (t, 1) ] -> Alcotest.(check int64) "flushed at 200ms boundary" (ms 200.0) t
  | other -> Alcotest.failf "unexpected acks (%d)" (List.length other)

let test_receiver_out_of_order_buffering () =
  let e = Engine.create () in
  let r, acks = make_receiver e in
  Receiver.on_data r ~seq:1;
  Receiver.on_data r ~seq:2;
  Alcotest.(check int) "nothing deliverable yet" 0 (Receiver.next_expected r);
  Receiver.on_data r ~seq:0;
  Alcotest.(check int) "hole filled, all delivered" 3 (Receiver.next_expected r);
  Alcotest.(check int) "cumulative ack covers 3" 3 (snd (List.hd !acks));
  Alcotest.(check int) "big-ack detector" 3 (Receiver.biggest_ack r);
  Receiver.stop r

let test_receiver_duplicate_ignored () =
  let e = Engine.create () in
  let r, _ = make_receiver e in
  Receiver.on_data r ~seq:0;
  Receiver.on_data r ~seq:0;
  Alcotest.(check int) "duplicate does not advance" 1 (Receiver.next_expected r);
  Receiver.stop r

let test_receiver_slow_reader_big_acks () =
  let e = Engine.create () in
  let r, acks = make_receiver e in
  Receiver.set_app_read_delay r (Some (ms 5.0));
  for seq = 0 to 9 do
    Receiver.on_data r ~seq
  done;
  Alcotest.(check int) "no ack before the app reads" 0 (List.length !acks);
  Engine.run_until e (ms 6.0);
  Receiver.stop r;
  Alcotest.(check int) "one big ack" 1 (List.length !acks);
  Alcotest.(check int) "covers all 10" 10 (snd (List.hd !acks));
  Alcotest.(check int) "biggest_ack" 10 (Receiver.biggest_ack r)

(* ------------------------------------------------------------------ *)
(* Sender *)

let test_sender_initial_window_and_growth () =
  let e = Engine.create () in
  let sent = ref [] in
  let s =
    Sender.create e Tcp_types.default ~total_segments:10
      ~transmit:(fun _ p -> sent := p.Packet.meta.Tcp_types.seq :: !sent)
      ()
  in
  Sender.start s;
  Alcotest.(check (list int)) "initial window of 1" [ 0 ] (List.rev !sent);
  Sender.on_ack s ~ack_upto:1;
  Alcotest.(check (list int)) "cwnd 2 after ack" [ 0; 1; 2 ] (List.rev !sent);
  Alcotest.(check int) "acked" 1 (Sender.acked s)

let test_sender_completion_and_burst_tracking () =
  let e = Engine.create () in
  let done_at = ref None in
  let s =
    Sender.create e
      { Tcp_types.default with Tcp_types.initial_cwnd = 4 }
      ~total_segments:4
      ~transmit:(fun _ _ -> ())
      ~on_complete:(fun t -> done_at := Some t)
      ()
  in
  Sender.start s;
  Alcotest.(check int) "burst of 4" 4 (Sender.max_burst_observed s);
  Sender.on_ack s ~ack_upto:4;
  Alcotest.(check bool) "complete" true (Sender.complete s);
  Alcotest.(check bool) "on_complete fired" true (!done_at <> None);
  (* Stale ACKs after completion are ignored. *)
  Sender.on_ack s ~ack_upto:4;
  Alcotest.(check int) "sent unchanged" 4 (Sender.sent s)

let test_sender_respects_awnd () =
  let e = Engine.create () in
  let sent = ref 0 in
  let s =
    Sender.create e
      { Tcp_types.default with Tcp_types.initial_cwnd = 100; awnd = 8 }
      ~total_segments:50
      ~transmit:(fun _ _ -> incr sent)
      ()
  in
  Sender.start s;
  Alcotest.(check int) "clamped by advertised window" 8 !sent

(* ------------------------------------------------------------------ *)
(* Loss recovery *)

let test_fast_retransmit_on_dupacks () =
  let e = Engine.create () in
  let sent = ref [] in
  let s =
    Sender.create e
      { Tcp_types.default with Tcp_types.initial_cwnd = 8 }
      ~total_segments:20
      ~transmit:(fun _ p -> sent := p.Packet.meta.Tcp_types.seq :: !sent)
      ()
  in
  Sender.start s;
  (* Segment 0 is lost; duplicate ACKs (ack_upto = 0) arrive. *)
  Sender.on_ack s ~ack_upto:0;
  Sender.on_ack s ~ack_upto:0;
  Alcotest.(check int) "no retransmit before 3 dupacks" 0 (Sender.retransmits s);
  Sender.on_ack s ~ack_upto:0;
  Alcotest.(check int) "fast retransmit on the 3rd" 1 (Sender.retransmits s);
  Alcotest.(check bool) "segment 0 retransmitted" true (List.mem 0 (List.tl (List.rev !sent)));
  (* More dupacks in the same window must not retransmit again. *)
  Sender.on_ack s ~ack_upto:0;
  Sender.on_ack s ~ack_upto:0;
  Sender.on_ack s ~ack_upto:0;
  Alcotest.(check int) "once per window" 1 (Sender.retransmits s);
  Sender.stop s

let test_rto_recovers_lost_window () =
  let e = Engine.create () in
  let sent = ref 0 in
  let s =
    Sender.create e Tcp_types.default ~total_segments:5 ~transmit:(fun _ _ -> incr sent) ()
  in
  Sender.start s;
  Alcotest.(check int) "one segment out" 1 !sent;
  (* No ACK ever arrives: the retransmission timer must fire. *)
  Engine.run_until e (Time_ns.of_sec 1.5);
  Alcotest.(check bool) "timeout retransmitted" true (Sender.retransmits s >= 1);
  Sender.stop s;
  let n = Sender.retransmits s in
  Engine.run_until e (Time_ns.of_sec 5.0);
  Alcotest.(check int) "stop cancels the timer" n (Sender.retransmits s)

(* The retransmission timeout is one engine timer per sender, so an ACK
   that advances the window re-arms it in place, with no closure and no
   [Some], and [Cwnd] keeps its window in an unboxed float cell: 0 minor
   words per ACK, against 2 while the window was a float field of a
   mixed record (boxed at every store) and 9 while the timeout was a
   closure event cancelled and re-posted.  Every segment is out before
   the ACKs arrive, so they send nothing. *)
let test_rto_rearm_allocation () =
  let e = Engine.create () in
  let n = 64 in
  let s =
    Sender.create e
      { Tcp_types.default with Tcp_types.initial_cwnd = 2 * n }
      ~total_segments:(n + 1) ~transmit:(fun _ _ -> ()) ()
  in
  Sender.start s;
  let before = Gc.minor_words () in
  for i = 1 to n do
    Sender.on_ack s ~ack_upto:i
  done;
  let per = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every ACK advanced" n (Sender.acked s);
  Alcotest.(check int) "one timeout pending" 1 (Engine.pending e);
  Alcotest.(check (float 0.0)) "minor words per advancing ACK" 0.0 per

let test_cwnd_loss_response () =
  let c = Cwnd.create { Tcp_types.default with Tcp_types.initial_cwnd = 16 } in
  Cwnd.on_timeout c ~flight:16;
  Alcotest.(check int) "timeout collapses to 1" 1 (Cwnd.window c);
  Alcotest.(check int) "ssthresh halved" 8 (Cwnd.ssthresh c);
  let c2 = Cwnd.create { Tcp_types.default with Tcp_types.initial_cwnd = 16 } in
  Cwnd.on_fast_retransmit c2 ~flight:16;
  Alcotest.(check int) "fast rtx halves" 8 (Cwnd.window c2)

let test_receiver_dup_acks_on_gap () =
  let e = Engine.create () in
  let acks = ref [] in
  let r =
    Receiver.create e Tcp_types.default ~send_ack:(fun _ ~ack_upto -> acks := ack_upto :: !acks)
  in
  Receiver.on_data r ~seq:0;
  Receiver.on_data r ~seq:1;  (* cumulative ack 2 *)
  Receiver.on_data r ~seq:3;  (* hole at 2 -> dup ack 2 *)
  Receiver.on_data r ~seq:4;  (* still hole -> dup ack 2 *)
  Alcotest.(check (list int)) "dup acks repeat the cumulative point" [ 2; 2; 2 ]
    (List.rev !acks);
  Receiver.stop r

let test_lossy_transfer_completes () =
  let r =
    Session.run_transfer ~bottleneck_bps:50e6 ~one_way_delay:(ms 50.0) ~wan_queue:16
      ~segments:500 `Regular
  in
  Alcotest.(check int) "all delivered despite drops" 500 r.Session.segments;
  Alcotest.(check bool) "losses occurred" true (r.Session.wan_drops > 0);
  Alcotest.(check bool) "losses repaired" true (r.Session.retransmits >= r.Session.wan_drops)

(* ------------------------------------------------------------------ *)
(* Paced sender *)

let test_paced_sender_spacing () =
  let e = Engine.create () in
  let times = ref [] in
  let s =
    Paced_sender.create e Tcp_types.default ~total_segments:5 ~interval:(us 100.0)
      ~transmit:(fun now _ -> times := now :: !times)
      ()
  in
  Paced_sender.start s;
  Engine.run e;
  let times = List.rev !times in
  Alcotest.(check int) "all sent" 5 (Paced_sender.sent s);
  List.iteri
    (fun i t -> Alcotest.(check int64) (Printf.sprintf "packet %d on schedule" i)
        (Time_ns.mul (us 100.0) i) t)
    times

let test_paced_sender_on_last_sent () =
  let e = Engine.create () in
  let last = ref None in
  let s =
    Paced_sender.create e Tcp_types.default ~total_segments:3 ~interval:(us 50.0)
      ~transmit:(fun _ _ -> ())
      ~on_last_sent:(fun t -> last := Some t)
      ()
  in
  Paced_sender.start s;
  Engine.run e;
  Alcotest.(check (option int64)) "last at 2 intervals" (Some (us 100.0)) !last

let test_paced_sender_with_jitter_monotone () =
  let e = Engine.create () in
  let rng = Prng.create ~seed:5 in
  let times = ref [] in
  let s =
    Paced_sender.create e Tcp_types.default ~total_segments:50 ~interval:(us 100.0)
      ~jitter:(fun () -> Time_ns.of_us (Prng.float_range rng 0.0 30.0))
      ~transmit:(fun now _ -> times := now :: !times)
      ()
  in
  Paced_sender.start s;
  Engine.run e;
  let times = Array.of_list (List.rev !times) in
  Alcotest.(check int) "all sent" 50 (Array.length times);
  (* The ideal grid advances by the interval regardless of jitter, so the
     average interval stays at ~100 us. *)
  let total = Time_ns.to_us Time_ns.(times.(49) - times.(0)) in
  Alcotest.(check bool) "average interval near 100us" true
    (total /. 49.0 > 95.0 && total /. 49.0 < 110.0)

(* ------------------------------------------------------------------ *)
(* Capacity estimation (packet pair) *)

let test_capacity_exact_on_clean_gaps () =
  let est = Capacity.create ~packet_bits:12_000 () in
  (* Back-to-back 1500 B packets through a 50 Mbps bottleneck arrive
     240 us apart. *)
  let t = ref Time_ns.zero in
  for _ = 1 to 10 do
    Capacity.on_arrival est !t;
    t := Time_ns.(!t + us 240.0)
  done;
  (match Capacity.estimate_bps est with
  | None -> Alcotest.fail "no estimate"
  | Some bps -> Alcotest.(check (float 1e4)) "50 Mbps" 50e6 bps);
  Alcotest.(check int) "9 gaps" 9 (Capacity.samples est)

let test_capacity_median_rejects_outliers () =
  let est = Capacity.create ~packet_bits:12_000 () in
  let t = ref Time_ns.zero in
  let arrive gap_us =
    t := Time_ns.(!t + us gap_us);
    Capacity.on_arrival est !t
  in
  Capacity.on_arrival est !t;
  (* Mostly clean 240 us gaps with a few stretched (cross traffic) and a
     compressed one (queueing artefact). *)
  List.iter arrive [ 240.; 240.; 950.; 240.; 240.; 60.; 240.; 1500.; 240. ];
  match Capacity.estimate_bps est with
  | None -> Alcotest.fail "no estimate"
  | Some bps -> Alcotest.(check (float 1e5)) "median survives outliers" 50e6 bps

let test_capacity_reset_burst () =
  let est = Capacity.create ~packet_bits:12_000 () in
  Capacity.on_arrival est Time_ns.zero;
  Capacity.reset_burst est;
  (* This arrival starts a new burst: the 5 ms inter-train gap must not
     become a (tiny) capacity sample. *)
  Capacity.on_arrival est (ms 5.0);
  Alcotest.(check int) "no sample across the reset" 0 (Capacity.samples est);
  Capacity.on_arrival est Time_ns.(ms 5.0 + us 240.0);
  Alcotest.(check int) "next gap counts" 1 (Capacity.samples est)

let test_capacity_pacing_interval () =
  let est = Capacity.create ~packet_bits:12_000 () in
  Alcotest.(check (option int64)) "no estimate yet" None
    (Capacity.pacing_interval est ~packet_bits:12_000);
  Capacity.on_arrival est Time_ns.zero;
  Capacity.on_arrival est (us 120.0);
  (match Capacity.pacing_interval est ~packet_bits:12_000 with
  | None -> Alcotest.fail "expected interval"
  | Some iv -> Alcotest.(check int64) "120 us at 100 Mbps" (us 120.0) iv);
  Alcotest.check_raises "bad packet size"
    (Invalid_argument "Capacity.create: packet_bits must be positive") (fun () ->
      ignore (Capacity.create ~packet_bits:0 ()))

(* ------------------------------------------------------------------ *)
(* Session: whole transfers over the WAN *)

let test_session_paced_response_time () =
  let r =
    Session.run_transfer ~bottleneck_bps:50e6 ~one_way_delay:(ms 50.0) ~segments:5 `Paced
  in
  (* 100 ms of propagation (request + first data) + 5 x 240 us. *)
  let rt = Time_ns.to_ms r.Session.response_time in
  Alcotest.(check bool) (Printf.sprintf "~101.3ms (got %.1f)" rt) true (rt > 100.5 && rt < 102.5);
  Alcotest.(check int) "no drops" 0 r.Session.wan_drops;
  Alcotest.(check int) "paced sender never bursts" 1 r.Session.max_burst

let test_session_regular_slower_on_high_bdp () =
  let regular =
    Session.run_transfer ~bottleneck_bps:50e6 ~one_way_delay:(ms 50.0) ~segments:100 `Regular
  in
  let paced =
    Session.run_transfer ~bottleneck_bps:50e6 ~one_way_delay:(ms 50.0) ~segments:100 `Paced
  in
  Alcotest.(check bool) "slow start is several times slower" true
    (Time_ns.to_ms regular.Session.response_time
    > 4.0 *. Time_ns.to_ms paced.Session.response_time);
  Alcotest.(check bool) "regular uses multi-packet bursts" true (regular.Session.max_burst >= 2)

let test_session_throughput_consistency () =
  let r =
    Session.run_transfer ~bottleneck_bps:100e6 ~one_way_delay:(ms 50.0) ~segments:1000 `Paced
  in
  let expected = float_of_int (1000 * 1448 * 8) /. Time_ns.to_sec r.Session.response_time in
  Alcotest.(check (float 1.0)) "throughput = payload bits / response time" expected
    r.Session.throughput_bps

let test_session_jitter_mode_completes () =
  let rng = Prng.create ~seed:9 in
  let r =
    Session.run_transfer ~bottleneck_bps:50e6 ~one_way_delay:(ms 50.0) ~segments:50
      (`Paced_jitter (fun () -> Time_ns.of_us (Prng.float_range rng 0.0 60.0)))
  in
  Alcotest.(check int) "all delivered" 50 r.Session.segments;
  Alcotest.(check bool) "slower than exact pacing but sane" true
    (Time_ns.to_ms r.Session.response_time < 200.0)

(* Property: for random transfer sizes and bandwidths, both modes
   deliver every segment exactly once (the receiver's next_expected
   reaches the total), with no WAN drops in the default configuration. *)
let test_session_conservation =
  QCheck.Test.make ~name:"transfers complete without loss" ~count:25
    QCheck.(pair (int_range 1 400) (int_range 10 100))
    (fun (segments, mbps) ->
      let run mode =
        Session.run_transfer ~bottleneck_bps:(float_of_int mbps *. 1e6)
          ~one_way_delay:(ms 20.0) ~segments mode
      in
      let r = run `Regular and p = run `Paced in
      r.Session.segments = segments && p.Session.segments = segments
      && r.Session.wan_drops = 0 && p.Session.wan_drops = 0
      && Time_ns.(r.Session.response_time > 0L)
      && Time_ns.(p.Session.response_time <= r.Session.response_time))

let test_bottleneck_interval () =
  let iv = Session.bottleneck_interval ~bottleneck_bps:100e6 () in
  Alcotest.(check int64) "1500B at 100Mbps = 120us" (us 120.0) iv

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tcp"
    [
      ( "cwnd",
        [
          Alcotest.test_case "slow-start growth" `Quick test_cwnd_slow_start_growth;
          Alcotest.test_case "congestion avoidance" `Quick test_cwnd_congestion_avoidance;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "delayed ack every 2nd" `Quick test_receiver_acks_every_second_segment;
          Alcotest.test_case "heartbeat flushes" `Quick test_receiver_heartbeat_flushes;
          Alcotest.test_case "out-of-order buffering" `Quick test_receiver_out_of_order_buffering;
          Alcotest.test_case "duplicates ignored" `Quick test_receiver_duplicate_ignored;
          Alcotest.test_case "slow reader -> big ACK" `Quick test_receiver_slow_reader_big_acks;
        ] );
      ( "sender",
        [
          Alcotest.test_case "initial window and growth" `Quick test_sender_initial_window_and_growth;
          Alcotest.test_case "completion and bursts" `Quick test_sender_completion_and_burst_tracking;
          Alcotest.test_case "advertised window" `Quick test_sender_respects_awnd;
        ] );
      ( "loss-recovery",
        [
          Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit_on_dupacks;
          Alcotest.test_case "rto" `Quick test_rto_recovers_lost_window;
          Alcotest.test_case "rto re-arm allocation" `Quick test_rto_rearm_allocation;
          Alcotest.test_case "cwnd loss response" `Quick test_cwnd_loss_response;
          Alcotest.test_case "receiver dup acks" `Quick test_receiver_dup_acks_on_gap;
          Alcotest.test_case "lossy transfer completes" `Slow test_lossy_transfer_completes;
        ] );
      ( "paced_sender",
        [
          Alcotest.test_case "exact spacing" `Quick test_paced_sender_spacing;
          Alcotest.test_case "on_last_sent" `Quick test_paced_sender_on_last_sent;
          Alcotest.test_case "jitter keeps average rate" `Quick test_paced_sender_with_jitter_monotone;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "exact on clean gaps" `Quick test_capacity_exact_on_clean_gaps;
          Alcotest.test_case "median rejects outliers" `Quick test_capacity_median_rejects_outliers;
          Alcotest.test_case "reset between bursts" `Quick test_capacity_reset_burst;
          Alcotest.test_case "pacing interval" `Quick test_capacity_pacing_interval;
        ] );
      ( "session",
        [
          Alcotest.test_case "paced response time" `Quick test_session_paced_response_time;
          Alcotest.test_case "slow start loses on high BDP" `Quick test_session_regular_slower_on_high_bdp;
          Alcotest.test_case "throughput consistency" `Quick test_session_throughput_consistency;
          Alcotest.test_case "jitter mode completes" `Quick test_session_jitter_mode_completes;
          Alcotest.test_case "bottleneck interval" `Quick test_bottleneck_interval;
          qc test_session_conservation;
        ] );
    ]
