(* Tests for the million-flow pacing stack: the packet freelist pool,
   the session arena, the flow-id-indexed Rate_clock.Pool, the
   Paced_sender.Fleet wiring, and the memory-regression guarantees
   (cohort-shared histograms, bounded per-flow state); and for the
   hardware-timer pacer's tick. *)

let us = Time_ns.of_us

(* ------------------------------------------------------------------ *)
(* Packet.Pool *)

let test_packet_pool_reuse () =
  let p = Packet.Pool.create () in
  let c1 = Packet.Pool.acquire p ~size_bytes:1514 ~meta:"a" ~born:0 in
  Alcotest.(check int) "live" 1 (Packet.Pool.live p);
  Alcotest.(check int) "created" 1 (Packet.Pool.created p);
  Packet.Pool.release p c1;
  Alcotest.(check int) "free after release" 1 (Packet.Pool.free p);
  let c2 = Packet.Pool.acquire p ~size_bytes:40 ~meta:"b" ~born:(Int64.to_int (us 5.0)) in
  Alcotest.(check bool) "recycled the same cell" true (c1 == c2);
  Alcotest.(check int) "no new boxing" 1 (Packet.Pool.created p);
  Alcotest.(check int) "reuses" 1 (Packet.Pool.reuses p);
  Alcotest.(check string) "meta overwritten" "b" c2.Packet.Pool.meta;
  Alcotest.(check int) "size overwritten" 40 c2.Packet.Pool.size_bytes

let test_packet_pool_guards () =
  let p = Packet.Pool.create () in
  let c = Packet.Pool.acquire p ~size_bytes:100 ~meta:0 ~born:0 in
  Packet.Pool.release p c;
  Alcotest.check_raises "double release"
    (Invalid_argument "Packet.Pool.release: cell is not live") (fun () ->
      Packet.Pool.release p c);
  Alcotest.check_raises "negative size"
    (Invalid_argument "Packet.Pool.acquire: negative size") (fun () ->
      ignore (Packet.Pool.acquire p ~size_bytes:(-1) ~meta:0 ~born:0))

let test_packet_pool_to_packet () =
  let p = Packet.Pool.create () in
  let c = Packet.Pool.acquire p ~size_bytes:1514 ~meta:42 ~born:(Int64.to_int (us 3.0)) in
  let pkt = Packet.Pool.to_packet c in
  Alcotest.(check int) "size" 1514 pkt.Packet.size_bytes;
  Alcotest.(check int) "meta" 42 pkt.Packet.meta;
  Alcotest.(check int) "bits match" (Packet.bits pkt) (Packet.Pool.bits c)

(* ------------------------------------------------------------------ *)
(* Session_arena *)

let test_arena_lifecycle () =
  let a = Session_arena.create ~initial:2 () in
  let s0 = Session_arena.acquire a ~total_segments:3 in
  let s1 = Session_arena.acquire a ~total_segments:max_int in
  let s2 = Session_arena.acquire a ~total_segments:1 in
  Alcotest.(check (list int)) "dense ids" [ 0; 1; 2 ] [ s0; s1; s2 ];
  Alcotest.(check int) "live" 3 (Session_arena.live a);
  (* s0: send to completion, then refuse. *)
  Alcotest.(check bool) "send 1" true (Session_arena.on_send a s0);
  Alcotest.(check bool) "send 2" true (Session_arena.on_send a s0);
  Alcotest.(check int) "remaining" 1 (Session_arena.remaining a s0);
  Alcotest.(check bool) "send 3" true (Session_arena.on_send a s0);
  Alcotest.(check bool) "complete" true (Session_arena.complete a s0);
  Alcotest.(check bool) "refuses past total" false (Session_arena.on_send a s0);
  Alcotest.(check int) "sent stays 3" 3 (Session_arena.sent a s0);
  Alcotest.(check int) "completed" 1 (Session_arena.completed a);
  (* Unbounded session never completes. *)
  for _ = 1 to 100 do
    Alcotest.(check bool) "unbounded sends" true (Session_arena.on_send a s1)
  done;
  Alcotest.(check bool) "unbounded not complete" false (Session_arena.complete a s1);
  (* Release parks the slot; the next acquire reuses it. *)
  Session_arena.release a s2;
  Alcotest.(check bool) "released not live" false (Session_arena.live_session a s2);
  Alcotest.(check bool) "released refuses sends" false (Session_arena.on_send a s2);
  let s3 = Session_arena.acquire a ~total_segments:5 in
  Alcotest.(check int) "slot recycled" s2 s3;
  Alcotest.(check int) "high-water slots unchanged" 3 (Session_arena.slots a);
  Alcotest.check_raises "double release"
    (Invalid_argument "Session_arena.release: session is not live") (fun () ->
      Session_arena.release a s2;
      Session_arena.release a s2)

let test_arena_note_sends () =
  let a = Session_arena.create () in
  let s = Session_arena.acquire a ~total_segments:10 in
  Session_arena.note_sends a s 4;
  Alcotest.(check int) "batched sent" 4 (Session_arena.sent a s);
  Alcotest.(check int) "no completion yet" 0 (Session_arena.completed a);
  (* Clamped at the total, completion counted once. *)
  Session_arena.note_sends a s 100;
  Alcotest.(check int) "clamped" 10 (Session_arena.sent a s);
  Alcotest.(check int) "completed once" 1 (Session_arena.completed a);
  Session_arena.note_sends a s 1;
  Alcotest.(check int) "still once" 1 (Session_arena.completed a);
  Alcotest.(check int) "arena sends total" 10 (Session_arena.sends a)

(* ------------------------------------------------------------------ *)
(* Rate_clock.Pool *)

module Pool_pw = Rate_clock.Pool (Pacing_wheel)
module Pool_eq = Rate_clock.Pool (Eventq_store)

(* The pool takes int ns. *)
let ns_us x = Time_ns.to_int (us x)

(* [ticks] checks, [tick_us] apart, from tick [from] (default 1): a
   later drive of the same pool starts where the last one stopped, as
   the store contract's non-decreasing [now] requires. *)
let drive_pool ?(from = 1) check ~tick_us ~ticks =
  for s = from to from + ticks - 1 do
    ignore (check ~now:(ns_us tick_us * s) ~limit:max_int : Fire_outcome.t)
  done

let test_pool_paces_at_target () =
  (* 10 flows at 100us over 100ms of 10us checks: ~1000 sends each,
     independent of the store driving them. *)
  let sends = Array.make 10 0 in
  let p =
    Pool_pw.create
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(ns_us 10.0)
      ~send:(fun fid ->
        sends.(fid) <- sends.(fid) + 1;
        true)
      ()
  in
  for _ = 0 to 9 do
    ignore (Pool_pw.add p ~target_interval:(ns_us 100.0) ~min_interval:(ns_us 10.0) : int)
  done;
  for fid = 0 to 9 do
    Pool_pw.kick p fid ~now:0
  done;
  Alcotest.(check int) "all active" 10 (Pool_pw.active p);
  drive_pool (Pool_pw.check p) ~tick_us:10.0 ~ticks:10_000;
  Array.iteri
    (fun fid n ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d ~1000 sends (got %d)" fid n)
        true
        (abs (n - 1000) <= 2);
      Alcotest.(check int) "flow_sends agrees" n (Pool_pw.flow_sends p fid))
    sends;
  Alcotest.(check int) "pool total" (Array.fold_left ( + ) 0 sends) (Pool_pw.sends p)

let test_pool_rate_survives_coarse_store () =
  (* The §4.1 rate-based clocking claim, store edition: a wheel with
     100us buckets fires a 103us-target flow up to a bucket late, but
     the long-run rate still converges on the target, because each next
     deadline comes from the train's ideal schedule rather than the
     late fire time. *)
  let sends = ref 0 in
  let p =
    Pool_pw.create
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(ns_us 100.0) (* buckets 10x coarser than the check cadence *)
      ~send:(fun _ ->
        incr sends;
        true)
      ()
  in
  ignore (Pool_pw.add p ~target_interval:(ns_us 103.0) ~min_interval:(ns_us 10.0) : int);
  Pool_pw.kick p 0 ~now:0;
  drive_pool (Pool_pw.check p) ~tick_us:10.0 ~ticks:10_000;
  (* 100ms at one send per 103us target. *)
  let expected = 100_000.0 /. 103.0 in
  Alcotest.(check bool)
    (Printf.sprintf "~%.0f sends despite 100us buckets (got %d)" expected !sends)
    true
    (Float.abs (float_of_int !sends -. expected) <= 30.0);
  Alcotest.(check bool) "catch-ups happened" true (Pool_pw.catch_ups p > 0)

let test_pool_stop_and_train_end () =
  (* Driven over the exact event-queue store for cross-store coverage
     of the pool itself. *)
  let live = ref true in
  let p =
    Pool_eq.create
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(ns_us 10.0)
      ~send:(fun _ -> !live)
      ()
  in
  ignore (Pool_eq.add p ~target_interval:(ns_us 50.0) ~min_interval:(ns_us 10.0) : int);
  Pool_eq.kick p 0 ~now:0;
  drive_pool (Pool_eq.check p) ~tick_us:10.0 ~ticks:100;
  let before = Pool_eq.flow_sends p 0 in
  Alcotest.(check bool) "sending" true (before > 0);
  (* stop cancels the pending fire outright. *)
  Pool_eq.stop p 0;
  Alcotest.(check bool) "inactive" false (Pool_eq.flow_active p 0);
  Alcotest.(check int) "store drained" 0 (Pool_eq.store_pending p);
  drive_pool ~from:101 (Pool_eq.check p) ~tick_us:10.0 ~ticks:100;
  Alcotest.(check int) "no sends while stopped" before (Pool_eq.flow_sends p 0);
  (* kick restarts a fresh train; a refusing send ends it by itself. *)
  Pool_eq.kick p 0 ~now:(ns_us 2_000.0);
  live := false;
  drive_pool ~from:201 (Pool_eq.check p) ~tick_us:10.0 ~ticks:300;
  Alcotest.(check bool) "train ended itself" false (Pool_eq.flow_active p 0);
  Alcotest.(check int) "nothing pending" 0 (Pool_eq.store_pending p)

(* Driving a pool again from tick 1, as the stop-and-restart case did
   before the store contract was checked, is time going backwards: the
   store rejects the second drive's first check. *)
let test_pool_time_backwards () =
  let p =
    Pool_eq.create
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(ns_us 10.0)
      ~send:(fun _ -> true)
      ()
  in
  ignore (Pool_eq.add p ~target_interval:(ns_us 50.0) ~min_interval:(ns_us 10.0) : int);
  Pool_eq.kick p 0 ~now:0;
  drive_pool (Pool_eq.check p) ~tick_us:10.0 ~ticks:100;
  let sends = Pool_eq.flow_sends p 0 in
  Alcotest.check_raises "check from an earlier now"
    (Timer_store.Time_went_backwards { previous = 1_000_000; now = 10_000 })
    (fun () -> drive_pool (Pool_eq.check p) ~tick_us:10.0 ~ticks:1);
  Alcotest.(check int) "nothing sent by the rejected check" sends (Pool_eq.flow_sends p 0)

let test_pool_user_word () =
  let p =
    Pool_pw.create
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(ns_us 10.0)
      ~send:(fun _ -> true)
      ()
  in
  let fid = Pool_pw.add p ~target_interval:(ns_us 50.0) ~min_interval:(ns_us 10.0) in
  Alcotest.(check int) "scratch word starts 0" 0 (Pool_pw.user p fid);
  Pool_pw.set_user p fid 1234;
  Pool_pw.kick p fid ~now:0;
  drive_pool (Pool_pw.check p) ~tick_us:10.0 ~ticks:50;
  Alcotest.(check int) "scratch survives pacing" 1234 (Pool_pw.user p fid)

let test_pool_add_validation () =
  let p =
    Pool_pw.create
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(ns_us 10.0)
      ~send:(fun _ -> true)
      ()
  in
  Alcotest.check_raises "min > target"
    (Invalid_argument "Rate_clock.Pool.add: need 0 < min_interval <= target_interval")
    (fun () ->
      ignore (Pool_pw.add p ~target_interval:(ns_us 10.0) ~min_interval:(ns_us 20.0) : int));
  Alcotest.check_raises "zero min"
    (Invalid_argument "Rate_clock.Pool.add: need 0 < min_interval <= target_interval")
    (fun () ->
      ignore (Pool_pw.add p ~target_interval:(ns_us 10.0) ~min_interval:0 : int))

(* ------------------------------------------------------------------ *)
(* Paced_sender.Fleet *)

module Fleet_pw = Paced_sender.Fleet (Pacing_wheel)

(* The fleet's edge takes a boxed time; [drive_pool] counts in int ns. *)
let fleet_check fleet ~now ~limit = Fleet_pw.check fleet ~now:(Time_ns.of_ns now) ~limit

let test_fleet_transfers_complete () =
  let transmitted = Hashtbl.create 64 in
  let fleet =
    Fleet_pw.create
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(us 10.0)
      ~transmit:(fun fid c ->
        (* meta carries the segment seq; record per-flow order. *)
        let seqs = try Hashtbl.find transmitted fid with Not_found -> [] in
        Hashtbl.replace transmitted fid (c.Packet.Pool.meta :: seqs))
      ()
  in
  let n = 50 and segs = 5 in
  for i = 0 to n - 1 do
    let fid =
      Fleet_pw.add fleet ~total_segments:segs
        ~target_interval:(us (50.0 +. float_of_int (i mod 7)))
        ~min_interval:(us 10.0)
    in
    Fleet_pw.start fleet fid ~now:(Time_ns.mul (us 10.0) (i mod 11))
  done;
  drive_pool (fleet_check fleet) ~tick_us:10.0 ~ticks:200;
  Alcotest.(check int) "all transfers complete" n (Fleet_pw.completed fleet);
  Alcotest.(check int) "no active flows" 0 (Fleet_pw.active fleet);
  Alcotest.(check int) "store drained" 0 (Fleet_pw.store_pending fleet);
  Alcotest.(check int) "total sends" (n * segs) (Fleet_pw.sends fleet);
  for fid = 0 to n - 1 do
    Alcotest.(check bool) "complete" true (Fleet_pw.complete fleet fid);
    Alcotest.(check int) "sent all" segs (Fleet_pw.sent fleet fid);
    Alcotest.(check (list int))
      (Printf.sprintf "flow %d segment order" fid)
      [ 0; 1; 2; 3; 4 ]
      (List.rev (Hashtbl.find transmitted fid))
  done

let test_fleet_packet_pool_warm () =
  (* The allocation-free steady-state witness: once every flow has been
     through one transmission, the packet pool stops boxing cells. *)
  let fleet =
    Fleet_pw.create
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(us 10.0) ~transmit:(fun _ _ -> ()) ()
  in
  for i = 0 to 99 do
    let fid =
      Fleet_pw.add fleet ~total_segments:max_int ~target_interval:(us 100.0)
        ~min_interval:(us 10.0)
    in
    Fleet_pw.start fleet fid ~now:(Time_ns.mul (us 10.0) (i mod 13))
  done;
  drive_pool (fleet_check fleet) ~tick_us:10.0 ~ticks:500;
  let created = Fleet_pw.packet_cells_created fleet in
  (* Transmissions are dispatched one at a time, so a single cell
     serves the whole fleet. *)
  Alcotest.(check int) "one cell serves the fleet" 1 created;
  let sends0 = Fleet_pw.sends fleet in
  for s = 501 to 1000 do
    ignore (Fleet_pw.check fleet ~now:(Time_ns.mul (us 10.0) s) ~limit:max_int
            : Fire_outcome.t)
  done;
  Alcotest.(check bool) "still pacing" true (Fleet_pw.sends fleet > sends0);
  Alcotest.(check int) "pool warm: no new cells" created
    (Fleet_pw.packet_cells_created fleet);
  Alcotest.(check int) "every acquire after the first reused"
    (Fleet_pw.sends fleet - created)
    (Fleet_pw.packet_reuses fleet)

(* ------------------------------------------------------------------ *)
(* Memory regressions *)

let test_default_clocks_share_cohort_hdr () =
  let e = Engine.create () in
  let m = Machine.create e in
  let st = Softtimer.attach m in
  let mk ?intervals () =
    Rate_clock.create ?intervals st ~target_interval:(us 50.0) ~min_interval:(us 10.0)
      ~send:(fun _ -> true)
      ()
  in
  let c1 = mk () and c2 = mk () in
  Alcotest.(check bool) "default clocks share one Hdr" true
    (Rate_clock.intervals c1 == Rate_clock.intervals c2);
  let private_clock = mk ~intervals:(Hdr.create ~lowest:0.01 ()) () in
  Alcotest.(check bool) "opt-in keeps a private Hdr" false
    (Rate_clock.intervals private_clock == Rate_clock.intervals c1);
  (* The regression this guards: per-clock marginal memory must not
     include a histogram.  An Hdr with a few recorded values is ~KB;
     a clock record is a few dozen words. *)
  Hdr.record (Rate_clock.intervals c1) 50.0;
  let words l = Obj.reachable_words (Obj.repr l) in
  let base = words [ mk () ] in
  let ten = words [ mk (); mk (); mk (); mk (); mk (); mk (); mk (); mk (); mk (); mk () ] in
  let marginal = (ten - base) / 9 in
  Alcotest.(check bool)
    (Printf.sprintf "marginal clock is histogram-free (%d words)" marginal)
    true (marginal < 64)

let test_pool_memory_per_flow_bounded () =
  let flows = 10_000 in
  let p =
    Pool_pw.create
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(ns_us 10.0)
      ~send:(fun _ -> true)
      ()
  in
  for _ = 1 to flows do
    ignore (Pool_pw.add p ~target_interval:(ns_us 100.0) ~min_interval:(ns_us 10.0) : int)
  done;
  for fid = 0 to flows - 1 do
    Pool_pw.kick p fid ~now:(ns_us 10.0 * (fid mod 101))
  done;
  drive_pool (Pool_pw.check p) ~tick_us:10.0 ~ticks:300;
  let words = Obj.reachable_words (Obj.repr p) in
  let per_flow = words / flows in
  (* Packed rows: 8 words of flow state + ~8 of wheel slot + handle +
     payload + freelists and doubling slack.  The regression guard is
     against reintroducing boxed per-flow records or histograms
     (hundreds of words each). *)
  Alcotest.(check bool)
    (Printf.sprintf "per-flow state bounded (%d words/flow)" per_flow)
    true (per_flow <= 40)

(* ------------------------------------------------------------------ *)
(* Hw_pacer *)

(* The tick is one engine timer: a stop withdraws it, so a stop and a
   restart within one interval leave exactly one tick pending, and every
   tick that runs raises the interrupt (no stale tick of the first start
   runs and does nothing). *)
let test_hw_pacer_restart_one_tick () =
  let e = Engine.create () in
  let m = Machine.create e in
  let pacer = Hw_pacer.create m ~interval:(us 100.0) ~send:(fun _ -> true) () in
  let idle = Engine.pending e in
  Hw_pacer.start pacer;
  Engine.run_until e (us 30.0);
  Hw_pacer.stop pacer;
  Hw_pacer.start pacer;
  Alcotest.(check int) "one tick pending" (idle + 1) (Engine.pending e);
  (* Ticks at 130, 230, ..., 930 us. *)
  Engine.run_until e (us 1_000.0);
  Alcotest.(check int) "ticks raised" 9 (Hw_pacer.ticks_raised pacer);
  Alcotest.(check int) "tick events run" 9 (List.assoc "hw_pacer.tick" (Engine.kind_runs e))

let () =
  Alcotest.run "pacer"
    [
      ( "packet-pool",
        [
          Alcotest.test_case "reuse" `Quick test_packet_pool_reuse;
          Alcotest.test_case "guards" `Quick test_packet_pool_guards;
          Alcotest.test_case "to_packet" `Quick test_packet_pool_to_packet;
        ] );
      ( "session-arena",
        [
          Alcotest.test_case "lifecycle" `Quick test_arena_lifecycle;
          Alcotest.test_case "note_sends" `Quick test_arena_note_sends;
        ] );
      ( "rate-clock-pool",
        [
          Alcotest.test_case "paces at target" `Quick test_pool_paces_at_target;
          Alcotest.test_case "rate survives coarse store" `Quick
            test_pool_rate_survives_coarse_store;
          Alcotest.test_case "stop and train end" `Quick test_pool_stop_and_train_end;
          Alcotest.test_case "time going backwards" `Quick test_pool_time_backwards;
          Alcotest.test_case "user scratch word" `Quick test_pool_user_word;
          Alcotest.test_case "add validation" `Quick test_pool_add_validation;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "transfers complete" `Quick test_fleet_transfers_complete;
          Alcotest.test_case "packet pool warm" `Quick test_fleet_packet_pool_warm;
        ] );
      ( "memory",
        [
          Alcotest.test_case "cohort hdr shared" `Quick test_default_clocks_share_cohort_hdr;
          Alcotest.test_case "pool per-flow bounded" `Quick test_pool_memory_per_flow_bounded;
        ] );
      ( "hw-pacer",
        [ Alcotest.test_case "restart leaves one tick" `Quick test_hw_pacer_restart_one_tick ] );
    ]
