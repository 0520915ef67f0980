(* Host-cost benchmark child: runs one workload once and prints one JSON
   object of raw host measurements and deterministic simulation outputs
   on stdout.  perfbench/run.py spawns it, checks the outputs and
   derives the reported metrics.

     bench.exe --workload web-soft|web-irq|pacer-1m --seed N
               [--segments N] [--flows N] [--setups K] [--traced]

   Everything is measured from outside the simulator: a monotonic clock
   around calls into the libraries' public functions, [Gc.quick_stat]
   deltas, and counts read back through public accessors, observers and
   the trace tap.  Nothing here goes through lib/obs's own timing or
   statistics code, so a change there cannot change how it is measured.

   The timed phase is a fixed amount of simulated work cut into equal
   segments of ticks.  An untraced run keeps every tick's CPU time and
   ops, and a host probe read between ticks, so run.py can time the
   ticks the host left alone (see README.md, "Host noise").

   A traced run (--traced) replays the same workload, seed and length
   with spans around every engine step or fleet tick and every
   timer-store call, so host time can be split by layer; its
   deterministic outputs must equal the untraced run's. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* CPU time (user plus system) of this process.  Time the kernel or the
   hypervisor gives to others while the process waits is wall time but
   not CPU time. *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* ------------------------------------------------------------------ *)
(* Quantiles, computed here rather than with Hdr or Stats.             *)

(* Exact per-call duration histogram: one counter per nanosecond below
   [exact_ns]; the rare longer calls are kept individually. *)
module Nsh = struct
  let exact_ns = 1 lsl 17

  type t = { counts : int array; mutable over : int list; mutable n : int }

  let create () = { counts = Array.make exact_ns 0; over = []; n = 0 }

  let add h d =
    h.n <- h.n + 1;
    if d < exact_ns then h.counts.(d) <- h.counts.(d) + 1 else h.over <- d :: h.over

  let clear h =
    Array.fill h.counts 0 exact_ns 0;
    h.over <- [];
    h.n <- 0

  (* Quantile of the grouped data: a value recorded as [v] ns stands for
     the interval [v, v+1), and the rank is interpolated inside the
     bucket that holds it. *)
  let quantile h q =
    if h.n = 0 then 0.0
    else begin
      let r = q *. float_of_int h.n in
      let result = ref nan in
      let cum = ref 0 in
      let v = ref 0 in
      while Float.is_nan !result && !v < exact_ns do
        let c = h.counts.(!v) in
        if c > 0 && float_of_int (!cum + c) >= r then
          result := float_of_int !v +. ((r -. float_of_int !cum) /. float_of_int c)
        else cum := !cum + c;
        incr v
      done;
      if Float.is_nan !result then begin
        let over = Array.of_list h.over in
        Array.sort Int.compare over;
        let rest = r -. float_of_int !cum in
        let i = max 0 (min (Array.length over - 1) (int_of_float (Float.ceil rest) - 1)) in
        result := float_of_int over.(i) +. (rest -. float_of_int i)
      end;
      !result
    end
end

(* ------------------------------------------------------------------ *)
(* Spans: aggregated per name (a traced run makes tens of millions).   *)

module Span = struct
  let step = 0 (* one Engine.step *)
  let tick = 1 (* one Fleet.check *)
  let schedule = 2
  let next_deadline = 3
  let fire_due = 4
  let cancel_rearm = 5
  let callback = 6 (* one fire_due callback: the client's handler *)
  let floor_parent = 7
  let floor_child = 8

  let names =
    [| "step"; "tick"; "store.schedule"; "store.next_deadline"; "store.fire_due";
       "store.cancel_rearm"; "callback"; "floor.parent"; "floor.child" |]

  let n = Array.length names
  let count = Array.make n 0
  let total = Array.make n 0
  let self = Array.make n 0 (* duration minus the children's durations *)
  let kids = Array.make n 0 (* direct child spans *)

  let hists =
    Array.init n (fun i -> if i = step || i = fire_due then Some (Nsh.create ()) else None)

  (* The open-span stack: start time, children's summed duration and
     children's count, per depth. *)
  let max_depth = 64
  let depth = ref 0
  let starts = Array.make max_depth 0
  let child_ns = Array.make max_depth 0
  let child_n = Array.make max_depth 0

  let reset () =
    List.iter (fun a -> Array.fill a 0 n 0) [ count; total; self; kids ];
    Array.iter (function Some h -> Nsh.clear h | None -> ()) hists;
    depth := 0

  let enter () =
    let d = !depth in
    depth := d + 1;
    child_ns.(d) <- 0;
    child_n.(d) <- 0;
    starts.(d) <- now_ns ()

  let leave id =
    let t = now_ns () in
    let d = !depth - 1 in
    depth := d;
    let dur = t - starts.(d) in
    count.(id) <- count.(id) + 1;
    total.(id) <- total.(id) + dur;
    self.(id) <- self.(id) + dur - child_ns.(d);
    kids.(id) <- kids.(id) + child_n.(d);
    (match hists.(id) with Some h -> Nsh.add h dur | None -> ());
    if d > 0 then begin
      child_ns.(d - 1) <- child_ns.(d - 1) + dur;
      child_n.(d - 1) <- child_n.(d - 1) + 1
    end

  (* What one empty child span adds to its parent's self time: the
     clock reads and bookkeeping a traced parent pays per child.  Median
     over 101 batches of 1000 children. *)
  let floor_ns () =
    let per_batch =
      Array.init 101 (fun _ ->
          reset ();
          enter ();
          for _ = 1 to 1000 do
            enter ();
            leave floor_child
          done;
          leave floor_parent;
          float_of_int self.(floor_parent) /. 1000.0)
    in
    reset ();
    Array.sort Float.compare per_batch;
    per_batch.(50)
end

(* A timer store with every operation the simulation calls wrapped in a
   span.  Handles are the wrapped store's own, so the wrapper adds no
   per-entry memory and cannot change the simulation. *)
let scanned = ref 0
let fired = ref 0

module Timed (M : Timer_store.S) : Timer_store.S = struct
  type 'a t = 'a M.t
  type 'a handle = 'a M.handle

  let name = M.name
  let create = M.create

  let schedule t ~at v =
    Span.enter ();
    let h = M.schedule t ~at v in
    Span.leave Span.schedule;
    h

  let schedule_i t ~at_i v =
    Span.enter ();
    let h = M.schedule_i t ~at_i v in
    Span.leave Span.schedule;
    h

  let cancel t h =
    Span.enter ();
    M.cancel t h;
    Span.leave Span.cancel_rearm

  let rearm t h ~at =
    Span.enter ();
    let moved = M.rearm t h ~at in
    Span.leave Span.cancel_rearm;
    moved

  let next_deadline t =
    Span.enter ();
    let d = M.next_deadline t in
    Span.leave Span.next_deadline;
    d

  let fire_due t ?prefetch ~now ~limit f =
    Span.enter ();
    let o =
      M.fire_due t ?prefetch ~now ~limit (fun due v ->
          Span.enter ();
          f due v;
          Span.leave Span.callback)
    in
    Span.leave Span.fire_due;
    scanned := !scanned + Fire_outcome.scanned o;
    fired := !fired + Fire_outcome.fired o;
    o

  let pending = M.pending
  let resident = M.resident
  let words = M.words
  let handle_pending = M.handle_pending
  let handle_deadline = M.handle_deadline
end

(* ------------------------------------------------------------------ *)
(* Measurements common to every workload.                               *)

let out : (string * string) list ref = ref []
let put k v = out := (k, v) :: !out
let puti k v = put k (string_of_int v)
let putf k v = put k (Printf.sprintf "%.17g" v)
let put_ints k a = put k ("[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]")

(* Host-drift probe: a fixed integer loop, timed before and after the
   timed phase.  Reported beside the results, never divided into them. *)
let ref_sink = ref 0

let reference_loop_ns () =
  let t0 = now_ns () in
  let x = ref 1 in
  for i = 1 to 30_000_000 do
    x := ((!x * 1103515245) + 12345 + i) land 0x3fffffff
  done;
  ref_sink := !ref_sink lxor !x;
  now_ns () - t0

(* Host-contention probe: four independent register-only chains, timed on
   the wall clock right before every tick of the timed phase and once
   after the last.  It touches no memory, so nothing the simulator does
   can change what it reads.  It slows when the virtual CPU shares its
   physical core with someone else's work (about 1.7x), as the simulator
   does (about 1.5x); the dependent reference loop above barely moves
   then.  Time off the CPU inside the probe reads as a slow probe too.
   run.py keeps the ticks that a quiet probe reading brackets. *)
let probe_iters = 5_000

let probe_ns () =
  let t0 = now_ns () in
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to probe_iters do
    a := (!a + i) lxor (!a lsr 3);
    b := (!b + (i lsl 1)) lxor (!b lsr 5);
    c := (!c - i) lxor (!c lsl 2);
    d := (!d + 7) lxor (!d lsr 1)
  done;
  ref_sink := !ref_sink lxor !a lxor !b lxor !c lxor !d;
  now_ns () - t0

(* GC counters as floats: minor, promoted and major words, minor
   collections, major cycles. *)
let gc_snap () =
  let s = Gc.quick_stat () in
  [| s.Gc.minor_words; s.Gc.promoted_words; s.Gc.major_words;
     float_of_int s.Gc.minor_collections; float_of_int s.Gc.major_collections |]

let gc_names =
  [| "gc_minor_words"; "gc_promoted_words"; "gc_major_words"; "gc_minor_collections";
     "gc_major_collections" |]

(* The timed phase's GC deltas, and the heap peak so far; called at the
   end of the timed phase, before the set-ups that follow it. *)
let put_gc before after =
  Array.iteri (fun i name -> putf name (after.(i) -. before.(i))) gc_names;
  puti "top_heap_words" (Gc.quick_stat ()).Gc.top_heap_words

(* Set-up is timed [setups] times in CPU time, each from a compacted
   heap and bracketed by two host probe readings: the instance the timed
   phase uses, [(setups - 1) / 2] dropped instances before it and the
   rest after it, so the set-up times sample the host at both ends of
   the run.  One instance is live at a time. *)
let setup_ns = ref []
let setup_probe = ref []

let timed_setup f =
  Gc.compact ();
  let p0 = probe_ns () in
  let t0 = cpu_ns () in
  let x = f () in
  setup_ns := (cpu_ns () - t0) :: !setup_ns;
  setup_probe := probe_ns () :: p0 :: !setup_probe;
  x

let setups_before setups f =
  for _ = 1 to (setups - 1) / 2 do
    ignore (timed_setup f)
  done

let setups_after setups f =
  for _ = 1 to setups - 1 - ((setups - 1) / 2) do
    ignore (timed_setup f)
  done;
  put_ints "setup_ns" (Array.of_list (List.rev !setup_ns));
  put_ints "setup_probe_ns" (Array.of_list (List.rev !setup_probe))

(* Segment bookkeeping of the timed phase: wall time, CPU time and ops
   per segment; in an untraced run also every tick's CPU time and ops,
   and the host probe read before each tick and after the last. *)
type segs = {
  seg_wall : int array;
  seg_cpu : int array;
  seg_ops : int array;
  tick_cpu : int array;
  tick_ops : int array;
  probe : int array;
}

let segs ~segments ~ticks_per_seg =
  let ticks = segments * ticks_per_seg in
  {
    seg_wall = Array.make segments 0;
    seg_cpu = Array.make segments 0;
    seg_ops = Array.make segments 0;
    tick_cpu = Array.make ticks 0;
    tick_ops = Array.make ticks 0;
    probe = Array.make (ticks + 1) 0;
  }

let put_segs s ~traced =
  if not traced then begin
    put_ints "tick_cpu_ns" s.tick_cpu;
    put_ints "tick_ops" s.tick_ops;
    put_ints "probe_ns" s.probe
  end;
  puti "wall_ns" (Array.fold_left ( + ) 0 s.seg_wall);
  puti "cpu_ns" (Array.fold_left ( + ) 0 s.seg_cpu);
  puti "ops" (Array.fold_left ( + ) 0 s.seg_ops)

let put_spans () =
  Array.iteri
    (fun i name ->
      if Span.count.(i) > 0 then begin
        puti (Printf.sprintf "span.%s.count" name) Span.count.(i);
        puti (Printf.sprintf "span.%s.total_ns" name) Span.total.(i);
        puti (Printf.sprintf "span.%s.self_ns" name) Span.self.(i);
        puti (Printf.sprintf "span.%s.kids" name) Span.kids.(i);
        match Span.hists.(i) with
        | Some h ->
          putf (Printf.sprintf "span.%s.p50_ns" name) (Nsh.quantile h 0.5);
          putf (Printf.sprintf "span.%s.p99_ns" name) (Nsh.quantile h 0.99)
        | None -> ()
      end)
    Span.names;
  puti "store_scanned" !scanned;
  puti "store_fired" !fired

(* ------------------------------------------------------------------ *)
(* web-soft / web-irq: the Table 3 Apache server.                       *)

let web_warmup = Time_ns.of_sec 1.0

(* A tick is one [run_until] over 20 simulated ms; a segment is 10
   ticks (0.2 simulated s, about 10 ms of host time). *)
let web_tick_ns = 20_000_000
let web_ticks_per_seg = 10

let run_web ~pacing ~seed ~segments ~setups ~traced =
  let cfg = { Webserver.default_config with Webserver.pacing; seed } in
  if traced then begin
    let (module W) = Timer_store.wheel () in
    Softtimer.set_default_store (Some (module Timed (W) : Timer_store.S))
  end;
  let setup () =
    let ws = Webserver.create cfg in
    Webserver.run ws ~warmup:web_warmup ~measure:Time_ns.zero;
    ws
  in
  setups_before setups setup;
  let ws = timed_setup setup in
  let eng = Webserver.engine ws in
  let m = Webserver.machine ws in
  let facility = Webserver.facility ws in
  let st_checks () = match facility with Some f -> Softtimer.checks f | None -> 0 in
  let st_fired () = match facility with Some f -> Softtimer.fired f | None -> 0 in
  let start = Engine.now eng in
  let boundary k = Int64.add start (Int64.of_int (k * web_tick_ns)) in
  let s = segs ~segments ~ticks_per_seg:web_ticks_per_seg in
  let checks0 = st_checks () and fired0 = st_fired () in
  let ref0 = reference_loop_ns () in
  let g0 = gc_snap () in
  if not traced then begin
    for seg = 0 to segments - 1 do
      for k = 0 to web_ticks_per_seg - 1 do
        let i = (seg * web_ticks_per_seg) + k in
        s.probe.(i) <- probe_ns ();
        let c0 = Webserver.completed_requests ws in
        let a = now_ns () in
        let b = cpu_ns () in
        Engine.run_until eng (boundary (i + 1));
        let dc = cpu_ns () - b in
        s.seg_wall.(seg) <- s.seg_wall.(seg) + (now_ns () - a);
        s.tick_cpu.(i) <- dc;
        s.seg_cpu.(seg) <- s.seg_cpu.(seg) + dc;
        s.tick_ops.(i) <- Webserver.completed_requests ws - c0;
        s.seg_ops.(seg) <- s.seg_ops.(seg) + s.tick_ops.(i)
      done
    done;
    s.probe.(segments * web_ticks_per_seg) <- probe_ns ()
  end
  else begin
    let triggers = ref 0 and emits = ref 0 and quanta = ref 0 and irqs = ref 0 and tx = ref 0 in
    Machine.add_observer m (fun _ _ -> incr triggers);
    Trace.set_tap
      (Some
         (fun ~at:_ ev ->
           incr emits;
           match ev with
           | Trace.Cpu_run _ -> incr quanta
           | Trace.Irq _ -> incr irqs
           | Trace.Pkt_tx _ -> incr tx
           | _ -> ()));
    Span.reset ();
    scanned := 0;
    fired := 0;
    for seg = 0 to segments - 1 do
      (* A sentinel event at the segment's end stops the step loop.
         Events due at exactly that instant but queued behind it run in
         the next segment (or, after the last, in the untimed
         [run_until] below), so the simulated span is the untraced
         run's. *)
      let stop = ref false in
      let until = boundary ((seg + 1) * web_ticks_per_seg) in
      ignore (Engine.schedule_at eng until (fun () -> stop := true) : Engine.handle);
      let c0 = Webserver.completed_requests ws in
      let w0 = now_ns () in
      let u0 = cpu_ns () in
      while not !stop do
        Span.enter ();
        ignore (Engine.step eng : bool);
        Span.leave Span.step
      done;
      s.seg_cpu.(seg) <- cpu_ns () - u0;
      s.seg_wall.(seg) <- now_ns () - w0;
      s.seg_ops.(seg) <- Webserver.completed_requests ws - c0
    done;
    Trace.set_tap None;
    put_spans ();
    Engine.run_until eng (boundary (segments * web_ticks_per_seg));
    puti "sentinels" segments;
    puti "triggers_observed" !triggers;
    puti "trace_emits" !emits;
    puti "cpu_runs" !quanta;
    puti "irqs" !irqs;
    puti "pkt_tx" !tx
  end;
  let g1 = gc_snap () in
  let ref1 = reference_loop_ns () in
  put_segs s ~traced;
  put_gc g0 g1;
  puti "ref_ns_before" ref0;
  puti "ref_ns_after" ref1;
  puti "softtimer_checks" (st_checks () - checks0);
  puti "softtimer_fired" (st_fired () - fired0);
  puti "rx_packets" (Webserver.rx_packets ws);
  puti "rx_batches" (Webserver.rx_batches ws);
  (* Deterministic outputs, compared against the recorded values. *)
  puti "out.completed" (Webserver.completed_requests ws);
  puti "out.softtimer_checks" (st_checks ());
  puti "out.softtimer_fired" (st_fired ());
  puti "out.trigger_total" (Machine.trigger_total m);
  puti "out.pacer_sends" (Webserver.pacer_sends ws);
  setups_after setups setup

(* ------------------------------------------------------------------ *)
(* pacer-1m: the pacer-scale fleet over the pacing wheel.               *)

let tick_us = 10.0
let tick = Time_ns.of_us tick_us
let classes = 32
let class_target_us k = 103.0 +. (63.0 *. float_of_int k)

(* One full rate horizon: the slowest class sends every ~206 ticks. *)
let warm_ticks = 256

let at_tick s = Time_ns.mul tick s

module Pacer (M : Timer_store.S) = struct
  module F = Paced_sender.Fleet (M)

  let setup ~flows ~seed ~tx () =
    let rng = Prng.create ~seed:(seed + (31 * flows)) in
    let fleet =
      F.create ~stat_every:1024 ~intervals:(Hdr.create ~lowest:0.01 ()) ~tick
        ~transmit:(fun _ _ -> incr tx)
        ()
    in
    for fid = 0 to flows - 1 do
      let target_us = class_target_us (Prng.int rng classes) in
      ignore
        (F.add fleet ~total_segments:max_int ~target_interval:(Time_ns.of_us target_us)
           ~min_interval:(Time_ns.of_us 12.0)
          : int);
      F.start fleet fid ~now:(Time_ns.of_us (tick_us *. float_of_int (fid mod 101)))
    done;
    for s = 1 to warm_ticks do
      ignore (F.check fleet ~now:(at_tick s) ~limit:max_int : Fire_outcome.t)
    done;
    fleet

  let run ~flows ~seed ~segments ~setups ~traced =
    let tx = ref 0 in
    let setup = setup ~flows ~seed ~tx in
    setups_before setups setup;
    let fleet = timed_setup setup in
    (* A segment is one fleet tick (about 4 ms of host time). *)
    let s = segs ~segments ~ticks_per_seg:1 in
    let catch0 = F.catch_ups fleet in
    let tx0 = !tx in
    let emits = ref 0 in
    if traced then begin
      Trace.set_tap (Some (fun ~at:_ _ -> incr emits));
      Span.reset ();
      scanned := 0;
      fired := 0
    end;
    let ref0 = reference_loop_ns () in
    let g0 = gc_snap () in
    for i = 0 to segments - 1 do
      if not traced then s.probe.(i) <- probe_ns ();
      let c0 = F.sends fleet in
      let now = at_tick (warm_ticks + 1 + i) in
      (* The CPU-time reads are system calls; they stay outside the wall
         window so that a traced tick's span covers nearly all of it. *)
      let b = cpu_ns () in
      let a = now_ns () in
      if traced then begin
        Span.enter ();
        ignore (F.check fleet ~now ~limit:max_int : Fire_outcome.t);
        Span.leave Span.tick
      end
      else ignore (F.check fleet ~now ~limit:max_int : Fire_outcome.t);
      s.seg_wall.(i) <- now_ns () - a;
      let dc = cpu_ns () - b in
      s.tick_cpu.(i) <- dc;
      s.seg_cpu.(i) <- dc;
      s.seg_ops.(i) <- F.sends fleet - c0;
      s.tick_ops.(i) <- s.seg_ops.(i)
    done;
    if not traced then s.probe.(segments) <- probe_ns ();
    let g1 = gc_snap () in
    let ref1 = reference_loop_ns () in
    if traced then begin
      Trace.set_tap None;
      put_spans ();
      puti "trace_emits" !emits
    end;
    put_segs s ~traced;
    put_gc g0 g1;
    puti "ref_ns_before" ref0;
    puti "ref_ns_after" ref1;
    puti "transmits" (!tx - tx0);
    puti "catch_ups_timed" (F.catch_ups fleet - catch0);
    puti "flows" flows;
    puti "store_words" (F.store_words fleet);
    puti "pool_words" (F.pool_words fleet);
    puti "packet_cells" (F.packet_cells_created fleet);
    let sum_sent = ref 0 in
    for fid = 0 to flows - 1 do
      sum_sent := !sum_sent + F.sent fleet fid
    done;
    puti "out.sends" (F.sends fleet);
    puti "out.catch_ups" (F.catch_ups fleet);
    puti "out.sum_sent" !sum_sent;
    putf "out.delay_min_us" (Hdr.min (F.delays fleet));
    setups_after setups setup
end

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 7 and segments = ref 10 in
  let flows = ref 1_000_000 and setups = ref 1 and traced = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "web-soft | web-irq | pacer-1m");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--segments", Arg.Set_int segments, "timed segments (web: 0.2 simulated s; pacer: 1 tick)");
      ("--flows", Arg.Set_int flows, "pacer: fleet size");
      ("--setups", Arg.Set_int setups, "set-ups to time");
      ("--traced", Arg.Set traced, "span every step/tick and store call");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N [options]";
  if !setups < 1 || !segments < 1 || !flows < 1 then begin
    prerr_endline "bench.exe: sizes must be positive";
    exit 2
  end;
  if !traced then putf "span_floor_ns" (Span.floor_ns ());
  let web pacing = run_web ~pacing ~seed:!seed ~segments:!segments ~setups:!setups ~traced:!traced in
  (match !workload with
  | "web-soft" -> web Webserver.Soft_pacing
  | "web-irq" -> web (Webserver.Hw_pacing (Time_ns.of_us 20.0))
  | "pacer-1m" ->
    if !traced then
      let module P = Pacer (Timed (Pacing_wheel)) in
      P.run ~flows:!flows ~seed:!seed ~segments:!segments ~setups:!setups ~traced:true
    else
      let module P = Pacer (Pacing_wheel) in
      P.run ~flows:!flows ~seed:!seed ~segments:!segments ~setups:!setups ~traced:false
  | w ->
    prerr_endline ("bench.exe: unknown workload " ^ w);
    exit 2);
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s\"%s\":%s" (if i = 0 then "" else ",") k v)
    (List.rev !out);
  print_string "}\n"
