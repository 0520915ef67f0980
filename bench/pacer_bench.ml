(* Wall-clock cost of fleet pacing: ns per flow per tick across timer
   stores and fleet sizes.

   dune exec bench/pacer_bench.exe -- [--quick] [--seed S] [--json FILE]

   The deterministic side of this sweep (sends, catch-ups, fire-delay
   quantiles, bytes per flow) is the pacer-scale experiment
   (bin/softtimers_cli.exe pacer-scale); this binary shares its fleet
   setup — same rate classes, stagger and check cadence — and measures
   the one thing the experiment deliberately excludes: real elapsed
   time.  The acceptance story is the per-flow-per-tick cost staying
   flat as the fleet grows 100x, i.e. O(1) per-event store cost.

   Steady state is also the allocation story: after warm-up the pacing
   loop reuses packet cells and int-array slots, so minor-GC pressure
   (reported per cell) stays near zero for the wheel's int handles. *)

(* DET001: elapsed time is the measurand here; every reproducible count
   (sends, fires) derives only from the seeded Prng. *)
[@@@lint.allow "DET001"]

let tick_us = 10.0

let classes = 32
let class_target_us k = 103.0 +. (63.0 *. float_of_int k)

type cell = {
  store : string;
  flows : int;
  ticks : int;
  sends : int;
  ns_per_flow_tick : float;
  ns_per_send : float;
  minor_words_per_send : float;
  major_words_per_send : float;
  store_words : int;  (* analytic store footprint after the timed section *)
  pool_words : int;  (* fleet pool arrays (flow state, handles) *)
}

let words_per_flow c = float_of_int (c.store_words + c.pool_words) /. float_of_int c.flows

let run_cell (module M : Timer_store.S) ~flows ~ticks ~seed =
  let module F = Paced_sender.Fleet (M) in
  let rng = Prng.create ~seed:(seed + (31 * flows)) in
  (* Sparse histogram sampling: this binary reports cost, not
     quantiles, and per-send float recording would dominate the minor
     words/send column.  The experiment samples every send instead. *)
  let fleet =
    F.create ~stat_every:1024
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~tick:(Time_ns.of_us tick_us)
      ~transmit:(fun _ _ -> ())
      ()
  in
  for fid = 0 to flows - 1 do
    let target_us = class_target_us (Prng.int rng classes) in
    ignore
      (F.add fleet ~total_segments:max_int
         ~target_interval:(Time_ns.of_us target_us)
         ~min_interval:(Time_ns.of_us 12.0)
        : int);
    F.start fleet fid ~now:(Time_ns.of_us (tick_us *. float_of_int (fid mod 101)))
  done;
  (* Warm-up: flow starts drain, pools fill, the store reaches steady
     churn before the clock starts.  The floor covers one full rate
     horizon (the slowest class sends every ~206 ticks), so every class
     has completed at least one send → reschedule cycle and the wheel's
     bucket vectors have reached their steady footprint. *)
  let warm = max (ticks / 4) 256 in
  for s = 1 to warm do
    ignore (F.check fleet ~now:(Time_ns.mul (Time_ns.of_us tick_us) s) ~limit:max_int
            : Fire_outcome.t)
  done;
  let sends0 = F.sends fleet in
  let t0 = Unix.gettimeofday () in
  let (), gc =
    Bench_mem.measure (fun () ->
        for s = warm + 1 to warm + ticks do
          ignore (F.check fleet ~now:(Time_ns.mul (Time_ns.of_us tick_us) s) ~limit:max_int
                  : Fire_outcome.t)
        done)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let sends = F.sends fleet - sends0 in
  {
    store = M.name;
    flows;
    ticks;
    sends;
    ns_per_flow_tick = dt *. 1e9 /. float_of_int ticks /. float_of_int flows;
    ns_per_send = dt *. 1e9 /. float_of_int (max 1 sends);
    minor_words_per_send = gc.Bench_mem.d_minor_words /. float_of_int (max 1 sends);
    major_words_per_send = Bench_mem.major_alloc gc /. float_of_int (max 1 sends);
    store_words = F.store_words fleet;
    pool_words = F.pool_words fleet;
  }

(* Min-of-N: the counts are deterministic (seeded Prng), so repeats
   differ only by machine noise; the minimum is the standard
   microbenchmark estimator for the undisturbed cost. *)
let run_cell_min (module M : Timer_store.S) ~flows ~ticks ~seed ~repeat =
  let best = ref (run_cell (module M) ~flows ~ticks ~seed) in
  for _ = 2 to repeat do
    let c = run_cell (module M) ~flows ~ticks ~seed in
    assert (c.sends = !best.sends);
    if c.ns_per_flow_tick < !best.ns_per_flow_tick then best := c
  done;
  !best

let stores : (module Timer_store.S) list =
  [ (module Pacing_wheel); (module Eventq_store); (module Lawn) ]

(* Fewer measured ticks at larger fleets: per-tick work scales with the
   aggregate send rate, and the mean stabilizes within a few hundred
   ticks. *)
let ticks_for flows = if flows <= 10_000 then 2_000 else if flows <= 100_000 then 1_000 else 500

let () =
  let quick = ref false in
  let seed = ref 7 in
  let json = ref None in
  let repeat = ref 1 in
  let only = ref None in
  let flows_override = ref None in
  let usage () =
    prerr_endline
      "usage: pacer_bench.exe [--quick] [--seed S] [--json FILE] [--repeat N] [--store NAME]";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some x -> seed := x | _ -> usage ());
      parse rest
    | "--json" :: v :: rest ->
      json := Some v;
      parse rest
    | "--repeat" :: v :: rest ->
      (match int_of_string_opt v with Some x when x >= 1 -> repeat := x | _ -> usage ());
      parse rest
    | "--store" :: v :: rest ->
      only := Some v;
      parse rest
    | "--flows" :: v :: rest ->
      (match int_of_string_opt v with Some x when x >= 1 -> flows_override := Some x | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sizes =
    match !flows_override with
    | Some n -> [ n ]
    | None -> if !quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let stores =
    match !only with
    | None -> stores
    | Some n -> List.filter (fun (module M : Timer_store.S) -> M.name = n) stores
  in
  if stores = [] then usage ();
  let cells =
    List.concat_map
      (fun (module M : Timer_store.S) ->
        let rows =
          List.map
            (fun flows ->
              run_cell_min (module M) ~flows ~ticks:(ticks_for flows) ~seed:!seed
                ~repeat:!repeat)
            sizes
        in
        Gc.compact ();
        rows)
      stores
  in
  Printf.printf "Fleet pacing cost: ns per flow per tick (wall-clock), seed %d\n\n" !seed;
  Printf.printf
    "| store | flows | ticks | sends | ns/flow/tick | ns/send | minor words/send | major \
     words/send | words/flow |\n";
  Printf.printf "|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun c ->
      Printf.printf "| %s | %d | %d | %d | %.2f | %.0f | %.3f | %.3f | %.1f |\n" c.store
        c.flows c.ticks c.sends c.ns_per_flow_tick c.ns_per_send c.minor_words_per_send
        c.major_words_per_send (words_per_flow c))
    cells;
  (* Retention census: note each cell's analytic store + pool footprint
     under mem;pacer;<store>;<flows> so the JSON mem section attributes
     retained words the same way `softtimers-cli report pacer-scale` does. *)
  List.iter
    (fun c ->
      Memstats.note ~path:[ "pacer"; c.store; string_of_int c.flows ]
        (c.store_words + c.pool_words))
    cells;
  match !json with
  | None -> ()
  | Some path ->
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\"schema\":\"softtimers-pacer-bench/1\",";
    Buffer.add_string b (Printf.sprintf "\"seed\":%d,\"cells\":[" !seed);
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"store\":\"%s\",\"flows\":%d,\"ticks\":%d,\"sends\":%d,\
              \"ns_per_flow_tick\":%.3f,\"ns_per_send\":%.1f,\"minor_words_per_send\":%.3f,\
              \"major_words_per_send\":%.3f,\"store_words\":%d,\"pool_words\":%d,\
              \"words_per_flow\":%.1f}"
             c.store c.flows c.ticks c.sends c.ns_per_flow_tick c.ns_per_send
             c.minor_words_per_send c.major_words_per_send c.store_words c.pool_words
             (words_per_flow c)))
      cells;
    Buffer.add_string b "],\"mem\":";
    Buffer.add_string b (Memstats.to_json ());
    Buffer.add_string b "}\n";
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Buffer.output_buffer oc b);
    Printf.printf "\nwrote %s\n" path
