(* Million-flow rate-based clocking (extension of §4.1/§5.7).

   The paper paces a handful of connections; datacenter NICs pace
   millions (Carousel, SIGCOMM'17; Eiffel, NSDI'19).  This experiment
   sweeps a fleet of rate-clocked flows from 10^3 to 10^6 over three
   timer stores — the Eiffel-style approximate pacing wheel against the
   eventq and lawn exact baselines — and reports, per cell: segments
   sent, catch-up fraction, fire-delay quantiles (for the wheel these
   include the deadline quantization, which is the point of measuring
   them) and resident fleet bytes per flow.

   Everything runs on simulated time driven by a fixed check cadence
   (one {!Paced_sender.Fleet.check} per facility tick), with flow rates
   drawn from a seeded {!Prng}: two same-seed runs are bit-identical,
   so verify-determinism covers this experiment like any other.  The
   wall-clock cost side (ns per flow per tick) lives in
   [bench/pacer_bench.exe], which shares this fleet setup. *)

let tick_us = 10.0
let tick = Time_ns.of_us tick_us

(* 32 rate classes spanning 103 µs .. 2056 µs target intervals — the
   short-to-long mix of a busy egress, all far above the 12 µs burst
   floor.  Deliberately off the 10 µs tick grid, so the wheel's
   round-up quantization actually shows in the delay columns. *)
let classes = 32
let class_target_us k = 103.0 +. (63.0 *. float_of_int k)

type cell = {
  store : string;
  flows : int;
  sends : int;
  catch_up_pct : float;
  d50_us : float;
  d99_us : float;
  dmax_us : float;
  kb_per_flow : float;
  store_words : int;  (* analytic store footprint (Timer_store words) *)
  pool_words : int;  (* fleet pool arrays: flow state + handles *)
}

let words_per_flow c = float_of_int (c.store_words + c.pool_words) /. float_of_int (max 1 c.flows)

module type RUNNER = sig
  val max_flows : int
  val run : Exp_config.t -> flows:int -> window:Time_ns.span -> cell

  val run_live : Exp_config.t -> flows:int -> window:Time_ns.span -> cell * (unit -> int) * (unit -> int)
  (** Same sweep, but also returns live store/pool word providers whose
      closures keep the fleet alive — for the memory-observatory census,
      where conservation (attributed <= GC live) only makes sense over
      memory that is actually retained. *)
end

(* [store_tick_us] is the granularity handed to the store — for the
   pacing wheel, its bucket width.  Checks always run every [tick_us],
   so a coarser store tick isolates the cost of approximation itself. *)
module type CONF = sig
  module Store : Timer_store.S

  val label : string
  val store_tick_us : float
end

module Make_runner (C : CONF) = struct
  module F = Paced_sender.Fleet (C.Store)

  let name = C.label
  let max_flows = max_int

  let run_fleet (cfg : Exp_config.t) ~flows ~window =
    (* Per-cell stream: independent of sweep order, stable across
       quick/full size lists. *)
    let rng = Prng.create ~seed:(cfg.Exp_config.seed + (31 * flows)) in
    let bytes_on_wire = ref 0 in
    let fleet =
      F.create
        ~intervals:(Hdr.create ~lowest:0.01 ())
        ~tick:(Time_ns.of_us C.store_tick_us)
        ~transmit:(fun _fid c -> bytes_on_wire := !bytes_on_wire + c.Packet.size_bytes)
        ()
    in
    for fid = 0 to flows - 1 do
      let target_us = class_target_us (Prng.int rng classes) in
      let id =
        F.add fleet ~total_segments:max_int
          ~target_interval:(Time_ns.of_us target_us)
          ~min_interval:(Time_ns.of_us 12.0)
      in
      assert (id = fid);
      (* Stagger train starts across ~1 ms so the sweep measures steady
         pacing, not one synchronized thundering herd. *)
      F.start fleet fid ~now:(Time_ns.of_us (tick_us *. float_of_int (fid mod 101)))
    done;
    let steps = Time_ns.to_int window / Time_ns.to_int (Time_ns.of_us tick_us) in
    for s = 1 to steps do
      ignore (F.check fleet ~now:(Time_ns.mul tick s) ~limit:max_int : Fire_outcome.t)
    done;
    let sends = F.sends fleet in
    let d = F.delays fleet in
    (* The fleet's own words: the [rate_clock.interval_us] histogram its
       pool records into belongs to this domain's metrics context,
       shared with every clock and pool created there. *)
    let shared = Metrics.hdr (Metrics.current ()) Rate_clock.interval_metric in
    let words = Obj.reachable_words (Obj.repr fleet) - Obj.reachable_words (Obj.repr shared) in
    ( {
      store = name;
      flows;
      sends;
      catch_up_pct = 100.0 *. float_of_int (F.catch_ups fleet) /. float_of_int (max 1 sends);
      d50_us = Hdr.percentile d 50.0;
      d99_us = Hdr.percentile d 99.0;
      dmax_us = Hdr.max d;
      kb_per_flow = float_of_int (words * 8) /. 1024.0 /. float_of_int (max 1 flows);
      store_words = F.store_words fleet;
      pool_words = F.pool_words fleet;
    },
    fleet )

  let run cfg ~flows ~window = fst (run_fleet cfg ~flows ~window)

  let run_live cfg ~flows ~window =
    let cell, fleet = run_fleet cfg ~flows ~window in
    (cell, (fun () -> F.store_words fleet), (fun () -> F.pool_words fleet))
end

let runners : (module RUNNER) list =
  [
    (module Make_runner (struct
      module Store = Pacing_wheel

      let label = "pacing-wheel"
      let store_tick_us = tick_us
    end));
    (module Make_runner (struct
      module Store = Pacing_wheel

      (* Bucket width 10x the check cadence: the approximation is no
         longer hidden under dispatch granularity, so this row prices
         coarse buckets in delay terms. *)
      let label = "pacing-wheel/100us"
      let store_tick_us = 100.0
    end));
    (module Make_runner (struct
      module Store = Eventq_store

      let label = "eventq"
      let store_tick_us = tick_us
    end));
    (module Make_runner (struct
      module Store = Lawn

      let label = "lawn"
      let store_tick_us = tick_us
    end));
  ]

let sizes (cfg : Exp_config.t) =
  if cfg.Exp_config.quick then [ 1_000; 10_000 ]
  else [ 1_000; 10_000; 100_000; 1_000_000 ]

(* Shrink the measurement window as the fleet grows: the aggregate send
   rate scales with the flow count, and the quantile estimates converge
   long before 10^7 sends. *)
let window (cfg : Exp_config.t) ~flows =
  if cfg.Exp_config.quick then Time_ns.of_ms 10.0
  else if flows <= 10_000 then Time_ns.of_ms 20.0
  else if flows <= 100_000 then Time_ns.of_ms 10.0
  else Time_ns.of_ms 5.0

(* DEAD001: the rows the experiment tests check. *)
let[@lint.allow "DEAD001"] compute cfg =
  List.concat_map
    (fun (module R : RUNNER) ->
      List.filter_map
        (fun flows ->
          if flows > R.max_flows then None
          else Some (R.run cfg ~flows ~window:(window cfg ~flows)))
        (sizes cfg))
    runners

let render cells =
  let open Tablefmt in
  let t =
    create ~title:"Fleet pacing at scale -- fire delay vs requested deadline, memory per flow"
      ~columns:
        [
          ("store", Left);
          ("flows", Right);
          ("sends", Right);
          ("catch-up %", Right);
          ("delay p50 (us)", Right);
          ("p99", Right);
          ("max", Right);
          ("KB/flow", Right);
          ("words/flow", Right);
        ]
  in
  let last_store = ref "" in
  List.iter
    (fun c ->
      if !last_store <> "" && !last_store <> c.store then add_rule t;
      last_store := c.store;
      add_row t
        [
          c.store;
          cell_i c.flows;
          cell_i c.sends;
          cell_f ~decimals:1 c.catch_up_pct;
          cell_f ~decimals:1 c.d50_us;
          cell_f ~decimals:1 c.d99_us;
          cell_f ~decimals:1 c.dmax_us;
          cell_f ~decimals:2 c.kb_per_flow;
          cell_f ~decimals:1 (words_per_flow c);
        ])
    cells;
  render t
  ^ "  pacing-wheel delays include deadline quantization to the 10 us tick;\n\
    \  exact stores pay instead in per-operation cost (see bench/pacer_bench.exe).\n"

(* The sweep again, but with every fleet registered as a live
   memory-observatory census source under mem;pacer;<store>;<flows>,
   split store vs pool.  The registered provider closures keep the
   fleets alive until [Memstats.reset_census], so the conservation
   invariant (attributed live words <= GC live words) genuinely holds
   over them — which is why this cannot just [Memstats.note] the cells
   of [compute] (those fleets are garbage by the time anyone reads the
   census).

   Main-domain-only (census registration mutates the Profile category
   registry): the run report calls it directly, never from a
   Runner.map/map_sim job — which is why [run] does not. *)
let run_census cfg =
  List.concat_map
    (fun (module R : RUNNER) ->
      List.filter_map
        (fun flows ->
          if flows > R.max_flows then None
          else begin
            let cell, store_w, pool_w = R.run_live cfg ~flows ~window:(window cfg ~flows) in
            let path = [ "pacer"; cell.store; string_of_int cell.flows ] in
            Memstats.register ~path:(path @ [ "store" ]) store_w;
            Memstats.register ~path:(path @ [ "pool" ]) pool_w;
            Memstats.sample ~label:(Printf.sprintf "pacer %s %d" cell.store cell.flows);
            Some cell
          end)
        (sizes cfg))
    runners

let run cfg =
  Exp_config.header "Extension: million-flow rate-based clocking across timer stores"
  ^ render (compute cfg)
