(* Tests for the simulation substrate: time, PRNG, distributions, heap,
   engine, statistics, histograms, series and table formatting. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Time_ns *)

let test_time_conversions () =
  check_float "us roundtrip" 12.5 (Time_ns.to_us (Time_ns.of_us 12.5));
  check_float "ms roundtrip" 3.25 (Time_ns.to_ms (Time_ns.of_ms 3.25));
  check_float_eps 1e-6 "sec roundtrip" 1.5 (Time_ns.to_sec (Time_ns.of_sec 1.5));
  Alcotest.(check int64) "of_ns" 42L (Time_ns.of_ns 42);
  Alcotest.(check int64) "of_us rounds" 1_500L (Time_ns.of_us 1.5)

let test_time_arithmetic () =
  let t = Time_ns.(zero + Time_ns.of_us 10.0) in
  Alcotest.(check int64) "add" 10_000L t;
  Alcotest.(check int64) "sub" 10_000L Time_ns.(t - Time_ns.zero);
  Alcotest.(check int64) "mul" 30_000L (Time_ns.mul (Time_ns.of_us 10.0) 3);
  Alcotest.(check int64) "divide" 5_000L (Time_ns.divide (Time_ns.of_us 10.0) 2);
  Alcotest.(check int64) "scale" 25_000L (Time_ns.scale (Time_ns.of_us 10.0) 2.5);
  Alcotest.(check bool) "lt" true Time_ns.(zero < t);
  Alcotest.(check bool) "ge" true Time_ns.(t >= t);
  Alcotest.(check int64) "min" Time_ns.zero (Time_ns.min t Time_ns.zero);
  Alcotest.(check int64) "max" t (Time_ns.max t Time_ns.zero)

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time_ns.to_string 500L);
  Alcotest.(check string) "us" "12.50us" (Time_ns.to_string (Time_ns.of_us 12.5));
  Alcotest.(check string) "ms" "3.000ms" (Time_ns.to_string (Time_ns.of_ms 3.0));
  Alcotest.(check string) "s" "2.000s" (Time_ns.to_string (Time_ns.of_sec 2.0))

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 2)

let test_prng_float_range () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done;
  for _ = 1 to 1000 do
    let x = Prng.float_range rng 5.0 7.0 in
    Alcotest.(check bool) "in [5,7)" true (x >= 5.0 && x < 7.0)
  done

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:4 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen);
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_copy_replays () =
  let a = Prng.create ~seed:5 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create ~seed:6 in
  let b = Prng.split a in
  let x = Prng.bits64 a and y = Prng.bits64 b in
  Alcotest.(check bool) "split differs" true (not (Int64.equal x y))

let test_prng_shuffle_permutes () =
  let rng = Prng.create ~seed:7 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

(* Today's stream for seed 42, pinned so a change to the generator's
   state representation cannot drift a single draw. *)
let test_prng_golden_stream () =
  let draws g n = List.init n (fun _ -> Prng.bits64 g) in
  let r = Prng.create ~seed:42 in
  Alcotest.(check (list int64))
    "first 8 bits64"
    [
      -3425465463722317665L; 5881210131331364753L; -297100157724070516L;
      -5513075133950446152L; -3809169831026726285L; -7598242172641419651L;
      2312344417745909078L; -7284205130074240186L;
    ]
    (draws r 8);
  Alcotest.(check int64) "float" (Int64.bits_of_float 0x1.a9679ed784ae4p-3)
    (Int64.bits_of_float (Prng.float r));
  Alcotest.(check int) "int 1000" 234 (Prng.int r 1000);
  let s = Prng.split r in
  Alcotest.(check (list int64))
    "split stream"
    [ -7291636266145416776L; 7731169024499593719L; -1513777059292119380L; 265803321712101849L ]
    (draws s 4);
  let c = Prng.copy r in
  let next4 =
    [ -2766461413404756467L; -5902838741940724840L; 1282610804685344189L; 7435390023275438269L ]
  in
  Alcotest.(check (list int64)) "copy stream" next4 (draws c 4);
  Alcotest.(check (list int64)) "original after copy" next4 (draws r 4)

(* A draw allocates nothing.  [Prng.float] hands back a float, which a
   call that is not inlined (the dev profile compiles against opaque
   interfaces) boxes in 2 words; inlined, as in release builds, it is 0.
   [Prng.int] returns an immediate. *)
let test_prng_draw_alloc () =
  let r = Prng.create ~seed:1 in
  let n = 100_000 in
  let acc = ref 0.0 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc +. Prng.float r
  done;
  let per_float = (Gc.minor_words () -. before) /. float_of_int n in
  let k = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    k := !k + Prng.int r 1000
  done;
  let per_int = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool) "draws ran" true (!acc > 0.0 && !k > 0);
  Alcotest.(check bool)
    (Printf.sprintf "Prng.float allocates %.2f minor words (bound 2)" per_float)
    true (per_float <= 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "Prng.int allocates %.2f minor words (bound 0)" per_int)
    true (per_int <= 0.01)

(* ------------------------------------------------------------------ *)
(* Dist *)

let mean_of_draws d seed n =
  let rng = Prng.create ~seed in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Dist.draw d rng
  done;
  !acc /. float_of_int n

let test_dist_constant () =
  check_float "constant" 4.2 (mean_of_draws (Dist.Constant 4.2) 1 10)

let test_dist_means_match_analytic () =
  let cases =
    [
      Dist.Uniform (2.0, 6.0);
      Dist.Exponential 13.0;
      Dist.Erlang { k = 3; mean = 9.0 };
      Dist.Lognormal { mu = 1.0; sigma = 0.5 };
      Dist.Pareto { scale = 2.0; shape = 3.0 };
      Dist.Mixture [ (1.0, Dist.Constant 2.0); (3.0, Dist.Constant 6.0) ];
      Dist.Shifted (5.0, Dist.Exponential 2.0);
    ]
  in
  List.iteri
    (fun i d ->
      let analytic = Dist.mean d in
      let empirical = mean_of_draws d (100 + i) 60_000 in
      let tol = 0.05 *. analytic in
      Alcotest.(check bool)
        (Printf.sprintf "case %d: |%g - %g| < %g" i empirical analytic tol)
        true
        (Float.abs (empirical -. analytic) < tol))
    cases

let test_dist_non_negative =
  QCheck.Test.make ~name:"draws are non-negative" ~count:500
    QCheck.(pair small_int (float_range 0.1 50.0))
    (fun (seed, mean) ->
      let rng = Prng.create ~seed in
      let d =
        Dist.Mixture [ (1.0, Dist.Exponential mean); (1.0, Dist.Uniform (-5.0, 5.0)) ]
      in
      Dist.draw d rng >= 0.0)

let test_dist_pareto_infinite_mean () =
  Alcotest.(check bool) "shape<=1 -> infinite mean" true
    (Float.is_integer (Dist.mean (Dist.Pareto { scale = 1.0; shape = 0.9 }))
     = Float.is_integer infinity
    && Dist.mean (Dist.Pareto { scale = 1.0; shape = 0.9 }) = infinity)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let at us tag = Engine.schedule_at e (Time_ns.of_us us) (fun () -> log := tag :: !log) in
  at 30.0 "c";
  at 10.0 "a";
  at 20.0 "b";
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int64) "clock at last event" (Time_ns.of_us 30.0) (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  let t = Time_ns.of_us 5.0 in
  List.iter
    (fun tag -> Engine.schedule_at e t (fun () -> log := tag :: !log))
    [ "1"; "2"; "3" ];
  Engine.run e;
  Alcotest.(check (list string)) "insertion order among ties" [ "1"; "2"; "3" ] (List.rev !log)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule_at e (Time_ns.of_us (float_of_int i)) (fun () -> incr count)
  done;
  Engine.run_until e (Time_ns.of_us 5.0);
  Alcotest.(check int) "five fired" 5 !count;
  Alcotest.(check int64) "clock = limit" (Time_ns.of_us 5.0) (Engine.now e);
  Engine.run_until e (Time_ns.of_us 100.0);
  Alcotest.(check int) "rest fired" 10 !count;
  Alcotest.(check int64) "clock = later limit" (Time_ns.of_us 100.0) (Engine.now e)

let test_engine_schedule_from_handler () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e (Time_ns.of_us 1.0) (fun () ->
      log := "outer" :: !log;
      Engine.schedule_after e 0L (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested events run" [ "outer"; "inner" ] (List.rev !log)

let test_engine_past_clamped () =
  let e = Engine.create () in
  Engine.schedule_at e (Time_ns.of_us 10.0) (fun () -> ());
  Engine.run e;
  let fired_at = ref Time_ns.zero in
  Engine.schedule_at e (Time_ns.of_us 1.0) (fun () -> fired_at := Engine.now e);
  Engine.run e;
  Alcotest.(check int64) "clamped to now" (Time_ns.of_us 10.0) !fired_at

(* The determinism contract (engine.mli): FIFO among simultaneous
   events must hold even when handlers insert more events at the
   current instant — insertion order is the only tie-breaker. *)
let test_engine_fifo_ties_with_handler_inserts () =
  let e = Engine.create () in
  let log = ref [] in
  let t = Time_ns.of_us 5.0 in
  Engine.schedule_at e t (fun () ->
      log := "a" :: !log;
      (* Same-instant insert: runs after the already-queued ties. *)
      Engine.schedule_at e t (fun () -> log := "a2" :: !log));
  Engine.schedule_at e t (fun () -> log := "b" :: !log);
  Engine.schedule_at e t (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string))
    "handler-inserted tie runs last, in insertion order" [ "a"; "b"; "c"; "a2" ]
    (List.rev !log);
  Alcotest.(check int64) "clock did not advance past the tie" t (Engine.now e)

(* Scheduling in the past from inside a handler clamps to the current
   instant: the event runs at [now], and observed time never moves
   backwards. *)
let test_engine_past_clamp_in_handler () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.schedule_at e (Time_ns.of_us 10.0) (fun () ->
      times := Engine.now e :: !times;
      Engine.schedule_at e (Time_ns.of_us 2.0) (fun () -> times := Engine.now e :: !times));
  Engine.run e;
  (match List.rev !times with
  | [ outer; clamped ] ->
    Alcotest.(check int64) "outer at 10us" (Time_ns.of_us 10.0) outer;
    Alcotest.(check int64) "past event clamped to now" (Time_ns.of_us 10.0) clamped
  | _ -> Alcotest.fail "expected exactly two events");
  Alcotest.(check int64) "clock stayed at 10us" (Time_ns.of_us 10.0) (Engine.now e)

(* The whole contract at once: two engine runs driven by the same Prng
   seed produce identical event sequences (ids and timestamps), even
   with coarse timestamps forcing many FIFO ties and handlers drawing
   from the stream / spawning recursively. *)
let engine_replay_run seed =
  let rng = Prng.create ~seed in
  let e = Engine.create () in
  let log = ref [] in
  let next_id = ref 0 in
  let rec spawn depth =
    let id = !next_id in
    incr next_id;
    (* Whole-microsecond delays from a tiny range: collisions abound. *)
    let delay = Time_ns.of_us (float_of_int (Prng.int rng 20)) in
    Engine.schedule_after e delay (fun () ->
        log := (id, Engine.now e) :: !log;
        if depth > 0 && Prng.float rng < 0.7 then begin
          spawn (depth - 1);
          if Prng.bool rng then spawn (depth - 1)
        end)
  in
  for _ = 1 to 20 do
    spawn 3
  done;
  Engine.run e;
  List.rev !log

let test_engine_replay_deterministic =
  QCheck.Test.make ~name:"same seed => identical event sequence" ~count:50 QCheck.small_int
    (fun seed ->
      let a = engine_replay_run seed and b = engine_replay_run seed in
      List.length a > 20 && a = b)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_online_moments () =
  let o = Stats.Online.create () in
  List.iter (Stats.Online.add o) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.Online.count o);
  check_float_eps 1e-9 "mean" 5.0 (Stats.Online.mean o);
  check_float_eps 1e-9 "variance" (32.0 /. 7.0) (Stats.Online.variance o);
  check_float "min" 2.0 (Stats.Online.min o);
  check_float "max" 9.0 (Stats.Online.max o);
  check_float "sum" 40.0 (Stats.Online.sum o)

let test_online_merge () =
  let xs = List.init 100 (fun i -> float_of_int i *. 0.37) in
  let a = Stats.Online.create () and b = Stats.Online.create () and full = Stats.Online.create () in
  List.iteri (fun i x -> Stats.Online.add (if i mod 2 = 0 then a else b) x; Stats.Online.add full x) xs;
  let merged = Stats.Online.merge a b in
  Alcotest.(check int) "count" (Stats.Online.count full) (Stats.Online.count merged);
  check_float_eps 1e-9 "mean" (Stats.Online.mean full) (Stats.Online.mean merged);
  check_float_eps 1e-6 "variance" (Stats.Online.variance full) (Stats.Online.variance merged)

let test_sample_percentiles () =
  let s = Stats.Sample.create () in
  for i = 1 to 101 do
    Stats.Sample.add s (float_of_int i)
  done;
  check_float "median" 51.0 (Stats.Sample.median s);
  check_float "p0" 1.0 (Stats.Sample.percentile s 0.0);
  check_float "p100" 101.0 (Stats.Sample.percentile s 100.0);
  check_float "p25" 26.0 (Stats.Sample.percentile s 25.0)

let test_sample_fraction_above () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "above 2" 0.5 (Stats.Sample.fraction_above s 2.0);
  check_float "above 0" 1.0 (Stats.Sample.fraction_above s 0.0);
  check_float "above 4" 0.0 (Stats.Sample.fraction_above s 4.0);
  check_float "empty" 0.0 (Stats.Sample.fraction_above (Stats.Sample.create ()) 1.0)

(* Boundary cases: percentile at the extremes, fraction_above at exact
   observation values, and the degenerate single-element sample. *)
let test_sample_boundary_cases () =
  let one = Stats.Sample.create () in
  Stats.Sample.add one 7.5;
  check_float "p0 of one" 7.5 (Stats.Sample.percentile one 0.0);
  check_float "p100 of one" 7.5 (Stats.Sample.percentile one 100.0);
  check_float "p50 of one" 7.5 (Stats.Sample.percentile one 50.0);
  check_float "above just below" 1.0 (Stats.Sample.fraction_above one 7.4999);
  check_float "above itself (strict)" 0.0 (Stats.Sample.fraction_above one 7.5);
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 10.0; 20.0; 20.0; 30.0 ];
  check_float "p0 is the min" 10.0 (Stats.Sample.percentile s 0.0);
  check_float "p100 is the max" 30.0 (Stats.Sample.percentile s 100.0);
  check_float "above duplicate value" 0.25 (Stats.Sample.fraction_above s 20.0);
  check_float "above below-min" 1.0 (Stats.Sample.fraction_above s 5.0);
  check_float "above above-max" 0.0 (Stats.Sample.fraction_above s 31.0)

let test_sample_clear () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 1.0; 2.0; 3.0 ];
  Stats.Sample.clear s;
  Alcotest.(check int) "count 0" 0 (Stats.Sample.count s);
  check_float "empty fraction" 0.0 (Stats.Sample.fraction_above s 0.0);
  Stats.Sample.add s 9.0;
  Alcotest.(check int) "count after re-add" 1 (Stats.Sample.count s);
  check_float "median after re-add" 9.0 (Stats.Sample.median s)

let test_sample_matches_online =
  QCheck.Test.make ~name:"Sample mean/stddev = Online mean/stddev" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.Sample.create () and o = Stats.Online.create () in
      List.iter (fun x -> Stats.Sample.add s x; Stats.Online.add o x) xs;
      Float.abs (Stats.Sample.mean s -. Stats.Online.mean o) < 1e-9
      && Float.abs (Stats.Sample.stddev s -. Stats.Online.stddev o) < 1e-9)

let test_sample_sorted_cached_after_add () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 3.0; 1.0 ];
  check_float "median 2" 2.0 (Stats.Sample.median s);
  Stats.Sample.add s 100.0;
  check_float "median updates after add" 3.0 (Stats.Sample.median s)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.7; 9.9; 10.0; 25.0; -1.0 ];
  Alcotest.(check int) "count" 7 (Histogram.count h);
  Alcotest.(check int) "bin 0 excludes x < lo" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow_count h);
  Alcotest.(check int) "bin 1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Histogram.bin_count h 9);
  Alcotest.(check int) "overflow" 2 (Histogram.bin_count h 10)

let test_histogram_cdf () =
  let h = Histogram.create ~lo:0.0 ~hi:100.0 ~bins:100 in
  for i = 0 to 99 do
    Histogram.add h (float_of_int i +. 0.5)
  done;
  check_float_eps 1e-9 "cdf at 50" 0.5 (Histogram.cdf_at h 50.0);
  check_float_eps 1e-9 "cdf at 100" 1.0 (Histogram.cdf_at h 100.0);
  let pts = Histogram.cdf_points h in
  Alcotest.(check int) "points = bins+2 (underflow + bins + overflow)" 102 (List.length pts);
  let last_y = snd (List.nth pts 101) in
  check_float_eps 1e-9 "cdf reaches 1" 1.0 last_y

(* Regression: values below [lo] used to be folded into bin 0, which
   inflated the first CDF step; they must go to a dedicated underflow
   bucket that the CDF only counts at or above [lo]. *)
let test_histogram_underflow () =
  let h = Histogram.create ~lo:10.0 ~hi:20.0 ~bins:10 in
  List.iter (Histogram.add h) [ -5.0; 0.0; 9.99; 10.5; 19.0; 25.0 ];
  Alcotest.(check int) "count includes out-of-range" 6 (Histogram.count h);
  Alcotest.(check int) "underflow holds x < lo" 3 (Histogram.underflow_count h);
  Alcotest.(check int) "bin 0 holds only in-range values" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "overflow" 1 (Histogram.bin_count h 10);
  (* Below lo the in-range CDF contributes nothing... *)
  check_float_eps 1e-9 "cdf below lo" 0.0 (Histogram.cdf_at h 9.0);
  (* ...at lo the whole underflow bucket is <= x... *)
  check_float_eps 1e-9 "cdf at lo counts underflow" 0.5 (Histogram.cdf_at h 10.0);
  (* ...and the first in-range step is underflow + bin 0, not doubled. *)
  check_float_eps 1e-9 "cdf after bin 0" (4.0 /. 6.0) (Histogram.cdf_at h 11.0);
  let pts = Histogram.cdf_points h in
  let x0, y0 = List.hd pts in
  check_float_eps 1e-9 "first point sits at lo" 10.0 x0;
  check_float_eps 1e-9 "first point is the underflow fraction" 0.5 y0;
  check_float_eps 1e-9 "last point reaches 1" 1.0 (snd (List.nth pts (List.length pts - 1)))

let test_histogram_render_smoke () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histogram.add h) [ 1.0; 2.0; 3.0 ];
  let out = Histogram.render_ascii ~width:20 ~height:5 ~series:[ ("x", h) ] () in
  Alcotest.(check bool) "mentions legend" true
    (String.length out > 0
    && String.split_on_char '\n' out |> List.exists (fun l -> String.trim l = "* x"))

let test_histogram_invalid_args () =
  Alcotest.check_raises "bins<=0" (Invalid_argument "Histogram.create: bins must be positive")
    (fun () -> ignore (Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0));
  Alcotest.check_raises "hi<=lo" (Invalid_argument "Histogram.create: hi must exceed lo")
    (fun () -> ignore (Histogram.create ~lo:1.0 ~hi:1.0 ~bins:4))

(* ------------------------------------------------------------------ *)
(* Series *)

let test_series_windowed_medians () =
  let s = Series.create () in
  (* Window 1: 1,2,3 at t=0..0.2ms; window 2: 10,20 at t=1.1,1.2ms. *)
  Series.add s Time_ns.zero 1.0;
  Series.add s (Time_ns.of_ms 0.1) 3.0;
  Series.add s (Time_ns.of_ms 0.2) 2.0;
  Series.add s (Time_ns.of_ms 1.1) 10.0;
  Series.add s (Time_ns.of_ms 1.2) 20.0;
  let ms = Series.windowed_medians s ~window:(Time_ns.of_ms 1.0) in
  Alcotest.(check int) "two windows" 2 (List.length ms);
  check_float "median w1" 2.0 (snd (List.nth ms 0));
  check_float "median w2" 15.0 (snd (List.nth ms 1));
  let means = Series.windowed_means s ~window:(Time_ns.of_ms 1.0) in
  check_float "mean w1" 2.0 (snd (List.nth means 0))

let test_series_rejects_out_of_order () =
  let s = Series.create () in
  Series.add s (Time_ns.of_ms 1.0) 1.0;
  Alcotest.check_raises "non-monotone"
    (Invalid_argument "Series.add: timestamps must be non-decreasing") (fun () ->
      Series.add s Time_ns.zero 2.0)

let test_series_empty_windows_skipped () =
  let s = Series.create () in
  Series.add s Time_ns.zero 1.0;
  Series.add s (Time_ns.of_ms 5.0) 9.0;
  let ms = Series.windowed_medians s ~window:(Time_ns.of_ms 1.0) in
  Alcotest.(check int) "only non-empty windows" 2 (List.length ms)

(* ------------------------------------------------------------------ *)
(* Tablefmt *)

let test_tablefmt_renders () =
  let t = Tablefmt.create ~title:"T" ~columns:[ ("a", Tablefmt.Left); ("b", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "x"; "1" ];
  Tablefmt.add_rule t;
  Tablefmt.add_row t [ "yy"; "22" ];
  let out = Tablefmt.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0 && String.sub out 0 1 = "T");
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' out |> List.exists (fun l -> l = "| yy | 22 |"))

let test_tablefmt_arity_checked () =
  let t = Tablefmt.create ~title:"T" ~columns:[ ("a", Tablefmt.Left) ] in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Tablefmt.add_row: wrong number of cells")
    (fun () -> Tablefmt.add_row t [ "x"; "y" ])

let test_tablefmt_cells () =
  Alcotest.(check string) "float" "3.14" (Tablefmt.cell_f 3.14159);
  Alcotest.(check string) "float decimals" "3.1" (Tablefmt.cell_f ~decimals:1 3.14159);
  Alcotest.(check string) "nan" "-" (Tablefmt.cell_f nan);
  Alcotest.(check string) "int" "42" (Tablefmt.cell_i 42);
  Alcotest.(check string) "pct" "25.3%" (Tablefmt.cell_pct 0.253)

(* ------------------------------------------------------------------ *)
(* Additional edge cases *)

let test_engine_limit_before_first_event () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule_at e (Time_ns.of_us 100.0) (fun () -> fired := true);
  Engine.run_until e (Time_ns.of_us 50.0);
  Alcotest.(check bool) "not yet" false !fired;
  Alcotest.(check int64) "clock at limit" (Time_ns.of_us 50.0) (Engine.now e);
  Alcotest.(check int) "still pending" 1 (Engine.pending e)

let test_engine_negative_after_clamped () =
  let e = Engine.create () in
  let at = ref None in
  Engine.schedule_after e (-5L) (fun () -> at := Some (Engine.now e));
  Engine.run e;
  Alcotest.(check (option int64)) "clamped to now" (Some Time_ns.zero) !at

let test_dist_span_is_us () =
  let rng = Prng.create ~seed:1 in
  Alcotest.(check int64) "span interprets us" (Time_ns.of_us 42.0)
    (Dist.span (Dist.Constant 42.0) rng)

let test_dist_empty_mixture_raises () =
  let rng = Prng.create ~seed:1 in
  Alcotest.check_raises "empty mixture" (Invalid_argument "Dist.draw: empty mixture")
    (fun () -> ignore (Dist.draw (Dist.Mixture []) rng))

let test_dist_shifted_negative_clamps () =
  let rng = Prng.create ~seed:1 in
  Alcotest.(check (float 1e-9)) "clamped at zero" 0.0
    (Dist.draw (Dist.Shifted (-10.0, Dist.Constant 1.0)) rng)

let test_histogram_cdf_points_monotone =
  QCheck.Test.make ~name:"cdf points are monotone in [0,1]" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range (-50.) 250.))
    (fun xs ->
      let h = Histogram.create ~lo:0.0 ~hi:100.0 ~bins:20 in
      List.iter (Histogram.add h) xs;
      let pts = List.map snd (Histogram.cdf_points h) in
      let rec mono = function
        | a :: b :: rest -> a <= b +. 1e-12 && mono (b :: rest)
        | _ -> true
      in
      mono pts
      && List.for_all (fun y -> y >= 0.0 && y <= 1.0 +. 1e-12) pts
      && Float.abs (List.nth pts (List.length pts - 1) -. 1.0) < 1e-9)

let test_stats_single_point () =
  let s = Stats.Sample.create () in
  Stats.Sample.add s 5.0;
  Alcotest.(check (float 1e-9)) "median of one" 5.0 (Stats.Sample.median s);
  Alcotest.(check (float 1e-9)) "p99 of one" 5.0 (Stats.Sample.percentile s 99.0);
  Alcotest.(check bool) "stddev of one is nan" true (Float.is_nan (Stats.Sample.stddev s))

let test_stats_percentile_errors () =
  let s = Stats.Sample.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Stats.Sample.percentile: empty sample")
    (fun () -> ignore (Stats.Sample.percentile s 50.0));
  Stats.Sample.add s 1.0;
  Alcotest.check_raises "out of range" (Invalid_argument "Stats.Sample.percentile: p out of range")
    (fun () -> ignore (Stats.Sample.percentile s 101.0))

let test_tablefmt_right_alignment () =
  let t = Tablefmt.create ~title:"T" ~columns:[ ("n", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "1" ];
  Tablefmt.add_row t [ "100" ];
  let lines = String.split_on_char '\n' (Tablefmt.render t) in
  Alcotest.(check bool) "right-justified" true (List.exists (fun l -> l = "|   1 |") lines)

let test_prng_float_range_invalid () =
  let rng = Prng.create ~seed:1 in
  Alcotest.check_raises "hi < lo" (Invalid_argument "Prng.float_range: hi < lo") (fun () ->
      ignore (Prng.float_range rng 2.0 1.0))

(* ------------------------------------------------------------------ *)
(* Eventq (the specialized 4-ary int-keyed heap behind Engine) *)

let test_eventq_pops_sorted =
  QCheck.Test.make ~name:"eventq pops in (time, seq) order" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (int_range 0 50))
    (fun times ->
      let q = Eventq.create ~capacity:4 () in
      List.iteri (fun seq time -> Eventq.push q ~time ~seq ~payload:(seq * 2)) times;
      let expected =
        List.sort compare (List.mapi (fun seq time -> (time, seq, seq * 2)) times)
      in
      Eventq.to_sorted q = expected)

let test_eventq_rebuild_keeps_subset =
  QCheck.Test.make ~name:"eventq rebuild keeps exactly the survivors" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 150) (pair (int_range 0 40) bool))
    (fun entries ->
      let q = Eventq.create ~capacity:4 () in
      List.iteri (fun seq (time, _) -> Eventq.push q ~time ~seq ~payload:seq) entries;
      (* Drop a few minima first so the survivors are a non-trivial
         sub-heap, then rebuild keeping the [true]-flagged seqs. *)
      let drops = List.length entries / 4 in
      let dropped = ref [] in
      for _ = 1 to drops do
        dropped := Eventq.min_seq q :: !dropped;
        Eventq.drop_min q
      done;
      let keep_flag = Array.of_list (List.map snd entries) in
      Eventq.rebuild q ~keep:(fun ~seq ~payload:_ -> keep_flag.(seq));
      let expected =
        List.mapi (fun seq (time, keep) -> (time, seq, keep)) entries
        |> List.filter (fun (_, seq, keep) -> keep && not (List.mem seq !dropped))
        |> List.map (fun (time, seq, _) -> (time, seq, seq))
        |> List.sort compare
      in
      Eventq.to_sorted q = expected)

(* ------------------------------------------------------------------ *)
(* Engine vs reference model *)

(* What a timer's handler does after logging, besides nothing: re-arm
   or disarm a timer, itself or another.  Set when the timer is armed
   from the top level and consumed by the occurrence that runs it, so
   handler chains end. *)
type reaction =
  | Nothing
  | Rearm of int * int  (* timer, delay *)
  | Disarm of int

(* Obviously-correct reference: a sorted association list of
   (time, tag) fired in lexicographic (time, tag) order — tags are
   issued in scheduling order, so the tie-break doubles as FIFO.  A
   timer is a slot holding the tag of its pending occurrence: arming
   drops the old tag and schedules a new one, disarming drops it, and
   firing clears the slot before the timer's reaction runs. *)
module Engine_model = struct
  type t = {
    mutable events : (int * int) list;  (* (time, tag), sorted *)
    mutable clock : int;
    mutable next_tag : int;
    timers : int option array;  (* each timer's pending tag *)
    reactions : reaction array;
  }

  let create ~timers =
    {
      events = [];
      clock = 0;
      next_tag = 0;
      timers = Array.make timers None;
      reactions = Array.make timers Nothing;
    }

  let schedule_at m time =
    let time = if time < m.clock then m.clock else time in
    let tag = m.next_tag in
    m.next_tag <- tag + 1;
    m.events <- List.sort compare ((time, tag) :: m.events)

  let disarm m i =
    Option.iter (fun tag -> m.events <- List.filter (fun (_, g) -> g <> tag) m.events) m.timers.(i);
    m.timers.(i) <- None

  let arm_after m i d =
    disarm m i;
    m.timers.(i) <- Some m.next_tag;
    schedule_at m (m.clock + max d 0)

  let fire m (time, tag) log =
    if time > m.clock then m.clock <- time;
    log := tag :: !log;
    Array.iteri
      (fun i pending ->
        if pending = Some tag then begin
          m.timers.(i) <- None;
          let r = m.reactions.(i) in
          m.reactions.(i) <- Nothing;
          match r with
          | Nothing -> ()
          | Rearm (j, d) -> arm_after m j d
          | Disarm j -> disarm m j
        end)
      m.timers

  let step m log =
    match m.events with
    | [] -> false
    | ev :: rest ->
      m.events <- rest;
      fire m ev log;
      true

  let run_until m limit log =
    let rec loop () =
      match m.events with
      | ((time, _) as ev) :: rest when time <= limit ->
        m.events <- rest;
        fire m ev log;
        loop ()
      | _ -> ()
    in
    loop ();
    if limit > m.clock then m.clock <- limit
end

let test_engine_matches_model =
  (* Random op traces (closure and registered-kind events at arbitrary
     absolute times including the past, arming eight timers with delays
     that may be negative, disarming them, step, run_until) drive the
     real engine and the model in lockstep; fire order, clock and
     pending must agree throughout.  An armed timer's handler may then
     re-arm or disarm itself or another timer.  Each side issues its
     own tags in scheduling order, so equal logs mean equal orders. *)
  QCheck.Test.make ~name:"engine matches reference model" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 120)
        (triple (int_range 0 13) (int_range 0 400) (int_range 0 10_000)))
    (fun ops ->
      let e = Engine.create () in
      let n_timers = 8 in
      let m = Engine_model.create ~timers:n_timers in
      let real_log = ref [] and model_log = ref [] in
      let next_tag = ref 0 in
      let fresh () =
        let tag = !next_tag in
        incr next_tag;
        tag
      in
      let k = Engine.register e ~name:"k" (fun tag -> real_log := tag :: !real_log) in
      (* A timer's payload is its index; its handler logs the tag of
         the occurrence it was last armed with, then runs its
         reaction. *)
      let timers = Array.make n_timers Engine.null_timer in
      let armed_tag = Array.make n_timers (-1) in
      let reactions = Array.make n_timers Nothing in
      let arm i d =
        armed_tag.(i) <- fresh ();
        Engine.arm_after e timers.(i) d
      in
      let tk =
        Engine.register e ~name:"tk" (fun i ->
            real_log := armed_tag.(i) :: !real_log;
            let r = reactions.(i) in
            reactions.(i) <- Nothing;
            match r with
            | Nothing -> ()
            | Rearm (j, d) -> arm j d
            | Disarm j -> Engine.disarm e timers.(j))
      in
      Array.iteri (fun i _ -> timers.(i) <- Engine.timer e tk ~payload:i) timers;
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (op, v, w) ->
          if !ok then begin
            let i = w mod n_timers in
            (match op with
            | 0 | 1 | 2 ->
              let tag = fresh () in
              Engine.schedule_at e (Int64.of_int v) (fun () -> real_log := tag :: !real_log);
              Engine_model.schedule_at m v
            | 3 | 4 ->
              Engine.post_at_i e v k (fresh ());
              Engine_model.schedule_at m v
            | 5 | 6 | 7 -> check (Engine.step e = Engine_model.step m model_log)
            | 8 ->
              Engine.run_until e (Int64.of_int v);
              Engine_model.run_until m v model_log
            | 9 | 10 | 11 ->
              let j = (i + 1 + (w / 48 mod 7)) mod n_timers and d = (w / 48 mod 40) - 10 in
              let r =
                match w / 8 mod 6 with
                | 2 -> Rearm (i, d)
                | 3 -> Disarm i
                | 4 -> Rearm (j, d)
                | 5 -> Disarm j
                | _ -> Nothing
              in
              reactions.(i) <- r;
              m.Engine_model.reactions.(i) <- r;
              arm i (v - 100);
              Engine_model.arm_after m i (v - 100)
            | _ ->
              Engine.disarm e timers.(i);
              Engine_model.disarm m i);
            check (Engine.now e = Int64.of_int m.Engine_model.clock);
            check (Engine.pending e = List.length m.Engine_model.events)
          end)
        ops;
      (* Drain both and compare complete fire orders. *)
      while Engine.step e do () done;
      while Engine_model.step m model_log do () done;
      !ok && !real_log = !model_log)

(* Registered kinds: an event is a kind and an int payload, dispatched
   in (time, seq) order among closure events, with per-kind run counts. *)
let test_engine_kinds () =
  let e = Engine.create () in
  let log = ref [] in
  let a = Engine.register e ~name:"a" (fun p -> log := Printf.sprintf "a%d" p :: !log) in
  let b = Engine.register e ~name:"b" (fun p -> log := Printf.sprintf "b%d" p :: !log) in
  Engine.post_at_i e 20 a 1;
  Engine.schedule_at e 10L (fun () -> log := "c" :: !log);
  Engine.post_after_i e 20 b 2;
  Engine.post_after_i e (-5) b 4;
  Engine.run e;
  Alcotest.(check (list string)) "time, then scheduling order" [ "b4"; "c"; "a1"; "b2" ]
    (List.rev !log);
  Alcotest.(check (list (pair string int))) "runs per kind"
    [ ("closure", 1); ("a", 1); ("b", 2) ]
    (Engine.kind_runs e);
  Engine.post_at_i e 5 a 5;
  Engine.run e;
  Alcotest.(check string) "past clamped to now" "a5" (List.hd !log);
  Alcotest.(check int64) "clock unchanged" 20L (Engine.now e);
  Alcotest.check_raises "null kind rejected" (Invalid_argument "Engine.post: unknown kind")
    (fun () -> Engine.post_at_i e 40 Engine.null_kind 0)

(* The clock is an int: N registered-kind events at N distinct instants
   advance it N times and allocate nothing (the engine boxed its clock,
   3 words, at every advance before).  [now] boxes on demand: it reads
   the instant of the last advance, and calls at one instant share one
   box. *)
let test_engine_clock_unboxed () =
  let e = Engine.create () in
  let n = 10_000 in
  let runs = ref 0 and last = ref 0 in
  let k =
    Engine.register e ~name:"tick" (fun _ ->
        incr runs;
        last := Engine.now_i e)
  in
  let post_all base =
    for i = 1 to n do
      Engine.post_at_i e (base + (i * 7)) k i
    done
  in
  post_all 0;
  Engine.run e;
  (* The slot pool and heap have grown to N: the second round reuses them. *)
  post_all (n * 7);
  let before = Gc.minor_words () in
  Engine.run e;
  let per = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check (float 0.0)) "minor words per event" 0.0 per;
  Alcotest.(check int) "every event ran" (2 * n) !runs;
  Alcotest.(check int) "last event at its instant" (2 * n * 7) !last;
  let at = ref (2 * n * 7) in
  for i = 1 to 5 do
    Engine.post_after_i e (i * 11) k 0;
    ignore (Engine.step e : bool);
    at := !at + (i * 11);
    Alcotest.(check int64) "now reads the last advance" (Int64.of_int !at) (Engine.now e);
    Alcotest.(check bool) "one box per instant" true (Engine.now e == Engine.now e)
  done;
  let limit = 1_000_000L in
  Engine.run_until e limit;
  Alcotest.(check int64) "run_until sets the clock" limit (Engine.now e)

(* A boxed time past the int range saturates at [max_int] ns, the end
   of time, instead of wrapping into the past: [schedule_at] 2^62 and
   [schedule_after] [Int64.max_int] land at [max_int], and [run_until]
   [Int64.max_int] runs every event, those at [max_int] included. *)
let test_engine_edge_times () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now_i e) :: !log in
  Engine.run_until e (Time_ns.of_ms 1.0);
  Engine.schedule_at e 0x4000_0000_0000_0000L (note "at 2^62");
  Engine.schedule_after e Int64.max_int (note "after max");
  Engine.schedule_at e (Time_ns.of_ms 2.0) (note "at 2 ms");
  Engine.run_until e (Time_ns.of_sec 1.0);
  Alcotest.(check (list (pair string int))) "only the 2 ms event by 1 s" [ ("at 2 ms", 2_000_000) ]
    !log;
  Engine.run_until e Int64.max_int;
  Alcotest.(check (list (pair string int)))
    "far events run at the end of time, in order"
    [ ("after max", max_int); ("at 2^62", max_int); ("at 2 ms", 2_000_000) ]
    !log;
  Alcotest.(check int) "clock at the end of time" max_int (Engine.now_i e);
  Alcotest.(check int) "nothing left" 0 (Engine.pending e)

exception Boom

(* The raise contract: an event whose handler raises counts as run and
   leaves the queue consistent (pending), and the next [run_until]
   resumes the remaining events in (time, seq)
   order.  Checked for a registered kind and for a closure event. *)
let test_engine_raise_contract () =
  List.iter
    (fun registered ->
      let what = if registered then "kind" else "closure" in
      let e = Engine.create () in
      let log = ref [] in
      let k =
        Engine.register e ~name:"k" (fun p -> if p < 0 then raise Boom else log := p :: !log)
      in
      let post at p = Engine.post_at_i e at k p in
      post 10 1;
      Engine.schedule_at e 15L (fun () -> log := 3 :: !log);
      if registered then post 20 (-1) else Engine.schedule_at e 20L (fun () -> raise Boom);
      post 20 2;
      post 30 4;
      Alcotest.check_raises (what ^ ": the raise escapes run_until") Boom (fun () ->
          Engine.run_until e 100L);
      Alcotest.(check (list int)) (what ^ ": events before the raise ran") [ 1; 3 ]
        (List.rev !log);
      Alcotest.(check int64) (what ^ ": clock at the raising event") 20L (Engine.now e);
      Alcotest.(check int) (what ^ ": pending") 2 (Engine.pending e);
      Engine.run_until e 100L;
      Alcotest.(check (list int)) (what ^ ": resumed in order") [ 1; 3; 2; 4 ] (List.rev !log);
      Alcotest.(check int) (what ^ ": drained") 0 (Engine.pending e);
      Alcotest.(check int64) (what ^ ": clock at the limit") 100L (Engine.now e);
      let runs = Engine.kind_runs e in
      Alcotest.(check (pair int int)) (what ^ ": the raising event counts as run")
        (if registered then (1, 4) else (2, 3))
        (List.assoc "closure" runs, List.assoc "k" runs))
    [ true; false ]

(* Engine timers: a kind with a fixed payload and at most one pending
   occurrence, kept beside the heap. *)
let timer_fixture () =
  let e = Engine.create () in
  let log = ref [] in
  let k = Engine.register e ~name:"k" (fun p -> log := (p, Engine.now_i e) :: !log) in
  (e, log, k)

(* An occurrence's seq is taken when it is armed, so a timer and a heap
   event due at one instant fire in the order they were scheduled. *)
let test_timer_ties_in_seq_order () =
  let e, log, k = timer_fixture () in
  let tm = Engine.timer e k ~payload:0 in
  Engine.post_at_i e 10 k 1;
  Engine.arm_after e tm 10;
  Engine.post_at_i e 10 k 2;
  Engine.schedule_at e 10L (fun () -> log := (3, Engine.now_i e) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair int int))) "scheduling order at one instant"
    [ (1, 10); (0, 10); (2, 10); (3, 10) ]
    (List.rev !log);
  Alcotest.(check (list (pair string int))) "the timer runs its kind"
    [ ("closure", 1); ("k", 3) ]
    (Engine.kind_runs e)

let test_timer_negative_delay () =
  let e, log, k = timer_fixture () in
  let tm = Engine.timer e k ~payload:7 in
  Engine.run_until e 50L;
  Engine.arm_after e tm (-5);
  Engine.run_until e 50L;
  Alcotest.(check (list (pair int int))) "fires now" [ (7, 50) ] !log;
  Engine.arm_after e tm max_int;
  Engine.run_until e Int64.max_int;
  Alcotest.(check (pair int int)) "a far delay saturates at the end of time" (7, max_int)
    (List.hd !log)

let test_timer_rearm_replaces () =
  let e, log, k = timer_fixture () in
  let tm = Engine.timer e k ~payload:0 in
  Engine.arm_after e tm 10;
  Engine.arm_after e tm 30;
  Alcotest.(check int) "one occurrence pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list (pair int int))) "only the later occurrence" [ (0, 30) ] !log;
  log := [];
  Engine.arm_after e tm 30;
  Engine.arm_after e tm 5;
  Engine.run e;
  Alcotest.(check (list (pair int int))) "an earlier re-arm wins" [ (0, 35) ] !log

let test_timer_disarm_idempotent () =
  let e, log, k = timer_fixture () in
  let tm = Engine.timer e k ~payload:0 in
  Engine.disarm e tm;
  Alcotest.(check int) "disarming a fresh timer" 0 (Engine.pending e);
  Engine.arm_after e tm 10;
  Engine.disarm e tm;
  Engine.disarm e tm;
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list (pair int int))) "nothing fires" [] !log

(* An armed timer counts as pending, and stops counting once it fires. *)
let test_timer_pending () =
  let e, _, k = timer_fixture () in
  let tm = Engine.timer e k ~payload:0 in
  Engine.post_at_i e 20 k 1;
  Engine.arm_after e tm 10;
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  ignore (Engine.step e : bool);
  Alcotest.(check int) "after the timer fired" 1 (Engine.pending e)

(* The raise contract for timers: the timer is disarmed before its
   handler runs, so a raise leaves it disarmed, the count consistent and
   the loop resumable; the timer can be armed again. *)
let test_timer_raise () =
  let e = Engine.create () in
  let log = ref [] in
  let k = Engine.register e ~name:"k" (fun p -> if p < 0 then raise Boom else log := p :: !log) in
  let tm = Engine.timer e k ~payload:(-1) in
  Engine.post_at_i e 10 k 1;
  Engine.arm_after e tm 20;
  Engine.post_at_i e 30 k 3;
  Alcotest.check_raises "the raise escapes run_until" Boom (fun () -> Engine.run_until e 100L);
  Alcotest.(check int) "disarmed: only the later event pending" 1 (Engine.pending e);
  Alcotest.(check int64) "clock at the raising timer" 20L (Engine.now e);
  Engine.run_until e 100L;
  Alcotest.(check (list int)) "resumed in order" [ 1; 3 ] (List.rev !log);
  Engine.arm_after e tm 5;
  Alcotest.check_raises "re-armed, it fires again" Boom (fun () -> Engine.run e);
  Alcotest.(check int) "the raising timer counts as run" 4 (List.assoc "k" (Engine.kind_runs e))

let test_timer_unknown_kind () =
  let e = Engine.create () in
  let other = Engine.create () in
  let k = Engine.register other ~name:"k" ignore in
  Alcotest.check_raises "null kind" (Invalid_argument "Engine.timer: unknown kind") (fun () ->
      ignore (Engine.timer e Engine.null_kind ~payload:0 : Engine.timer));
  Alcotest.check_raises "a kind this engine never registered"
    (Invalid_argument "Engine.timer: unknown kind") (fun () ->
      ignore (Engine.timer e k ~payload:0 : Engine.timer))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "simcore"
    [
      ( "time_ns",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "float ranges" `Quick test_prng_float_range;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "copy replays" `Quick test_prng_copy_replays;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "golden stream (seed 42)" `Quick test_prng_golden_stream;
          Alcotest.test_case "draw allocation" `Quick test_prng_draw_alloc;
        ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_dist_constant;
          Alcotest.test_case "means match analytic" `Slow test_dist_means_match_analytic;
          Alcotest.test_case "pareto infinite mean" `Quick test_dist_pareto_infinite_mean;
          qc test_dist_non_negative;
        ] );
      ( "eventq",
        [
          qc test_eventq_pops_sorted;
          qc test_eventq_rebuild_keeps_subset;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "schedule from handler" `Quick test_engine_schedule_from_handler;
          Alcotest.test_case "past clamped to now" `Quick test_engine_past_clamped;
          Alcotest.test_case "fifo ties incl. handler inserts" `Quick
            test_engine_fifo_ties_with_handler_inserts;
          Alcotest.test_case "past clamp inside handler" `Quick test_engine_past_clamp_in_handler;
          Alcotest.test_case "registered kinds" `Quick test_engine_kinds;
          Alcotest.test_case "raising handler" `Quick test_engine_raise_contract;
          Alcotest.test_case "unboxed clock" `Quick test_engine_clock_unboxed;
          Alcotest.test_case "edge times saturate" `Quick test_engine_edge_times;
          Alcotest.test_case "timer ties in seq order" `Quick test_timer_ties_in_seq_order;
          Alcotest.test_case "timer negative delay" `Quick test_timer_negative_delay;
          Alcotest.test_case "timer re-arm replaces" `Quick test_timer_rearm_replaces;
          Alcotest.test_case "timer disarm twice" `Quick test_timer_disarm_idempotent;
          Alcotest.test_case "timer pending" `Quick test_timer_pending;
          Alcotest.test_case "timer raising handler" `Quick test_timer_raise;
          Alcotest.test_case "timer unknown kind" `Quick test_timer_unknown_kind;
          qc test_engine_replay_deterministic;
          qc test_engine_matches_model;
        ] );
      ( "stats",
        [
          Alcotest.test_case "online moments" `Quick test_online_moments;
          Alcotest.test_case "online merge" `Quick test_online_merge;
          Alcotest.test_case "percentiles" `Quick test_sample_percentiles;
          Alcotest.test_case "fraction above" `Quick test_sample_fraction_above;
          Alcotest.test_case "boundary cases" `Quick test_sample_boundary_cases;
          Alcotest.test_case "clear" `Quick test_sample_clear;
          Alcotest.test_case "sorted cache invalidation" `Quick test_sample_sorted_cached_after_add;
          qc test_sample_matches_online;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "cdf" `Quick test_histogram_cdf;
          Alcotest.test_case "underflow bucket" `Quick test_histogram_underflow;
          Alcotest.test_case "render smoke" `Quick test_histogram_render_smoke;
          Alcotest.test_case "invalid args" `Quick test_histogram_invalid_args;
        ] );
      ( "series",
        [
          Alcotest.test_case "windowed medians" `Quick test_series_windowed_medians;
          Alcotest.test_case "rejects out of order" `Quick test_series_rejects_out_of_order;
          Alcotest.test_case "empty windows skipped" `Quick test_series_empty_windows_skipped;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "renders" `Quick test_tablefmt_renders;
          Alcotest.test_case "arity checked" `Quick test_tablefmt_arity_checked;
          Alcotest.test_case "cell formatting" `Quick test_tablefmt_cells;
          Alcotest.test_case "right alignment" `Quick test_tablefmt_right_alignment;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "run_until before first event" `Quick
            test_engine_limit_before_first_event;
          Alcotest.test_case "negative schedule_after" `Quick test_engine_negative_after_clamped;
          Alcotest.test_case "dist span in us" `Quick test_dist_span_is_us;
          Alcotest.test_case "empty mixture raises" `Quick test_dist_empty_mixture_raises;
          Alcotest.test_case "shifted clamps" `Quick test_dist_shifted_negative_clamps;
          Alcotest.test_case "single-point stats" `Quick test_stats_single_point;
          Alcotest.test_case "percentile errors" `Quick test_stats_percentile_errors;
          Alcotest.test_case "float_range invalid" `Quick test_prng_float_range_invalid;
          qc test_histogram_cdf_points_monotone;
        ] );
    ]
