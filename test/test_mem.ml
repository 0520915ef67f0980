(* Memory-observatory tests: the analytic Timer_store.S.words contract
   against the runtime's own reachability walk, the census conservation
   semantics (live sources vs snapshots), the Bench_mem accounting
   helper, and the determinism contract — arming the observatory must
   leave experiment output byte-identical at any jobs count. *)

let us x = Time_ns.to_int (Time_ns.of_us x)
let cfg = Exp_config.quick

(* ------------------------------------------------------------------ *)
(* Analytic words vs Obj.reachable_words.

   [words] is computed from the store's own structure (array capacities,
   per-node costs) rather than a heap walk, so it stays cheap enough for
   bench hot paths.  It must still track reality: drive each store to a
   mixed live/cancelled population and require the analytic count to be
   within 30% of the words the GC can actually reach from the root.
   (Measured ratios are 0.95..1.00 across all four stores; 30% leaves
   room for allocator-policy differences, not for a broken formula.)
   The two slab-backed wheels are held to their exact count. *)

let test_words_vs_reachable () =
  List.iter
    (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      let handles =
        Array.init 2000 (fun i ->
            M.schedule t ~at:(us (10.0 +. float_of_int (i * 37 mod 50_000))) i)
      in
      Array.iteri (fun i h -> if i mod 5 = 0 then M.cancel t h) handles;
      let analytic = float_of_int (M.words t) in
      let reachable = float_of_int (Obj.reachable_words (Obj.repr t)) in
      let ratio = analytic /. reachable in
      Alcotest.(check bool)
        (Printf.sprintf "%s: analytic %g within 30%% of reachable %g (ratio %.3f)" M.name
           analytic reachable ratio)
        true
        (ratio > 0.7 && ratio < 1.3);
      (* A slab wheel's arrays are its whole footprint, so its count is
         exact but for shared empty-array atoms. *)
      if M.name = Timing_wheel.name || M.name = Pacing_wheel.name then
        Alcotest.(check bool)
          (Printf.sprintf "%s: analytic %g within 8 words of reachable %g" M.name analytic
             reachable)
          true
          (Float.abs (analytic -. reachable) <= 8.0);
      (* The analytic count must also dominate the live population: a
         store cannot hold n pending timers in fewer than n words. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: words %g >= pending %d" M.name analytic (M.pending t))
        true
        (analytic >= float_of_int (M.pending t)))
    Store_registry.all

(* ------------------------------------------------------------------ *)
(* Census conservation semantics: [register]ed live sources count
   toward the conservation invariant (attributed live <= GC live) and
   must hold it; [note]d snapshots are reporting-only — the measured
   memory may be dead by report time, so even an absurd note must not
   trip the invariant. *)

let test_census_conservation () =
  Memstats.reset_census ();
  Fun.protect ~finally:Memstats.reset_census (fun () ->
      let ballast = Array.make 4096 0 in
      Memstats.register
        ~path:[ "test"; "ballast" ]
        (fun () -> Array.length ballast + 1);
      Alcotest.(check bool) "live source conserves" true (Memstats.conservation_ok ());
      Alcotest.(check int) "live attribution = provider value" 4097
        (Memstats.live_attributed_words ());
      Memstats.note ~path:[ "test"; "snapshot" ] 1_000_000_000_000;
      Alcotest.(check bool) "note excluded from conservation" true
        (Memstats.conservation_ok ());
      Alcotest.(check int) "note excluded from live attribution" 4097
        (Memstats.live_attributed_words ());
      Alcotest.(check bool) "note included in attributed total" true
        (Memstats.attributed_words () > 1_000_000_000_000))

(* ------------------------------------------------------------------ *)
(* Bench_mem: deltas reflect the section's allocation and the result
   passes through untouched.  On OCaml 5 [Gc.quick_stat] counters only
   refresh at collection boundaries, so the section allocates several
   times the minor heap (~2M words against the 256k default) to
   guarantee the delta is visible. *)

let test_bench_mem_measure () =
  let r, d =
    Bench_mem.measure (fun () ->
        let acc = ref 0 in
        for i = 1 to 100_000 do
          acc := !acc + Array.length (Sys.opaque_identity (Array.make 18 i))
        done;
        !acc)
  in
  Alcotest.(check int) "result passes through" 1_800_000 r;
  Alcotest.(check bool) "minor delta sees the section's allocation" true
    (d.Bench_mem.d_minor_words >= 500_000.0);
  Alcotest.(check bool) "major alloc is non-negative" true (Bench_mem.major_alloc d >= 0.0);
  Alcotest.(check bool) "heap high-water >= heap size" true
    (d.Bench_mem.d_top_heap_words >= d.Bench_mem.d_heap_words)

(* ------------------------------------------------------------------ *)
(* Determinism: arming the observatory (census registration, heap
   samples) around an experiment must leave its rendered output
   byte-identical, and so must the jobs count. *)

let with_observatory f =
  Memstats.reset_census ();
  Memstats.reset_samples ();
  let ballast = Array.make 1024 0 in
  Memstats.register ~path:[ "test"; "ballast" ] (fun () -> Array.length ballast + 1);
  Memstats.sample ~label:"start";
  Fun.protect
    ~finally:(fun () ->
      Memstats.reset_census ();
      Memstats.reset_samples ())
    (fun () ->
      let r = f () in
      Memstats.sample ~label:"end";
      r)

let test_mem_output_invariance () =
  let saved = Runner.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Runner.set_default_jobs saved)
    (fun () ->
      let run ~jobs ~mem =
        Runner.set_default_jobs jobs;
        if mem then with_observatory (fun () -> Exp_sensitivity.run cfg)
        else Exp_sensitivity.run cfg
      in
      let want = run ~jobs:1 ~mem:false in
      Alcotest.(check string) "observatory off/on, jobs 1" want (run ~jobs:1 ~mem:true);
      Alcotest.(check string) "observatory off, jobs 4" want (run ~jobs:4 ~mem:false);
      Alcotest.(check string) "observatory on, jobs 4" want (run ~jobs:4 ~mem:true))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mem"
    [
      ( "words",
        [ Alcotest.test_case "analytic vs reachable (all stores)" `Quick test_words_vs_reachable ] );
      ( "census",
        [ Alcotest.test_case "conservation: live vs note" `Quick test_census_conservation ] );
      ( "bench_mem", [ Alcotest.test_case "measure deltas" `Quick test_bench_mem_measure ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical with --mem at jobs 1 and 4" `Quick
            test_mem_output_invariance;
        ] );
    ]
