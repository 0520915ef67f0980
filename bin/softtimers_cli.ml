(* Command-line front end: run any of the paper's experiments by id. *)

let experiments =
  [
    ("fig1", "Figure 1: soft-timer firing-window bounds", Exp_fig1.run);
    ("fig2-3", "Figures 2/3: hardware-timer base overhead", Exp_hw_overhead.run);
    ("soft-base", "Section 5.2: soft-timer base overhead", Exp_soft_base.run);
    ("table1", "Table 1 / Figure 4: trigger-interval distributions", Exp_trigger_dist.run);
    ("fig5", "Figure 5: windowed trigger-interval medians", Exp_trigger_windows.run);
    ("table2", "Table 2 / Figure 6: trigger sources", Exp_trigger_sources.run);
    ("table3", "Table 3: rate-based clocking overhead", Exp_rbc_overhead.run);
    ("table4-5", "Tables 4/5: rate-clocked transmission process", Exp_rbc_process.run);
    ("table6-7", "Tables 6/7: WAN transfer performance", Exp_rbc_wan.run);
    ("table8", "Table 8: network polling throughput", Exp_polling.run);
    ( "livelock",
      "Extension: receiver livelock (interrupts vs MR hybrid vs soft polling)",
      Exp_livelock.run );
    ( "sensitivity",
      "Extension: sensitivity of the headline results to the cost model",
      Exp_sensitivity.run );
    ( "pacer-scale",
      "Extension: million-flow rate-based clocking across timer stores",
      Exp_pacer_scale.run );
  ]

let unknown_experiment id =
  `Error
    ( false,
      Printf.sprintf "unknown experiment %S; known: %s" id
        (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)) )

(* Run [f] with the runtime invariant sanitizer armed (when requested):
   it taps every trace event, checks causality / soft-timer firing
   bounds / wheel residency / counter monotonicity, and its report is
   printed after the run.  Violations turn into a nonzero exit. *)
let with_sanitizer enabled f =
  if not enabled then f ()
  else begin
    let s = Sanitizer.create () in
    Sanitizer.install s;
    let result =
      try f ()
      with e ->
        Sanitizer.uninstall s;
        raise e
    in
    Sanitizer.uninstall s;
    print_newline ();
    print_string (Sanitizer.report s);
    match result with
    | `Ok () when not (Sanitizer.ok s) ->
      `Error
        ( false,
          Printf.sprintf "sanitizer: %d invariant violation(s)" (Sanitizer.violation_count s)
        )
    | other -> other
  end

let run_one cfg sanitize id =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | Some (_, _, f) ->
    with_sanitizer sanitize (fun () ->
        print_string (f cfg);
        `Ok ())
  | None -> unknown_experiment id

let run_all cfg sanitize =
  with_sanitizer sanitize (fun () ->
      (* Independent deterministic sims: fan out, print in list order.
         (With --sanitize the tap forces sequential execution inside
         map_sim; output is identical either way.) *)
      Runner.map_sim (fun (_, _, f) -> f cfg) experiments
      |> List.iter (fun out ->
             print_string out;
             print_newline ());
      `Ok ())

(* Replay-diff harness: run one experiment twice from the same seed and
   compare the emitted table and the metrics dump byte-for-byte and the
   trace digests (an order-sensitive hash of every event).  Any
   divergence means some hidden state — wall clock, global Random, hash
   order — leaked into the run, which is exactly what the determinism
   contract forbids. *)
(* Committed run-1 trace digests and event counts of the quick runs at
   the default seed, ring size and store (the runs `make determinism`
   makes), so a pass also proves a change left the simulation itself
   unchanged, not only reproducible.  pacer-scale emits no trace
   events: its digest is FNV-1a's empty-input value and pins only that
   the trace stays empty, and its tables are checked run against run.
   Change an entry only with a change meant to alter the simulation. *)
let golden_digests =
  [
    ("table3", ("15268fe37ca0eb66", 2_161_691));
    ("table8", ("45c65ef54de30442", 2_877_705));
    ("livelock", ("8dbd9c5a766475e6", 2_010_833));
    ("sensitivity", ("d0ec73f8418aa3e5", 3_836_919));
    ("pacer-scale", ("cbf29ce484222325", 0));
  ]

let default_buf = 1_048_576

let run_verify ~pinned cfg buf jobs id =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | None -> unknown_experiment id
  | Some _ when buf <= 0 -> `Error (false, "--buf must be positive")
  | Some (_, _, f) ->
    let once ~jobs =
      Runner.set_default_jobs jobs;
      let metrics = Metrics.current () in
      Metrics.reset metrics;
      let tr = Trace.create ~capacity:buf () in
      Trace.install tr;
      let out = f cfg in
      Trace.uninstall ();
      (out, Trace_digest.digest tr, Trace.total tr, Metrics.dump metrics)
    in
    (* Run 1 is always sequential; run 2 uses the requested job count,
       so `--jobs 4` directly proves a parallel run is bit-identical
       to the sequential reference, not merely self-consistent. *)
    let o1, d1, n1, m1 = once ~jobs:1 in
    let o2, d2, n2, m2 = once ~jobs in
    Printf.printf "verify-determinism %s (seed %d%s)\n" id cfg.Exp_config.seed
      (if cfg.Exp_config.quick then ", quick" else "");
    Printf.printf "  run 1 (jobs 1): trace digest %s (%d events)\n" (Trace_digest.hex d1) n1;
    Printf.printf "  run 2 (jobs %s): trace digest %s (%d events)\n"
      (if jobs = 0 then "auto" else string_of_int jobs)
      (Trace_digest.hex d2) n2;
    let tables_eq = String.equal o1 o2 in
    let traces_eq = Int64.equal d1 d2 && n1 = n2 in
    let metrics_eq = String.equal m1 m2 in
    Printf.printf "  tables: %s\n" (if tables_eq then "identical" else "DIFFER");
    Printf.printf "  traces: %s\n" (if traces_eq then "identical" else "DIFFER");
    Printf.printf "  metrics: %s\n" (if metrics_eq then "identical" else "DIFFER");
    let golden_ok =
      match List.assoc_opt id golden_digests with
      | Some (hex, n)
        when pinned && cfg.Exp_config.quick && cfg.Exp_config.seed = Exp_config.quick.seed ->
        let ok = String.equal hex (Trace_digest.hex d1) && n = n1 in
        Printf.printf "  golden: %s (committed %s, %d events%s)\n"
          (if ok then "matches" else "DIFFERS")
          hex n
          (if n = 0 then "; table-only, the experiment traces no events" else "");
        ok
      | _ -> true
    in
    let same = tables_eq && traces_eq && metrics_eq in
    if same && not golden_ok then
      `Error (false, "verify-determinism: run 1 differs from the committed golden digest")
    else if same then begin
      Printf.printf "  PASS: two same-seed runs are bit-for-bit identical\n";
      `Ok ()
    end
    else begin
      let show_first_diff what o1 o2 =
        let l1 = String.split_on_char '\n' o1 and l2 = String.split_on_char '\n' o2 in
        let rec first_diff i = function
          | a :: ra, b :: rb -> if String.equal a b then first_diff (i + 1) (ra, rb) else Some (i, a, b)
          | a :: _, [] -> Some (i, a, "<missing>")
          | [], b :: _ -> Some (i, "<missing>", b)
          | [], [] -> None
        in
        match first_diff 1 (l1, l2) with
        | Some (i, a, b) ->
          Printf.printf "  first differing %s line (%d):\n    run 1: %s\n    run 2: %s\n" what
            i a b
        | None -> ()
      in
      if not tables_eq then show_first_diff "table" o1 o2;
      if not metrics_eq then show_first_diff "metrics" m1 m2;
      `Error (false, "verify-determinism: same-seed runs differ — determinism broken")
    end

(* Output paths are checked before any time is spent simulating. *)
let unwritable path = try close_out (open_out path); false with Sys_error _ -> true

(* Run one experiment with the tracing/metrics layer armed, then export
   the ring buffer as Chrome trace_event JSON (or CSV).  JSON exports
   also carry async span events (timer and packet lifecycles recovered
   from the ring) and, with --window, per-window counter tracks. *)
let run_trace cfg id out csv buf metrics window_us =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | None -> unknown_experiment id
  | Some _ when buf <= 0 -> `Error (false, "--buf must be positive")
  | Some _ when window_us < 0.0 -> `Error (false, "--window must be non-negative")
  | Some _ when window_us > 0.0 && Trace.tap_installed () ->
    (* Both the sanitizer and the time-series collector need the single
       synchronous trace tap. *)
    `Error (false, "--window cannot be combined with --sanitize (both need the trace tap)")
  | Some _ when unwritable out ->
    `Error (false, Printf.sprintf "cannot write trace output %S" out)
  | Some (_, _, f) ->
    let metrics_ctx = Metrics.current () in
    Metrics.reset metrics_ctx;
    let tr = Trace.create ~capacity:buf () in
    let series =
      if window_us > 0.0 then
        Some (Timeseries.create ~window:(Time_ns.of_us window_us) ())
      else None
    in
    Trace.install tr;
    (match series with Some ts -> Trace.set_tap (Some (Timeseries.on_event ts)) | None -> ());
    let output =
      try f cfg
      with e ->
        if Option.is_some series then Trace.set_tap None;
        Trace.uninstall ();
        raise e
    in
    (match series with
    | Some ts ->
      Trace.set_tap None;
      Timeseries.close ts
    | None -> ());
    Trace.uninstall ();
    print_string output;
    let as_csv = csv || Filename.check_suffix out ".csv" in
    if as_csv then Trace_export.write_csv tr out
    else
      Trace_export.write_chrome_json ?series ~spans:(Span.collect tr) tr out;
    Printf.printf "\ntrace: %d events captured (%d overwritten) -> %s (%s)\n" (Trace.length tr)
      (Trace.dropped tr) out
      (if as_csv then "csv" else "chrome trace_event json; open in chrome://tracing or Perfetto");
    if Trace.dropped tr > 0 then
      Printf.printf
        "WARNING: trace ring overflowed; the %d oldest events were dropped — the export is \
         truncated (raise --buf to capture everything)\n"
        (Trace.dropped tr);
    if metrics then begin
      print_newline ();
      print_string (Metrics.dump metrics_ctx)
    end;
    `Ok ()

(* One execution under every observer, rendered as one report (see
   lib/experiments/run_report.mli): the experiment's table is
   suppressed, so the report can be byte-compared across --jobs values
   and piped into tooling. *)
let run_report cfg id opts ~json ~out ~flame =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | None -> unknown_experiment id
  | Some (_, _, f) -> (
    match List.find_opt unwritable (Option.to_list out @ Option.to_list flame) with
    | Some file -> `Error (false, Printf.sprintf "cannot write report output %S" file)
    | None -> (
      match Run_report.run cfg ~id f opts with
      | Error msg -> `Error (false, msg)
      | Ok r ->
        let body = if json then Run_report.to_json r else Run_report.to_text r in
        let write file text =
          let oc = open_out file in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
        in
        (match out with
        | None -> print_string body
        | Some file ->
          write file body;
          Printf.printf "report: %s -> %s\n" (if json then "json" else "text") file);
        Option.iter
          (fun file ->
            write file (Run_report.to_collapsed r);
            Printf.printf "report: collapsed-stack flamegraph -> %s\n" file)
          flame;
        if Run_report.dropped r > 0 then
          Printf.eprintf
            "WARNING: trace ring overflowed (%d events dropped); spans are computed from a \
             truncated ring (raise --buf)\n"
            (Run_report.dropped r);
        match Run_report.check r with Ok () -> `Ok () | Error msg -> `Error (false, msg)))

open Cmdliner

let quick =
  let doc = "Short runs (noisier, ~10x faster)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let seed =
  let doc = "Simulation seed (runs are deterministic per seed)." in
  Arg.(value & opt int 7 & info [ "seed"; "s" ] ~doc ~docv:"SEED")

let jobs =
  let doc =
    "Number of worker domains for parallelizable work (independent experiment cells). \
     1 = sequential, 0 = one per core.  Results, tables and trace digests are identical \
     at every value; only wall-clock time changes."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc ~docv:"N")

let sanitize =
  let doc =
    "Arm the runtime invariant sanitizer: every trace event is checked for causality, \
     soft-timer firing bounds, timing-wheel residency and counter monotonicity; a report \
     is printed after the run and violations exit nonzero."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let store_arg =
  let doc =
    Printf.sprintf
      "Timer store backing the soft-timer facility for this run: one of %s.  Every \
       experiment produces the same tables and trace digests under every exact store \
       (only internal bookkeeping differs); the approximate pacing-wheel rounds \
       deadlines up to the tick, so firing times — and hence digests — legitimately \
       shift under it.  See the arena bench for the performance comparison."
      (String.concat ", " Store_registry.names)
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~doc ~docv:"NAME")

(* Install the requested store process-wide for the duration of [k]:
   every [Softtimer.attach] inside the run picks it up. *)
let with_store name k =
  match name with
  | None -> k ()
  | Some n -> (
    match Store_registry.find n with
    | None ->
      `Error
        ( false,
          Printf.sprintf "unknown timer store %s (available: %s)" n
            (String.concat ", " Store_registry.names) )
    | Some s ->
      Softtimer.set_default_store (Some s);
      Fun.protect ~finally:(fun () -> Softtimer.set_default_store None) k)

let id =
  let doc = "Experiment id, or 'all'." in
  Arg.(value & pos 0 string "all" & info [] ~doc ~docv:"EXPERIMENT")

let cfg_of quick seed = { Exp_config.quick; seed }

let trace_cmd =
  let doc = "Run one experiment with tracing enabled and export the event trace" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Arms the simulator-wide tracing layer (lib/obs), runs the given experiment, and \
         writes the captured events to $(b,--out).  The default format is Chrome \
         trace_event JSON, loadable in chrome://tracing or https://ui.perfetto.dev; pass \
         $(b,--csv) (or an .csv output path) for one event per line instead.";
    ]
  in
  let exp_id =
    let doc = "Experiment id to trace (one id, not 'all')." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")
  in
  let out =
    let doc = "Output file for the exported trace." in
    Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~doc ~docv:"FILE")
  in
  let csv =
    let doc = "Export CSV instead of Chrome trace_event JSON." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let buf =
    let doc = "Trace ring-buffer capacity in events; the oldest events are overwritten \
               once it fills." in
    Arg.(value & opt int 1_048_576 & info [ "buf" ] ~doc ~docv:"EVENTS")
  in
  let metrics =
    let doc = "Also dump the metrics registry after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let window =
    let doc =
      "Also aggregate the event stream into windows of this many microseconds of simulated \
       time and merge the result into the JSON export as Chrome counter tracks.  0 \
       disables the time series."
    in
    Arg.(value & opt float 0.0 & info [ "window" ] ~doc ~docv:"US")
  in
  let term =
    Term.(
      ret
        (const (fun quick seed jobs store id out csv buf metrics window sanitize ->
             Runner.set_default_jobs jobs;
             with_store store (fun () ->
                 with_sanitizer sanitize (fun () ->
                     run_trace (cfg_of quick seed) id out csv buf metrics window)))
        $ quick $ seed $ jobs $ store_arg $ exp_id $ out $ csv $ buf $ metrics $ window
        $ sanitize))
  in
  Cmd.v (Cmd.info "trace" ~doc ~man) term

let report_cmd =
  let doc = "Run one experiment once under every observer and report profile, stats, why-late and mem" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Arms the cycle-attribution profiler, a trace ring, a tap feeding windowed time \
         series and fire-delay attribution, and the live-word census, runs the given \
         experiment once, and prints one report instead of the experiment's table.  Its \
         sections: $(b,profile) (attribution tree, per-interrupt cost split behind the \
         paper's Tables 2-4, per-trigger dispatch breakdown of Table 1); $(b,stats) \
         (windowed counters and fire delays, timer and packet spans rebuilt from the \
         ring, the metrics registry); $(b,why-late) (every fired timer's delay \
         partitioned into trigger gap by CPU work class, check-skipped and \
         batch-queueing, with the ending-trigger cross-tab and the worst exemplars); \
         $(b,mem) (census of registered word providers and GC samples).  \
         $(b,report pacer-scale) registers every fleet of the sweep as a census source: \
         the per-store words/flow report.";
      `P
        "$(b,--json) emits schema softtimers-report/1, which carries no wall-clock or GC \
         data and is byte-identical at every $(b,--jobs) value.  The exit status is \
         nonzero on a why-late or census conservation violation.  A ring too small for \
         the run truncates the spans; the report says so (JSON $(b,trace.dropped), a \
         text banner, a warning on stderr).";
    ]
  in
  let exp_id =
    let doc = "Experiment id to report on (one id, not 'all')." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")
  in
  let d = Run_report.default_options in
  let json =
    let doc = "Emit the JSON report (schema softtimers-report/1) instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let out =
    let doc = "Write the report to this file instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc ~docv:"FILE")
  in
  let buf =
    let doc = "Trace ring-buffer capacity in events (spans are rebuilt from the ring)." in
    Arg.(value & opt int d.buf & info [ "buf" ] ~doc ~docv:"EVENTS")
  in
  let window =
    let doc = "Time-series window in microseconds of simulated time." in
    Arg.(value & opt float d.window_us & info [ "window" ] ~doc ~docv:"US")
  in
  let worst =
    let doc = "Number of worst-late exemplar timers in the why-late section." in
    Arg.(value & opt int d.worst & info [ "worst" ] ~doc ~docv:"N")
  in
  let check_budget =
    let doc =
      "Cap soft-timer dispatches per trigger check at N for this run (default unlimited); \
       withheld timers show up as check-skipped delay."
    in
    Arg.(value & opt (some int) None & info [ "check-budget" ] ~doc ~docv:"N")
  in
  let flame =
    let doc =
      "Also write the profile as collapsed-stack flamegraph lines (cpuN;category;... <ns>) \
       to FILE, for inferno, flamegraph.pl or speedscope."
    in
    Arg.(value & opt (some string) None & info [ "flame" ] ~doc ~docv:"FILE")
  in
  let term =
    Term.(
      ret
        (const (fun quick seed jobs store id json out buf window_us worst check_budget flame ->
             Runner.set_default_jobs jobs;
             with_store store (fun () ->
                 run_report (cfg_of quick seed) id
                   { Run_report.buf; window_us; worst; check_budget }
                   ~json ~out ~flame))
        $ quick $ seed $ jobs $ store_arg $ exp_id $ json $ out $ buf $ window $ worst
        $ check_budget $ flame))
  in
  Cmd.v (Cmd.info "report" ~doc ~man) term

let verify_cmd =
  let doc = "Replay-diff: run an experiment twice with the same seed and diff the results" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the given experiment twice with identical configuration, capturing the full \
         event trace of each run, then compares the emitted table and the metrics dump \
         byte-for-byte and the trace digests (an order-sensitive FNV-1a over every event).  \
         Exits nonzero on any divergence: two same-seed runs of a correct simulation are \
         bit-for-bit identical.  Run 1 is always sequential; with --jobs N the second run fans \
         parallelizable work \
         across N domains, so a pass also proves parallel execution changes nothing.  With \
         --quick at the default seed, ring size and store, run 1's digest and event count \
         must also equal the committed golden values of table3, table8, livelock, \
         sensitivity and pacer-scale, so a pass proves the simulation itself is unchanged.";
    ]
  in
  let exp_id =
    let doc = "Experiment id to verify (one id, not 'all')." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")
  in
  let buf =
    let doc = "Trace ring-buffer capacity in events for each run." in
    Arg.(value & opt int default_buf & info [ "buf" ] ~doc ~docv:"EVENTS")
  in
  let term =
    Term.(
      ret
        (const (fun quick seed jobs store buf id ->
             let pinned = Option.is_none store && buf = default_buf in
             with_store store (fun () -> run_verify ~pinned (cfg_of quick seed) buf jobs id))
        $ quick $ seed $ jobs $ store_arg $ buf $ exp_id))
  in
  Cmd.v (Cmd.info "verify-determinism" ~doc ~man) term

let doc = "Reproduce the experiments of 'Soft Timers' (Aron & Druschel, SOSP'99)"

let man =
  [
    `S Manpage.s_description;
    `P
      "Each experiment regenerates one table or figure of the paper on the simulated \
       testbed and prints measured values next to the paper's.  The $(b,report) \
       subcommand explains one run (profile, stats, why-late, mem), and $(b,trace) \
       exports a Chrome trace_event JSON of everything the simulator did.";
    `S "EXPERIMENTS";
  ]
  @ List.map (fun (n, d, _) -> `P (Printf.sprintf "$(b,%s): %s" n d)) experiments

let default =
  Term.(
    ret
      (const (fun quick seed jobs store sanitize id ->
           Runner.set_default_jobs jobs;
           let cfg = cfg_of quick seed in
           with_store store (fun () ->
               if id = "all" then run_all cfg sanitize else run_one cfg sanitize id))
      $ quick $ seed $ jobs $ store_arg $ sanitize $ id))

let group_cmd =
  Cmd.group ~default
    (Cmd.info "softtimers-cli" ~version:"1.0.0" ~doc ~man)
    [ trace_cmd; report_cmd; verify_cmd ]

(* [Cmd.group ~default] rejects any first positional that is not a
   subcommand name, which would break the documented
   `softtimers-cli table3` form; route experiment-id invocations to a
   plain command instead, and everything else (no positional, flags
   only, `trace ...`) through the group. *)
let plain_cmd = Cmd.v (Cmd.info "softtimers-cli" ~version:"1.0.0" ~doc ~man) default

let () =
  let argv = Sys.argv in
  (* Find the first true positional.  Separated-value flags consume the
     following argv slot, so `--seed 9 table3` must skip the "9" — and a
     seed value must never be mistaken for a subcommand name. *)
  let value_flags =
    [
      "--seed"; "-s"; "--out"; "-o"; "--buf"; "--jobs"; "-j"; "--window"; "--store";
      "--worst"; "--check-budget"; "--flame";
    ]
  in
  let first_positional =
    let rec go i =
      if i >= Array.length argv then None
      else if List.mem argv.(i) value_flags then go (i + 2)
      else if String.length argv.(i) > 0 && argv.(i).[0] = '-' then go (i + 1)
      else Some argv.(i)
    in
    go 1
  in
  let is_subcommand =
    match first_positional with
    | Some ("trace" | "report" | "verify-determinism") -> true
    | Some _ -> false
    | None -> false
  in
  let cmd = if is_subcommand || first_positional = None then group_cmd else plain_cmd in
  exit (Cmd.eval cmd)
