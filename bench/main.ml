(* The full benchmark harness: regenerates every table and figure of the
   paper, printing measured values next to the paper's.  The Bechamel
   microbenchmarks live in microbench.ml.

   Pass --quick for a fast, noisier pass (used by CI); pass an
   experiment id to run just one (see softtimers-cli for the list);
   pass --seed N to replay a specific PRNG seed and --json FILE to
   additionally write a machine-readable baseline (BENCH_<tag>.json,
   compared across commits by tools/benchdiff). *)

(* DET001: per-experiment wall_clock_s stamped into the --json baseline
   is the measurand here, not an input to any simulation — benchdiff
   never compares wall-clock keys, so reading the clock cannot perturb
   a reproducible result. *)
[@@@lint.allow "DET001"]

let experiments =
  [
    ("fig1", Exp_fig1.run);
    ("fig2-3", Exp_hw_overhead.run);
    ("soft-base", Exp_soft_base.run);
    ("table1", Exp_trigger_dist.run);
    ("fig5", Exp_trigger_windows.run);
    ("table2", Exp_trigger_sources.run);
    ("table3", Exp_rbc_overhead.run);
    ("table4-5", Exp_rbc_process.run);
    ("table6-7", Exp_rbc_wan.run);
    ("table8", Exp_polling.run);
    ("livelock", Exp_livelock.run);
    ("sensitivity", Exp_sensitivity.run);
  ]

(* ------------------------------------------------------------------ *)
(* --json FILE: machine-readable baseline.                             *)
(*                                                                     *)
(* Everything under the simulated results (table cells, attribution)   *)
(* is a deterministic function of (seed, quick); only wall_clock_s     *)
(* varies between machines, and tools/benchdiff skips those keys.      *)
(* Hand-rolled writer: fixed field order, %.6g floats, sorted where    *)
(* the source order is not already deterministic.                      *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ json_escape s ^ "\""
let jnum v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"
let jlist items = "[" ^ String.concat "," items ^ "]"
let jobj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"
let server_name = function Webserver.Apache -> "apache" | Webserver.Flash -> "flash"

let http_name = function
  | Webserver.Http -> "http"
  | Webserver.Persistent n -> Printf.sprintf "p-http-%d" n

let table3_json rows =
  jlist
    (List.map
       (fun (r : Exp_rbc_overhead.server_rows) ->
         jobj
           [
             ("server", jstr (server_name r.server));
             ("base_tput", jnum r.base_tput);
             ("hw_tput", jnum r.hw_tput);
             ("hw_overhead_pct", jnum r.hw_overhead_pct);
             ("hw_interval_us", jnum r.hw_interval_us);
             ("soft_tput", jnum r.soft_tput);
             ("soft_overhead_pct", jnum r.soft_overhead_pct);
             ("soft_interval_us", jnum r.soft_interval_us);
           ])
       rows)

let table8_json rows =
  jlist
    (List.map
       (fun (r : Exp_polling.row) ->
         jobj
           [
             ("server", jstr (server_name r.server));
             ("http", jstr (http_name r.http));
             ("mean_batch", jnum r.mean_batch);
             ( "cells",
               jlist
                 (List.map
                    (fun (c : Exp_polling.cell) ->
                      jobj
                        [
                          ("quota", match c.quota with None -> "null" | Some q -> jnum q);
                          ("tput", jnum c.tput);
                          ("ratio", jnum c.ratio);
                        ])
                    r.cells) );
           ])
       rows)

let table2_json (res : Exp_trigger_sources.result) =
  jlist
    (List.map
       (fun (r : Exp_trigger_sources.source_row) ->
         jobj
           [
             ("source", jstr (Trigger.name r.source));
             ("fraction_pct", jnum r.fraction_pct);
             ("paper_pct", jnum r.paper_pct);
           ])
       res.sources)

(* Late-fire attribution over the Table 3 workload, audited live
   through a trace tap (the audit emits no events, so digests and the
   table cells themselves are unchanged).  Only exact counts and
   attributed nanoseconds go in the JSON — they replay
   deterministically from (seed, quick) — so the cells gate under
   benchdiff --strict like any other. *)
let whylate_json da =
  let causes =
    List.filter_map
      (fun k ->
        let ns = Delay_audit.cause_ns da k in
        if Int64.equal ns 0L then None
        else
          Some
            (jobj
               [
                 ("cause", jstr (Delay_audit.seg_label k));
                 ("ns", Printf.sprintf "%Ld" ns);
               ]))
      (List.init Delay_audit.nseg Fun.id)
  in
  jobj
    [
      ("fired", string_of_int (Delay_audit.fired da));
      ("ontime", string_of_int (Delay_audit.ontime da));
      ("late", string_of_int (Delay_audit.late da));
      ("untracked", string_of_int (Delay_audit.untracked da));
      ("pending_at_exit", string_of_int (Delay_audit.pending_at_exit da));
      ("violations", string_of_int (Delay_audit.violations da));
      ("total_late_ns", Printf.sprintf "%Ld" (Delay_audit.total_late_ns da));
      ("causes", jlist causes);
      ( "end_triggers",
        jlist
          (List.map
             (fun (trig, n, ns, _) ->
               jobj
                 [
                   ("trigger", jstr trig);
                   ("late", string_of_int n);
                   ("ns", Printf.sprintf "%Ld" ns);
                 ])
             (Delay_audit.trigger_rows da)) );
    ]

(* Deterministic per-store workload counts: every Timer_store backend
   runs the same small churn mix (schedule / cancel / re-arm / expiry)
   in simulated time — no wall clock — so the cells gate under
   benchdiff --strict like any table cell.  The fired and rearm counts
   must agree across the exact stores (the equivalence contract); the
   approximate pacing-wheel rounds deadlines up to the tick, so its
   fired count is its own gated cell, not required to match.  The
   residency cells are per-store (lazy-cancel stores carry bounded
   corpses). *)
let stores_json cfg =
  let durations_us = [| 50.0; 100.0; 250.0; 500.0; 1_000.0; 2_500.0; 5_000.0; 10_000.0 |] in
  let run (module M : Timer_store.S) =
    let rng = Prng.create ~seed:(cfg.Exp_config.seed + 101) in
    let us x = Time_ns.to_int (Time_ns.of_us x) in
    let t = M.create ~tick:(us 10.0) () in
    let n = 1024 and ops = 8192 in
    let clock = ref 0 in
    let fired = ref 0 and rearms = ref 0 and max_resident = ref 0 in
    let pick () = us durations_us.(Prng.int rng (Array.length durations_us)) in
    let handles = Array.make n None in
    for i = 0 to n - 1 do
      handles.(i) <- Some (M.schedule t ~at:(!clock + pick ()) i)
    done;
    for k = 1 to ops do
      let i = Prng.int rng n in
      (match handles.(i) with
      | Some h when k land 3 = 0 ->
        M.cancel t h;
        handles.(i) <- Some (M.schedule t ~at:(!clock + pick ()) i)
      | Some h -> if M.rearm t h ~at:(!clock + pick ()) then incr rearms
      | None -> ());
      (if k land 7 = 0 then begin
         clock := !clock + us 20.0;
         let earliest = M.next_deadline t in
         if earliest <= !clock then
           fired :=
             !fired
             + Fire_outcome.fired
                 (M.fire_due t ~now:!clock ~limit:max_int (fun _ i ->
                      handles.(i) <- Some (M.schedule t ~at:(!clock + pick ()) i)))
       end);
      let r = M.resident t in
      if r > !max_resident then max_resident := r
    done;
    (* Analytic words are a pure function of the store's final state —
       no GC involvement — so the mem cells gate under benchdiff
       --strict (and its memory thresholds) like any table cell. *)
    let words = M.words t in
    let pending = M.pending t in
    let row =
      jobj
        [
          ("store", jstr M.name);
          ("fired", string_of_int !fired);
          ("rearms", string_of_int !rearms);
          ("max_resident", string_of_int !max_resident);
          ("final_pending", string_of_int pending);
        ]
    in
    let mem =
      jobj
        [
          ("store", jstr M.name);
          ("words", string_of_int words);
          ("pending", string_of_int pending);
          ("words_per_timer", jnum (float_of_int words /. float_of_int (max 1 pending)));
        ]
    in
    (row, mem)
  in
  let cells = List.map run Store_registry.all in
  (jlist (List.map fst cells), jobj [ ("stores", jlist (List.map snd cells)) ])

let emit_json ~path ~cfg ~quick ~timings ~profile =
  (* The structured computes replay deterministically from the same
     (seed, quick) the rendered tables used, so the JSON cells always
     agree with what was just printed. *)
  (* Audit the Table 3 replay live: the tap sees every event of the
     sequential re-run (a tap makes [Runner.map_sim] run inline), and
     feeding it into [Delay_audit] costs nothing observable. *)
  let da = Delay_audit.create ~worst:5 () in
  Trace.set_tap (Some (fun ~at ev -> Delay_audit.on_event da ~at ev));
  let t3 =
    Fun.protect
      ~finally:(fun () -> Trace.set_tap None)
      (fun () -> Exp_rbc_overhead.compute cfg)
  in
  let t8 = Exp_polling.compute cfg in
  let t2 = Exp_trigger_sources.compute cfg in
  let stores_cells, mem_section = stores_json cfg in
  let doc =
    jobj
      [
        ("schema", jstr "softtimers-bench/1");
        ("seed", string_of_int cfg.Exp_config.seed);
        ("quick", if quick then "true" else "false");
        ("machine_profile", jstr Costs.pentium_ii_300.name);
        ( "experiments",
          jlist
            (List.map
               (fun (name, dt) -> jobj [ ("name", jstr name); ("wall_clock_s", jnum dt) ])
               timings) );
        ("table3", table3_json t3);
        ("table8", table8_json t8);
        ("table2_sources", table2_json t2);
        ("stores", stores_cells);
        ("mem", mem_section);
        ("whylate", whylate_json da);
        ("attribution", Profile.to_json profile);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc doc;
      output_char oc '\n')

let usage () =
  prerr_endline
    "usage: main.exe [--quick|-q] [--metrics] [--seed N] [--jobs N] [--json FILE] \
     [EXPERIMENT...]";
  exit 2

let () =
  let quick = ref false in
  let metrics = ref false in
  let seed = ref None in
  let jobs = ref None in
  let json = ref None in
  let wanted = ref [] in
  let rec parse = function
    | [] -> ()
    | ("--quick" | "-q") :: rest ->
      quick := true;
      parse rest
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n -> seed := Some n
      | None ->
        Printf.eprintf "bench: --seed expects an integer, got %S\n" v;
        usage ());
      parse rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 0 -> jobs := Some n
      | Some _ | None ->
        Printf.eprintf "bench: --jobs expects a non-negative integer (0 = auto), got %S\n" v;
        usage ());
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | [ ("--seed" | "--json" | "--jobs") ] -> usage ()
    | a :: rest ->
      wanted := a :: !wanted;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let wanted = List.rev !wanted in
  let base = if !quick then Exp_config.quick else Exp_config.default in
  let cfg = match !seed with None -> base | Some s -> { base with Exp_config.seed = s } in
  let to_run =
    match wanted with
    | [] -> experiments
    | ids -> List.filter (fun (n, _) -> List.mem n ids) experiments
  in
  (* --jobs 0 (or the flag's absence) lets the runtime pick; the value
     becomes the default for every Runner.map in this process,
     including the per-cell fan-out inside exp_sensitivity. *)
  (match !jobs with Some n -> Runner.set_default_jobs n | None -> ());
  if !metrics then Metrics.reset (Metrics.current ());
  (* Every experiment is an independent deterministic simulation;
     fan the cells across domains and print in list order.  Wall-clock
     timings are taken inside each job (they overlap under parallelism
     and are excluded from benchdiff comparisons either way). *)
  let outputs =
    Runner.map_sim
      (fun (name, f) ->
        let t0 = Unix.gettimeofday () in
        let out = f cfg in
        (name, out, Unix.gettimeofday () -. t0))
      to_run
  in
  let timings = List.map (fun (name, _, dt) -> (name, dt)) outputs in
  List.iter
    (fun (_, out, _) ->
      print_string out;
      print_newline ())
    outputs;
  if !metrics then begin
    print_string (Exp_config.header "Metrics registry (lib/obs) after the runs");
    print_string (Metrics.dump (Metrics.current ()));
    print_newline ()
  end;
  (match !json with
  | None -> ()
  | Some path ->
    (* The profiler is installed only around emit_json's sequential
       compute replays (below, in this domain), never around the
       possibly-parallel display runs: attribution stays exact and the
       emitted JSON is byte-identical at every --jobs value. *)
    let p = Profile.create () in
    Profile.install p;
    Fun.protect ~finally:Profile.uninstall (fun () ->
        emit_json ~path ~cfg ~quick:!quick ~timings ~profile:p);
    Printf.printf "wrote %s\n" path)
