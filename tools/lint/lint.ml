(* Driver for the multi-pass static-analysis suite.

   Every table and figure this repo regenerates rests on the engine's
   promise of bit-for-bit reproducibility, and the engine hot path's
   performance rests on staying GC-quiet.  This suite enforces both
   statically:

     pass 1  parse every .ml once into the shared cache
             (Lint_source: per-file allows, aliases, mutable labels)
     pass 2  build the module-level reachability graph over toplevel
             bindings, [@hot] roots and the mutable-state index
             (Reachability)
     pass 3  run the rule families over the cached ASTs:
               Rules_det    DET001..DET005, MLI001  (determinism)
               Rules_race   RACE001..RACE004        (domain safety)
               Rules_alloc  ALLOC001..ALLOC003,     (hot-path allocs)
                            HOT001, HOT002          (hot-path DLS lookups
                                                     and float-to-ns rounding)
               Rules_dead   DEAD001                 (lib/ exports no root
                                                     reaches; also reads
                                                     test/ and perfbench/)
               ALLOW001  an allowance that suppresses no finding
     pass 4  report: text (default) / --json / --sarif, ratcheted
             against the committed BASELINE.json

   Suppression: file-level [@@@lint.allow "RULE"] or node-scoped
   [@lint.allow "RULE"] (covers the lines the annotated expression or
   let-binding spans); pair either with a comment justifying why the
   rule does not apply.  An allowance that suppresses nothing is itself
   a finding (ALLOW001), so allowances cannot outlive their reason.  The
   ratchet baseline freezes pre-existing
   findings by (file, rule) count: `dune build @lint` stays green on
   frozen debt and fails on any new finding.

   Usage: lint.exe [options] [DIR|FILE...]
     --baseline FILE        ratchet against FILE (per-(file,rule) counts)
     --write-baseline FILE  regenerate the ratchet from current findings
     --no-baseline          fail on every finding (fixture tests)
     --json FILE            machine-readable findings
     --sarif FILE           SARIF 2.1.0 for CI artifact upload / viewers
     --brief                print file:line:RULE only (golden tests)
     --det004-scope PREFIX  add a DET004 Hashtbl-iteration scope prefix
                            (replaces the default scope; repeatable)

   Exit status: 0 clean (or all findings frozen), 1 new findings,
   2 usage/configuration error. *)

let usage () =
  prerr_endline
    "usage: lint.exe [--baseline FILE | --write-baseline FILE | --no-baseline]\n\
    \                [--json FILE] [--sarif FILE] [--brief]\n\
    \                [--det004-scope PREFIX]... [DIR|FILE...]";
  exit 2

(* ---------- directory walk ---------- *)

let rec walk dir acc =
  if not (Sys.file_exists dir && Sys.is_directory dir) then acc
  else
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else
          let path = Filename.concat dir entry in
          if Sys.is_directory path then walk path acc
          else if Filename.check_suffix path ".ml" then path :: acc
          else acc)
      acc (Sys.readdir dir)

let () =
  let baseline_path = ref (Some "tools/lint/BASELINE.json") in
  let write_baseline = ref None in
  let json_out = ref None in
  let sarif_out = ref None in
  let brief = ref false in
  let det004_scope = ref [] in
  let targets = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--baseline" :: path :: rest ->
      baseline_path := Some path;
      parse_args rest
    | "--no-baseline" :: rest ->
      baseline_path := None;
      parse_args rest
    | "--write-baseline" :: path :: rest ->
      write_baseline := Some path;
      parse_args rest
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse_args rest
    | "--sarif" :: path :: rest ->
      sarif_out := Some path;
      parse_args rest
    | "--brief" :: rest ->
      brief := true;
      parse_args rest
    | "--det004-scope" :: prefix :: rest ->
      det004_scope := prefix :: !det004_scope;
      parse_args rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Printf.eprintf "lint: unknown option %s\n" arg;
      usage ()
    | arg :: rest ->
      targets := arg :: !targets;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let targets =
    match List.rev !targets with [] -> [ "lib"; "bin"; "examples"; "bench"; "tools" ] | ts -> ts
  in
  let files =
    List.concat_map
      (fun t ->
        if Sys.file_exists t && Sys.is_directory t then walk t []
        else if Sys.file_exists t && Filename.check_suffix t ".ml" then [ t ]
        else [])
      targets
    |> List.sort_uniq String.compare
  in
  if files = [] then begin
    prerr_endline "lint: no .ml files found (run from the repository root)";
    exit 2
  end;

  (* Pass 1: parse everything once into the shared cache. *)
  let sources = List.map Lint_source.load files in
  List.iter
    (fun (f : Lint_source.file) ->
      if f.Lint_source.parse_failed then
        Lint_diag.report ~file:f.Lint_source.path ~line:1 ~rule:"PARSE"
          "file does not parse")
    sources;

  (* Pass 2: reachability graph, hot roots, mutable-state index. *)
  let graph = Reachability.build sources in

  (* Pass 3: rule families. *)
  let det004_scope =
    match !det004_scope with [] -> Rules_det.default_det004_scope | s -> List.rev s
  in
  List.iter
    (fun f ->
      Rules_det.scan ~det004_scope f;
      Rules_det.check_mli f;
      Rules_race.scan graph f)
    sources;
  Rules_alloc.scan_all graph;
  (* DEAD001 also reads test/ and perfbench/ for their references. *)
  let readers =
    List.filter (fun p -> not (List.mem p files)) (walk "test" [] @ walk "perfbench" [])
    |> List.sort_uniq String.compare
  in
  Rules_dead.scan (sources @ List.map Lint_source.load readers);
  (* After every rule has run: allowances no finding consulted. *)
  List.iter
    (fun (f : Lint_source.file) ->
      List.iter
        (fun (al : Lint_source.allow) ->
          Lint_diag.report ~file:f.Lint_source.path ~line:al.Lint_source.line ~rule:"ALLOW001"
            (Printf.sprintf "[@lint.allow %S] suppresses no finding; delete it" al.rule))
        (Lint_source.stale_allows f))
    sources;

  let vs = Lint_diag.sorted () in

  (* --write-baseline regenerates the ratchet and reports nothing. *)
  (match !write_baseline with
  | Some path ->
    Lint_diag.write_baseline path vs;
    Printf.eprintf "lint: baseline written to %s (%d finding(s) frozen in %d file(s))\n" path
      (List.length vs)
      (List.length
         (List.sort_uniq String.compare (List.map (fun v -> v.Lint_diag.file) vs)));
    exit 0
  | None -> ());

  (* Pass 4: ratchet + report. *)
  let fresh, frozen =
    match !baseline_path with
    | Some path when Sys.file_exists path -> (
      match Lint_diag.load_baseline path with
      | bl -> Lint_diag.against_baseline bl vs
      | exception Lint_diag.Bad_json msg ->
        Printf.eprintf "lint: cannot read baseline %s: %s\n" path msg;
        exit 2)
    | Some _ | None -> (vs, [])
  in
  let frozen_set = List.map (fun v -> v) frozen in
  let is_frozen v = List.memq v frozen_set in
  (match !json_out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Lint_diag.to_json ~frozen:is_frozen vs);
    close_out oc
  | None -> ());
  (match !sarif_out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Lint_diag.to_sarif ~frozen:is_frozen vs);
    close_out oc
  | None -> ());
  List.iter
    (fun (v : Lint_diag.violation) ->
      if !brief then Printf.printf "%s:%d:%s\n" v.file v.line v.rule
      else Printf.printf "%s:%d:%s %s\n" v.file v.line v.rule v.msg)
    fresh;
  if fresh = [] then begin
    Printf.eprintf "lint: OK (%d files clean%s)\n" (List.length files)
      (match frozen with
      | [] -> ""
      | fs -> Printf.sprintf ", %d finding(s) frozen in baseline" (List.length fs));
    exit 0
  end
  else begin
    Printf.eprintf "lint: %d new violation(s) in %d file(s)%s\n" (List.length fresh)
      (List.length
         (List.sort_uniq String.compare (List.map (fun v -> v.Lint_diag.file) fresh)))
      (match frozen with
      | [] -> ""
      | fs -> Printf.sprintf " (+%d frozen in baseline)" (List.length fs));
    exit 1
  end
