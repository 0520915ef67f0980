(* DEAD001: a [val] of a lib/ interface that no root reaches.

   The roots are every binding and module initialiser of a file outside
   lib/ and test/ (bin, bench, perfbench, examples, tools) and the
   module initialisers of lib/ files.  A lib export is live when some
   reached binding of another module mentions it, directly or through
   other lib bindings (Reachability's edges, so [let open], [M.( )],
   [include], first-class packs and functor arguments all count).  The
   rest fall in three classes, reported apart:

   - used only by tests: a test reaches it (delete it with its test, or
     keep it with [@@lint.allow "DEAD001"] and a reason);
   - used only in its own module: live, but no other module needs the
     export (drop the [val] from the .mli);
   - used nowhere: delete the binding.

   test/ files are read for their references only: a test is never a
   root.  Calls through closures or functor parameters are invisible,
   so such a use must name the module some other way (a pack or a
   functor argument) to keep an export live. *)

open Parsetree

type cls = Lib | Test | Root

let file_class path =
  match String.split_on_char '/' path with
  | "lib" :: _ -> Lib
  | "test" :: _ -> Test
  | _ -> Root

(* The [val]s of an interface, nested [module M : sig ... end] (or a
   functor's result signature) keyed by the innermost module name like
   the graph's nodes. *)
let exports_of_mli modname path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  let acc = ref [] in
  let rec sig_items m items = List.iter (sig_item m) items
  and sig_item m (item : signature_item) =
    match item.psig_desc with
    | Psig_value vd -> acc := ((m, vd.pval_name.txt), Lint_source.line_of vd.pval_loc) :: !acc
    | Psig_module { pmd_name = { txt = Some sub; _ }; pmd_type; _ } -> mty sub pmd_type
    | _ -> ()
  and mty m (t : module_type) =
    match t.pmty_desc with
    | Pmty_signature items -> sig_items m items
    | Pmty_functor (_, body) -> mty m body
    | _ -> ()
  in
  (match Parse.interface lexbuf with
  | items -> sig_items modname items
  | exception _ -> Lint_diag.report ~file:path ~line:1 ~rule:"PARSE" "file does not parse");
  List.rev !acc

let tests_only =
  "is used only by tests; delete it with its test, or keep it with [@@lint.allow \"DEAD001\"] \
   and a reason"

let scan (files : Lint_source.file list) =
  let g = Reachability.build files in
  let stem path = Filename.remove_extension path in
  let def_file (d : Reachability.def) = d.d_file.Lint_source.path in
  (* Every use: (source file, the binding it is in, or [None] in a module
     initialiser, the key it references). *)
  let uses =
    List.concat_map
      (fun (d : Reachability.def) ->
        List.map
          (fun key -> (def_file d, Some (d.d_module, d.d_name), key))
          (Reachability.refs_of_expr g d.d_file ~current_module:d.d_module d.d_expr))
      g.all_defs
    @ List.concat_map
        (fun (f : Lint_source.file) ->
          List.map (fun key -> (f.path, None, key)) (Reachability.init_refs g f))
        files
  in
  let uses_of = Hashtbl.create 4096 in
  List.iter (fun ((_, _, key) as u) -> Hashtbl.add uses_of key u) uses;
  let root src owner = file_class src = Root || (owner = None && file_class src = Lib) in
  let test src _ = file_class src = Test in
  let reach is_seed =
    Reachability.reach_from g
      (List.filter_map (fun (src, owner, key) -> if is_seed src owner then Some key else None) uses)
  in
  let live = reach root and tested = reach test in
  (* Is [key], exported by [path], used from another file by a seed or
     by a binding [reached] reaches? *)
  let outside reached is_seed key path =
    List.exists
      (fun (src, owner, _) ->
        stem src <> stem path
        && (is_seed src owner || match owner with Some o -> Hashtbl.mem reached o | None -> false))
      (Hashtbl.find_all uses_of key)
  in
  List.iter
    (fun (f : Lint_source.file) ->
      let mli = f.path ^ "i" in
      if file_class f.path = Lib && Sys.file_exists mli then
        List.iter
          (fun (((m, x) as key), mli_line) ->
            let verdict =
              if outside live root key f.path then None
              else if outside tested test key f.path then Some tests_only
              else if Hashtbl.mem live key then
                Some (Printf.sprintf "is used only inside %s; drop its val from %s" f.modname
                        (Filename.basename mli))
              else if Hashtbl.mem tested key then Some tests_only
              else Some "is used nowhere; delete it"
            in
            match verdict with
            | None -> ()
            | Some why -> (
              let msg = Printf.sprintf "%s.%s %s" m x why in
              match
                List.find_opt
                  (fun (d : Reachability.def) -> (d.d_module, d.d_name) = key && def_file d = f.path)
                  g.all_defs
              with
              | Some d ->
                let line = Lint_source.line_of d.d_loc in
                if not (Lint_source.allowed f ~rule:"DEAD001" ~line) then
                  Lint_diag.report ~file:f.path ~line ~rule:"DEAD001" msg
              | None -> Lint_diag.report ~file:mli ~line:mli_line ~rule:"DEAD001" msg))
          (exports_of_mli f.modname mli))
    files
