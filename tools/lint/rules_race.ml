(* Domain-race rules for the SMP / domain-sharded work: once simulation
   state moves under OCaml 5 domains, a single unprotected [ref] or
   [Hashtbl] silently breaks the byte-identical [--jobs N] guarantee.
   These rules make the hazard a compile-time failure instead of a
   replay-diff surprise.

   RACE001  a closure passed to [Parallel.Runner.map]/[map_sim]
            directly references mutable toplevel state (ref / Hashtbl /
            Buffer / array / record with mutable fields) that is not
            wrapped in Atomic, Domain.DLS or Mutex.
   RACE002  same, but the state is reached transitively: the closure
            calls a function whose body (through any call chain in the
            reachability graph) touches the state.
   RACE003  [Domain.spawn] outside lib/parallel — all domain fan-out
            goes through the one audited runner.
   RACE004  an [Atomic.set a (... Atomic.get a ...)] read-modify-write:
            the get/set pair is not atomic; use
            [Atomic.fetch_and_add] / [compare_and_set] / [exchange].

   RACE001/RACE002 findings are reported at the closure, but a
   [@lint.allow] on the *state definition* also suppresses them — the
   justification for why a given global is domain-safe belongs next to
   the global, not at every fan-out site. *)

open Parsetree

let line_of = Lint_source.line_of

let is_parallel_map parts =
  match List.rev parts with
  | ("map" | "map_sim") :: "Runner" :: _ -> true
  | _ -> false

let is_domain_spawn parts = parts = [ "Domain"; "spawn" ]

let has_prefix prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* States directly referenced by [e], resolved like reachability edges. *)
let state_refs (g : Reachability.t) (f : Lint_source.file) ~current_module e =
  List.filter_map
    (fun key -> Option.map (fun s -> (key, s)) (Reachability.find_state g key))
    (Reachability.refs_of_expr g f ~current_module e)

(* Suppression for RACE001/002 consults both ends: the closure site and
   the state definition (both, so each counts as used). *)
let emit_race ~(call_file : Lint_source.file) ~line ~rule ~(state : Reachability.state) msg =
  let def_line = line_of state.s_loc in
  let at_call = Lint_source.allowed call_file ~rule ~line in
  let at_def = Lint_source.allowed state.s_file ~rule ~line:def_line in
  if not (at_call || at_def) then
    Lint_diag.report ~file:call_file.Lint_source.path ~line ~rule msg

let describe_state (state : Reachability.state) =
  Printf.sprintf "%s.%s (%s:%d)" state.s_module state.s_name state.s_file.Lint_source.path
    (line_of state.s_loc)

(* Check one job body (a closure literal, or the def a function
   argument resolves to) fanned out by Runner.map/map_sim. *)
let check_job (g : Reachability.t) ~(call_file : Lint_source.file) ~current_module ~line
    (body : expression) =
  (* RACE001: direct captures. *)
  let direct = state_refs g call_file ~current_module body in
  List.iter
    (fun (_, state) ->
      emit_race ~call_file ~line ~rule:"RACE001" ~state
        (Printf.sprintf
           "parallel job captures mutable toplevel %s with no Atomic/Domain.DLS/Mutex \
            protection; worker domains race on it"
           (describe_state state)))
    direct;
  (* RACE002: transitive reach.  Roots are the functions the closure
     mentions; every def reachable from them is scanned for state
     references. *)
  let roots = Reachability.refs_of_expr g call_file ~current_module body in
  let parent = Reachability.reach_from g roots in
  let seen = Hashtbl.create 8 in
  List.iter (fun (key, _) -> Hashtbl.replace seen key ()) direct;
  Hashtbl.iter
    (fun node _ ->
      match Reachability.find_def g node with
      | None -> ()
      | Some d ->
        List.iter
          (fun (key, state) ->
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              let path =
                Reachability.witness_path parent ~node
                |> List.map (fun (m, n) -> m ^ "." ^ n)
                |> String.concat " -> "
              in
              emit_race ~call_file ~line ~rule:"RACE002" ~state
                (Printf.sprintf
                   "parallel job reaches mutable toplevel %s via %s; wrap it in \
                    Atomic/Domain.DLS/Mutex or justify at the definition"
                   (describe_state state) path)
            end)
          (state_refs g d.d_file ~current_module:d.d_module d.d_expr))
    parent

(* Syntactic access path of an atomic's expression, for RACE004's
   same-atomic test: identifier paths and field chains only. *)
let rec access_path (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    (match Lint_source.flatten_opt txt with
    | Some parts -> Some (String.concat "." parts)
    | None -> None)
  | Pexp_field (base, { txt; _ }) ->
    (match (access_path base, Lint_source.flatten_opt txt) with
    | Some b, Some parts -> Some (b ^ "." ^ String.concat "." parts)
    | _ -> None)
  | _ -> None

let contains_get_of (f : Lint_source.file) (e : expression) ~target =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, arg) :: _)
            when (match Lint_source.resolve_lid f txt with
                 | Some [ "Atomic"; "get" ] -> true
                 | _ -> false) -> (
            match access_path arg with
            | Some p when p = target -> found := true
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

(* ---------- per-file scan ---------- *)

let scan (g : Reachability.t) (f : Lint_source.file) =
  let file = f.Lint_source.path in
  let emit ~loc ~rule msg =
    let line = line_of loc in
    if not (Lint_source.allowed f ~rule ~line) then Lint_diag.report ~file ~line ~rule msg
  in
  (* Innermost module name tracks Pstr_module nesting so unqualified
     references inside submodules resolve against the right index. *)
  let current_module = ref f.Lint_source.modname in
  let expr_iter self (ex : expression) =
    (match ex.pexp_desc with
    | Pexp_ident { txt; loc } -> (
      match Lint_source.resolve_lid f txt with
      | Some parts when is_domain_spawn parts && not (has_prefix "lib/parallel" file) ->
        emit ~loc ~rule:"RACE003"
          "Domain.spawn outside lib/parallel; fan out through Parallel.Runner so \
           domain-local observability sinks and deterministic result order are preserved"
      | _ -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      (match Lint_source.resolve_lid f txt with
      | Some parts when is_parallel_map parts ->
        List.iter
          (fun ((label : Asttypes.arg_label), (arg : expression)) ->
            match (label, arg.pexp_desc) with
            | Asttypes.Nolabel, (Pexp_fun _ | Pexp_function _) ->
              check_job g ~call_file:f ~current_module:!current_module
                ~line:(line_of arg.pexp_loc) arg
            | Asttypes.Nolabel, Pexp_ident { txt = fn; _ } -> (
              (* [Runner.map job xs] with a named toplevel job. *)
              match Lint_source.resolve_lid f fn with
              | Some [ x ] -> (
                match Reachability.find_def g (!current_module, x) with
                | Some d ->
                  check_job g ~call_file:f ~current_module:d.d_module
                    ~line:(line_of arg.pexp_loc) d.d_expr
                | None -> ())
              | Some parts when List.length parts >= 2 -> (
                let n = List.length parts in
                match
                  Reachability.find_def g (List.nth parts (n - 2), List.nth parts (n - 1))
                with
                | Some d ->
                  check_job g ~call_file:f ~current_module:d.d_module
                    ~line:(line_of arg.pexp_loc) d.d_expr
                | None -> ())
              | _ -> ())
            | _ -> ())
          args
      | _ -> ());
      (* RACE004: Atomic.set whose value re-reads the same atomic. *)
      match Lint_source.resolve_lid f txt with
      | Some [ "Atomic"; "set" ] -> (
        match args with
        | (_, target_e) :: (_, value_e) :: _ -> (
          match access_path target_e with
          | Some target when contains_get_of f value_e ~target ->
            emit ~loc:ex.pexp_loc ~rule:"RACE004"
              (Printf.sprintf
                 "Atomic.get %s followed by Atomic.set is not atomic; use \
                  Atomic.fetch_and_add / compare_and_set / exchange"
                 target)
          | _ -> ())
        | _ -> ())
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self ex
  in
  let rec walk_structure modname str =
    let saved = !current_module in
    current_module := modname;
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } ->
          walk_module_expr sub pmb_expr
        | _ ->
          let it = { Ast_iterator.default_iterator with expr = expr_iter } in
          it.structure_item it item)
      str;
    current_module := saved
  and walk_module_expr sub (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure str -> walk_structure sub str
    | Pmod_functor (_, body) -> walk_module_expr sub body
    | Pmod_constraint (me, _) -> walk_module_expr sub me
    | _ -> ()
  in
  walk_structure f.Lint_source.modname f.Lint_source.str
