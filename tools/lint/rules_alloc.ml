(* Hot-path allocation rules.  PR 4 bought the engine hot path down to
   66.7 ns schedule+fire by keeping it GC-quiet; these rules keep an
   accidental closure or float box from creeping back in.

   A function opts in with [@hot] on its binding:

     let[@hot] rec sift_up t i ~time ~seq ~payload = ...

   and the check is transitive: every binding reachable from a [@hot]
   root through the reachability graph is scanned too, so a helper
   called from a hot function cannot hide an allocation.

   ALLOC001  closure construction — a nested [fun]/[function]/[lazy],
             or a partial application of a known function (fewer
             arguments than its definition's arity).
   ALLOC002  boxed data construction — tuples, records, list cells,
             array literals, constructors with a payload.
   ALLOC003  boxing and formatting calls — Printf/Format, string
             concatenation, boxed-integer arithmetic (Int64/Int32/
             Nativeint produce a fresh box per result), unqualified
             polymorphic [compare]/[min]/[max] (specialise: they box
             float arguments), and a float expression stored into a
             mutable record field (mixed-field records box floats;
             use a float array or an all-float record).

   HOT001    a [Domain.DLS.get] lookup.  Per-event counting belongs in
             the component's own fields, read by Metrics at dump time;
             the only lookups left are the guards of [Trace]/[Profile]
             behind their process-wide [Atomic] consumer counts, each
             allowed with a reason.

   HOT002    a [Float.round]: float microseconds turned into int ns per
             event.  Fixed work is converted once, where it is defined
             (a registered step, an interrupt line, a pacer); only work
             drawn per event is converted on the path, each such site
             allowed with a reason.

   Local [ref] cells are deliberately not flagged: the compiler's
   reference-unboxing pass ([Simplif.eliminate_ref]) compiles the
   non-escaping [let acc = ref 0 ... !acc] idiom to a mutable stack
   variable, so the hot loops' accumulators are allocation-free. *)

open Parsetree

let line_of = Lint_source.line_of

let boxed_int_modules = [ "Int64"; "Int32"; "Nativeint" ]

let boxed_int_fns =
  [
    "of_int"; "of_float"; "of_string"; "of_int32"; "of_nativeint"; "add"; "sub"; "mul";
    "div"; "rem"; "neg"; "abs"; "succ"; "pred"; "logand"; "logor"; "logxor"; "lognot";
    "shift_left"; "shift_right"; "shift_right_logical"; "min"; "max";
  ]

let float_op_heads =
  [ [ "+." ]; [ "-." ]; [ "*." ]; [ "/." ]; [ "**" ]; [ "float_of_int" ]; [ "Float"; "of_int" ] ]

let string_alloc_heads =
  [ [ "^" ]; [ "@" ]; [ "String"; "concat" ]; [ "String"; "sub" ]; [ "Bytes"; "concat" ];
    [ "string_of_int" ]; [ "string_of_float" ]; [ "string_of_bool" ] ]

(* Positional-parameter shape of a definition: how many [Nolabel]
   parameters it takes, and whether any parameter is optional.
   Optional parameters make syntactic partial-application detection
   unsound (a full call can omit them), so such functions are skipped;
   labelled parameters are left out of the count on both sides. *)
let rec param_shape (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, _, body) ->
    let n, opt = param_shape body in
    (match lbl with
    | Asttypes.Nolabel -> (n + 1, opt)
    | Asttypes.Labelled _ -> (n, opt)
    | Asttypes.Optional _ -> (n, true))
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> param_shape body
  | _ -> (0, false)

(* Strip the binding's own parameter chain: the leading funs are the
   function being defined, not closures it allocates per call. *)
let rec strip_params (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_params body
  | Pexp_newtype (_, body) -> strip_params body
  | Pexp_constraint (body, _) -> strip_params body
  | _ -> e

let resolve_def (g : Reachability.t) (f : Lint_source.file) ~current_module lid =
  match Reachability.resolve g f ~current_module lid with
  | key :: _ -> Reachability.find_def g key
  | [] -> None

(* Scan the body of one reachable def. *)
let scan_def (g : Reachability.t) parent ~(root : Reachability.def) (d : Reachability.def) =
  let f = d.Reachability.d_file in
  let file = f.Lint_source.path in
  let context =
    if d.Reachability.d_hot then
      Printf.sprintf "in [@hot] %s.%s" d.Reachability.d_module d.Reachability.d_name
    else
      let path =
        Reachability.witness_path parent ~node:(d.Reachability.d_module, d.Reachability.d_name)
        |> List.map (fun (m, n) -> m ^ "." ^ n)
        |> String.concat " -> "
      in
      Printf.sprintf "in %s.%s, reachable from [@hot] %s.%s (%s)" d.Reachability.d_module
        d.Reachability.d_name root.Reachability.d_module root.Reachability.d_name path
  in
  let emit ~loc ~rule msg =
    let line = line_of loc in
    if not (Lint_source.allowed f ~rule ~line) then
      Lint_diag.report ~file ~line ~rule (Printf.sprintf "%s %s" msg context)
  in
  let head_parts (ex : expression) =
    match ex.pexp_desc with
    | Pexp_ident { txt; _ } -> Lint_source.resolve_lid f txt
    | _ -> None
  in
  (* A tuple that is the immediate payload of a constructor ([x :: xs],
     [Pair (a, b)]) is the constructor's argument block, not a second
     allocation — remember it so the child visit stays quiet. *)
  let payload_tuples = ref [] in
  let expr_iter self (ex : expression) =
    (match ex.pexp_desc with
    | Pexp_fun _ | Pexp_function _ ->
      emit ~loc:ex.pexp_loc ~rule:"ALLOC001" "closure allocated"
    | Pexp_lazy _ -> emit ~loc:ex.pexp_loc ~rule:"ALLOC001" "lazy thunk allocated"
    | Pexp_apply (head, args) -> (
      (match head.pexp_desc with
      | Pexp_ident { txt; _ } -> (
        match resolve_def g f ~current_module:d.Reachability.d_module txt with
        | Some callee ->
          let arity, has_opt = param_shape callee.Reachability.d_expr in
          let given =
            List.length (List.filter (fun (l, _) -> l = Asttypes.Nolabel) args)
          in
          if (not has_opt) && arity > 0 && given < arity then
            emit ~loc:ex.pexp_loc ~rule:"ALLOC001"
              (Printf.sprintf
                 "partial application of %s.%s (%d of %d positional args) allocates a \
                  closure"
                 callee.Reachability.d_module callee.Reachability.d_name given arity)
        | None -> ())
      | _ -> ());
      match head_parts head with
      | Some ([ "Printf"; _ ] | [ "Format"; _ ]) ->
        emit ~loc:ex.pexp_loc ~rule:"ALLOC003" "Printf/Format call allocates"
      | Some parts when List.mem parts string_alloc_heads ->
        emit ~loc:ex.pexp_loc ~rule:"ALLOC003"
          (Printf.sprintf "%s allocates a fresh string/list" (String.concat "." parts))
      | Some [ m; fn ] when List.mem m boxed_int_modules && List.mem fn boxed_int_fns ->
        emit ~loc:ex.pexp_loc ~rule:"ALLOC003"
          (Printf.sprintf "%s.%s allocates a boxed %s" m fn (String.lowercase_ascii m))
      | Some [ ("compare" | "min" | "max") as fn ] | Some [ "Stdlib"; (("compare" | "min" | "max") as fn) ] ->
        emit ~loc:ex.pexp_loc ~rule:"ALLOC003"
          (Printf.sprintf
             "polymorphic %s boxes float arguments; use a monomorphic comparison (Int.%s / \
              Float.%s)"
             fn fn fn)
      | _ -> ())
    | Pexp_ident { txt; _ }
      when Lint_source.resolve_lid f txt = Some [ "Domain"; "DLS"; "get" ] ->
      emit ~loc:ex.pexp_loc ~rule:"HOT001" "Domain.DLS.get lookup"
    | Pexp_ident { txt; _ }
      when match Lint_source.resolve_lid f txt with
           | Some ([ "Float"; "round" ] | [ "Stdlib"; "Float"; "round" ]) -> true
           | _ -> false ->
      emit ~loc:ex.pexp_loc ~rule:"HOT002" "Float.round conversion"
    | Pexp_tuple _ ->
      if not (List.memq ex !payload_tuples) then
        emit ~loc:ex.pexp_loc ~rule:"ALLOC002" "tuple allocated"
    | Pexp_record _ -> emit ~loc:ex.pexp_loc ~rule:"ALLOC002" "record allocated"
    | Pexp_array _ -> emit ~loc:ex.pexp_loc ~rule:"ALLOC002" "array literal allocated"
    | Pexp_construct ({ txt; _ }, Some payload) ->
      (match payload.pexp_desc with
      | Pexp_tuple _ -> payload_tuples := payload :: !payload_tuples
      | _ -> ());
      let name = try String.concat "." (Longident.flatten txt) with _ -> "?" in
      emit ~loc:ex.pexp_loc ~rule:"ALLOC002"
        (Printf.sprintf "constructor %s with payload allocated" name)
    | Pexp_variant (_, Some { pexp_desc = Pexp_tuple _; _ }) ->
      (match ex.pexp_desc with
      | Pexp_variant (_, Some payload) -> payload_tuples := payload :: !payload_tuples
      | _ -> ());
      emit ~loc:ex.pexp_loc ~rule:"ALLOC002" "polymorphic variant with payload allocated"
    | Pexp_variant (_, Some _) ->
      emit ~loc:ex.pexp_loc ~rule:"ALLOC002" "polymorphic variant with payload allocated"
    | Pexp_setfield (_, _, rhs) -> (
      match
        match rhs.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
          Lint_source.resolve_lid f txt
        | _ -> None
      with
      | Some parts when List.mem parts float_op_heads ->
        emit ~loc:ex.pexp_loc ~rule:"ALLOC003"
          "float expression stored into a mutable record field is boxed per store; use a \
           float array or an all-float record"
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self ex
  in
  let it = { Ast_iterator.default_iterator with expr = expr_iter } in
  it.expr it (strip_params d.Reachability.d_expr)

(* Entry point: scan everything reachable from every [@hot] root.  A
   def reachable from several roots is scanned once, attributed to the
   first root in (module, name) order. *)
let scan_all (g : Reachability.t) =
  let roots = Reachability.hot_roots g in
  let scanned = Hashtbl.create 64 in
  List.iter
    (fun (root : Reachability.def) ->
      let parent =
        Reachability.reach_from ~expand_init:false g
          [ (root.Reachability.d_module, root.Reachability.d_name) ]
      in
      Hashtbl.iter
        (fun node _ ->
          if not (Hashtbl.mem scanned node) then begin
            Hashtbl.replace scanned node ();
            match Reachability.find_def g node with
            (* Zero-arity bindings are module initializers: they run
               once at load time, not per hot call, so their bodies
               (interned profile paths, lookup tables) are exempt. *)
            | Some d when d.Reachability.d_arity > 0 -> scan_def g parent ~root d
            | Some _ | None -> ()
          end)
        parent)
    roots
