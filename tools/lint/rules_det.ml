(* Determinism rules DET001..DET005 + MLI001, ported from the original
   single-file lint onto the shared framework (DET005 is newer).

   Changes against the original:
   - module aliasing no longer evades DET001/DET002/DET004: every
     identifier path is expanded through the file's toplevel
     [module X = Path] aliases before the predicates run;
   - the DET001 bench allowlist is gone — benchmarks whose measurand is
     the wall clock carry [@@@lint.allow "DET001"] next to a
     justification comment instead of a path list in lint source;
   - DET004's Hashtbl-iteration scope includes [lib/store/]: store
     backends feed the deterministic "stores" counts section of the
     gating bench JSON, so unspecified bucket order there is
     result-affecting;
   - suppression is unified: file-level [@@@lint.allow] and per-line
     [@lint.allow] both apply. *)

open Parsetree

(* Directories whose modules produce results (tables, exported traces,
   metric dumps, bench JSON sections): Hashtbl iteration order must not
   reach their output.  Overridable from the CLI for fixture tests. *)
let default_det004_scope = [ "lib/experiments/"; "lib/obs/"; "lib/simcore/"; "lib/store/" ]

(* DET005: a time converted by a wrapping [Int64] conversion.
   [Int64.to_int] wraps a time past the int range into the past, and
   [Int64.of_float] of a float past [Int64]'s range is garbage (about
   2^63 goes negative): a far-future deadline becomes an early fire.
   [Time_ns.to_int] saturates instead, so the rule covers every module
   but Time_ns itself. *)
let det005_exempt = "time_ns.ml"

let is_wrapping_conversion parts =
  match parts with [ "Int64"; ("to_int" | "of_float") ] -> true | _ -> false

let wallclock_idents =
  [ [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Unix"; "gmtime" ];
    [ "Unix"; "localtime" ];
    [ "Unix"; "mktime" ];
    [ "Sys"; "time" ] ]

let line_of = Lint_source.line_of
let flatten_opt = Lint_source.flatten_opt

(* All path predicates below receive the alias-resolved parts. *)
let is_wallclock parts = List.mem parts wallclock_idents
let is_global_random parts = match parts with "Random" :: _ -> true | _ -> false
let is_obj_magic parts = parts = [ "Obj"; "magic" ]

let hashtbl_iteration parts =
  match parts with [ "Hashtbl"; (("iter" | "fold") as f) ] -> Some f | _ -> None

(* Polymorphic comparison operators as they appear unqualified (or
   qualified by Stdlib).  [Time_ns.compare] etc. resolve to a longer
   path and do not match. *)
let poly_compare_op lid =
  match lid with
  | Longident.Lident
      (("=" | "<>" | "==" | "!=" | "<" | "<=" | ">" | ">=" | "compare" | "min" | "max") as s)
    -> Some s
  | Longident.Ldot
      ( Longident.Lident "Stdlib",
        (("=" | "<>" | "<" | "<=" | ">" | ">=" | "compare" | "min" | "max") as s) ) ->
    Some s
  | _ -> None

(* DET003's names.  DET005 also reads a bare [time] as a time: a
   wrapping conversion of one is always a finding, while [time] in an
   int comparison is the engine's and [Eventq]'s immediate-int key. *)
let time_like_name ~bare_time name =
  match name with
  | "now" | "due" | "deadline" -> true
  | "time" -> bare_time
  | _ ->
    List.exists
      (fun suf -> Filename.check_suffix name suf)
      [ "_time"; "_deadline"; "_due"; "_ns" ]

(* Time_ns functions whose result is an ordinary int/float/string, not
   a time: an expression rooted in one of these is not time-valued even
   though the subtree mentions Time_ns (e.g. [Time_ns.compare a b > 0]
   is an int comparison). *)
let time_ns_escapes = [ "compare"; "to_ns"; "to_us"; "to_ms"; "to_sec"; "to_string"; "pp" ]

let escapes_time (ex : expression) =
  match ex.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Ldot (lid, fn); _ }; _ }, _) ->
    (match flatten_opt (Longident.Ldot (lid, fn)) with
    | Some parts -> List.mem "Time_ns" parts && List.mem fn time_ns_escapes
    | None -> false)
  | _ -> false

(* Does the expression (syntactically) mention a time value?  True when
   any identifier or record field within is time-like by name, or any
   path goes through the Time_ns module (excluding subtrees whose value
   already escaped to int/float, see [escapes_time]).  [bare_time]
   selects DET005's name set over DET003's. *)
let expr_time_like ~bare_time e =
  let found = ref false in
  let last_part lid =
    match flatten_opt lid with
    | Some parts when parts <> [] -> Some (List.nth parts (List.length parts - 1))
    | _ -> None
  in
  let check_lid lid =
    (match flatten_opt lid with
    | Some parts when List.mem "Time_ns" parts ->
      (match last_part lid with
      | Some name when List.mem name time_ns_escapes -> ()
      | _ -> found := true)
    | _ -> ());
    match last_part lid with
    | Some name when time_like_name ~bare_time name -> found := true
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          if not (escapes_time ex) then begin
            (match ex.pexp_desc with
            | Pexp_ident { txt; _ } -> check_lid txt
            | Pexp_field (_, { txt; _ }) -> check_lid txt
            | _ -> ());
            Ast_iterator.default_iterator.expr self ex
          end);
    }
  in
  it.expr it e;
  !found

let opened_is_time_ns (od : open_declaration) =
  match od.popen_expr.pmod_desc with
  | Pmod_ident { txt = Longident.Lident "Time_ns"; _ } -> true
  | _ -> false

(* ---------- per-file scan ---------- *)

let scan ~det004_scope (f : Lint_source.file) =
  let file = f.Lint_source.path in
  let in_det004_scope =
    List.exists
      (fun prefix ->
        String.length file >= String.length prefix
        && String.sub file 0 (String.length prefix) = prefix)
      det004_scope
  in
  let det005_applies = not (String.equal (Filename.basename file) det005_exempt) in
  let emit ~loc ~rule msg =
    let line = line_of loc in
    if not (Lint_source.allowed f ~rule ~line) then
      Lint_diag.report ~file ~line ~rule msg
  in
  let resolved lid = Lint_source.resolve_lid f lid in
  (* Depth of enclosing [Time_ns.(...)] / [let open Time_ns in] scopes,
     inside which comparison operators resolve to Time_ns's own. *)
  let time_ns_open_depth = ref 0 in
  let expr_iter self (ex : expression) =
    match ex.pexp_desc with
    | Pexp_open (od, body) when opened_is_time_ns od ->
      incr time_ns_open_depth;
      self.Ast_iterator.expr self body;
      decr time_ns_open_depth
    | _ ->
      (match ex.pexp_desc with
      | Pexp_ident { txt; loc } ->
        (match resolved txt with
        | None -> ()
        | Some parts ->
          if is_wallclock parts then
            emit ~loc ~rule:"DET001"
              (Printf.sprintf
                 "wall-clock read %s breaks reproducibility; use virtual time (Engine.now) \
                  or justify with [@@@lint.allow \"DET001\"] when the wall clock is the \
                  measurand"
                 (String.concat "." parts));
          if is_global_random parts then
            emit ~loc ~rule:"DET002"
              "global Random.* is not replayable; draw from an explicit Simcore.Prng stream";
          if is_obj_magic parts then
            emit ~loc ~rule:"DET004" "Obj.magic defeats the type system";
          (match hashtbl_iteration parts with
          | Some fn when in_det004_scope ->
            emit ~loc ~rule:"DET004"
              (Printf.sprintf
                 "Hashtbl.%s iteration order is unspecified and leaks into results; sort \
                  the keys first (or justify with [@lint.allow \"DET004\"])"
                 fn)
          | _ -> ()))
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
        let time_arg ~bare_time = List.exists (fun (_, a) -> expr_time_like ~bare_time a) args in
        (match resolved txt with
        | Some parts
          when det005_applies && is_wrapping_conversion parts && time_arg ~bare_time:true ->
          emit ~loc ~rule:"DET005"
            (Printf.sprintf
               "%s on a time-valued operand wraps past the int range; convert with \
                Time_ns.to_int, which saturates"
               (String.concat "." parts))
        | _ -> ());
        match poly_compare_op txt with
        | Some op when !time_ns_open_depth = 0 && time_arg ~bare_time:false ->
          emit ~loc ~rule:"DET003"
            (Printf.sprintf
               "polymorphic %s on a time-valued operand; use Time_ns comparisons \
                (Option.is_none/is_some for optional deadlines)"
               (if String.length op > 0 && not (op.[0] >= 'a' && op.[0] <= 'z') then
                  "(" ^ op ^ ")"
                else op))
        | _ -> ())
      | _ -> ());
      Ast_iterator.default_iterator.expr self ex
  in
  let it = { Ast_iterator.default_iterator with expr = expr_iter } in
  it.structure it f.Lint_source.str

(* MLI001: every module under lib/ declares an interface. *)
let check_mli (f : Lint_source.file) =
  let file = f.Lint_source.path in
  let has_prefix prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  if
    has_prefix "lib/" file
    && (not (Sys.file_exists (file ^ "i")))
    && not (Lint_source.allowed f ~rule:"MLI001" ~line:1)
  then
    Lint_diag.report ~file ~line:1 ~rule:"MLI001"
      "module has no interface; every lib/ module must ship an .mli"
