(* The shared parse cache and per-file syntactic facts every rule
   module consumes.  A file is parsed exactly once per lint run; the
   cached record also pre-extracts the facts that cut across rules:

   - file-level  [@@@lint.allow "RULE"]   (whole-file suppression)
   - per-node    [@lint.allow "RULE"]     (suppresses the rule on the
     lines spanned by the annotated expression / let-binding)
   - module aliases at any depth ([module X = P.Q], [module X = P.F (A)],
     [let module X = ...]; an application names its functor), resolved
     before any rule predicate runs so [module R = Random  let x =
     R.int 3] cannot evade DET002 (and likewise DET001/DET004), and the
     toplevel [open]s
   - record labels declared [mutable] anywhere in the file's type
     declarations (the RACE rules use them to recognise mutable record
     literals without type information)
   - [@hot] annotations on value bindings (the ALLOC roots)

   Every allowance remembers whether some finding consulted it, so the
   driver can report the ones that suppress nothing (ALLOW001). *)

open Parsetree

(* One [lint.allow] attribute: its rule, where it is written (the key
   that identifies it, however many nodes register it) and whether a
   finding has been suppressed by it. *)
type allow = { rule : string; line : int; key : int; mutable used : bool }

type file = {
  path : string;
  modname : string;  (* capitalized basename: lib/simcore/eventq.ml -> Eventq *)
  str : structure;  (* [] when the file does not parse *)
  parse_failed : bool;
  file_allows : allow list;
  line_allows : (allow * int * int) list;  (* allowance, first line, last line *)
  aliases : (string * string list) list;  (* [module X = P.Q] -> X, [P;Q] *)
  opens : string list list;  (* toplevel [open P.Q] -> [P;Q] *)
  mutable_labels : string list;
}

let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let flatten_opt lid = try Some (Longident.flatten lid) with _ -> None

let modname_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* ---------- attribute extraction ---------- *)

let string_payload (attr : attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc = Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

(* Allowances are shared by attribute position: a toplevel
   [let[@lint.allow "X"] f = ...] registers the same attribute on its
   structure item and on its binding, and a finding under either span
   uses it. *)
let allow_of_attr tbl (a : attribute) =
  match string_payload a with
  | Some rule when a.attr_name.txt = "lint.allow" ->
    let key = a.attr_loc.loc_start.pos_cnum in
    (match Hashtbl.find_opt tbl key with
    | Some al -> Some al
    | None ->
      let al = { rule; line = a.attr_loc.loc_start.pos_lnum; key; used = false } in
      Hashtbl.replace tbl key al;
      Some al)
  | _ -> None

let is_hot_attrs (attrs : attributes) =
  List.exists (fun a -> a.attr_name.txt = "hot" || a.attr_name.txt = "lint.hot") attrs

(* File-level [@@@lint.allow "RULE"] floating attributes. *)
let file_allows_of tbl (str : structure) =
  List.filter_map
    (fun item ->
      match item.pstr_desc with Pstr_attribute a -> allow_of_attr tbl a | _ -> None)
    str

(* Per-node [@lint.allow "RULE"]: the suppression covers every source
   line the annotated node spans.  Collected from expressions, value
   bindings and structure items — the three places the attribute
   naturally lands ([let[@lint.allow "X"] f = ...], [e [@lint.allow "X"]]). *)
let line_allows_of tbl (str : structure) =
  let acc = ref [] in
  let add attrs (loc : Location.t) =
    List.iter
      (fun a ->
        match allow_of_attr tbl a with
        | Some al -> acc := (al, loc.loc_start.pos_lnum, loc.loc_end.pos_lnum) :: !acc
        | None -> ())
      attrs
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          add e.pexp_attributes e.pexp_loc;
          Ast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          add vb.pvb_attributes vb.pvb_loc;
          Ast_iterator.default_iterator.value_binding self vb);
      structure_item =
        (fun self si ->
          (match si.pstr_desc with
          | Pstr_value (_, vbs) -> List.iter (fun vb -> add vb.pvb_attributes si.pstr_loc) vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self si);
    }
  in
  it.structure it str;
  !acc

(* ---------- module aliases and opens ---------- *)

let rec module_path (me : module_expr) =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> flatten_opt txt
  | Pmod_apply (fn, _) | Pmod_constraint (fn, _) -> module_path fn
  | _ -> None

(* In source order, so the first binding of a reused name wins. *)
let aliases_of (str : structure) =
  let acc = ref [] in
  let bind name me =
    match (name, module_path me) with
    | Some n, Some parts -> acc := (n, parts) :: !acc
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          bind mb.pmb_name.txt mb.pmb_expr;
          Ast_iterator.default_iterator.module_binding self mb);
      expr =
        (fun self e ->
          (match e.pexp_desc with Pexp_letmodule (n, me, _) -> bind n.txt me | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  List.rev !acc

let opens_of (str : structure) =
  List.filter_map
    (fun item ->
      match item.pstr_desc with Pstr_open { popen_expr; _ } -> module_path popen_expr | _ -> None)
    str

(* ---------- mutable record labels ---------- *)

let mutable_labels_of (str : structure) =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun self td ->
          (match td.ptype_kind with
          | Ptype_record labels ->
            List.iter
              (fun ld -> if ld.pld_mutable = Mutable then acc := ld.pld_name.txt :: !acc)
              labels
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration self td);
    }
  in
  it.structure it str;
  !acc

(* ---------- parsing + cache ---------- *)

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

let cache : (string, file) Hashtbl.t = Hashtbl.create 256

let load path =
  match Hashtbl.find_opt cache path with
  | Some f -> f
  | None ->
    let str, parse_failed = match parse_file path with s -> (s, false) | exception _ -> ([], true) in
    let allows = Hashtbl.create 8 in
    let f =
      {
        path;
        modname = modname_of_path path;
        str;
        parse_failed;
        file_allows = file_allows_of allows str;
        line_allows = line_allows_of allows str;
        aliases = aliases_of str;
        opens = opens_of str;
        mutable_labels = mutable_labels_of str;
      }
    in
    Hashtbl.replace cache path f;
    f

(* ---------- alias resolution + suppression checks ---------- *)

(* Expand the head of a flattened path through the file's module
   aliases (chains resolve too, with a depth cap against
   cycles). *)
let resolve_parts (f : file) (parts : string list) =
  let rec go depth parts =
    if depth > 8 then parts
    else
      match parts with
      | head :: rest -> (
        match List.assoc_opt head f.aliases with
        | Some target -> go (depth + 1) (target @ rest)
        | None -> parts)
      | [] -> parts
  in
  go 0 parts

let resolve_lid (f : file) lid =
  match flatten_opt lid with Some parts -> Some (resolve_parts f parts) | None -> None

(* Every allowance that covers the finding is marked used, not only the
   first one found. *)
let allowed (f : file) ~rule ~line =
  let hit = ref false in
  let use (al : allow) =
    al.used <- true;
    hit := true
  in
  List.iter (fun (al : allow) -> if al.rule = rule then use al) f.file_allows;
  List.iter
    (fun ((al : allow), first, last) ->
      if al.rule = rule && line >= first && line <= last then use al)
    f.line_allows;
  !hit

(* The file's allowances that no finding consulted, in line order. *)
let stale_allows (f : file) =
  List.map (fun (al, _, _) -> al) f.line_allows @ f.file_allows
  |> List.filter (fun (al : allow) -> not al.used)
  |> List.sort_uniq (fun (a : allow) (b : allow) -> Int.compare a.key b.key)
