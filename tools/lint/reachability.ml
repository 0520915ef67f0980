(* Module-level reachability graph over toplevel value bindings.

   Nodes are (Module, value) pairs — the innermost enclosing module
   name, which for these unwrapped libraries is how call sites actually
   spell references ([Eventq.push], [Hdr.record]).  Edges are syntactic
   mentions: an identifier inside a binding's body that resolves (after
   toplevel-alias expansion) to another known binding.

   The graph deliberately over-approximates: a local [let] shadowing a
   toplevel name still produces the edge, and calls through closures or
   functor parameters produce none.  Over-approximation only widens the
   checked set (safe for ALLOC/RACE, which scan reachable bodies);
   under-approximation through higher-order calls is the documented
   limit of a syntactic tool.

   Two derived indexes ride along:
   - hot roots: bindings annotated [@hot] — the ALLOC entry points;
   - mutable toplevel state: zero-arity bindings whose initializer
     (after inlining one step through same-module helper calls)
     syntactically creates mutable storage, minus those wrapped in the
     recognised protections (Atomic.make / Domain.DLS.new_key /
     Mutex.create). *)

open Parsetree

type def = {
  d_file : Lint_source.file;
  d_module : string;
  d_name : string;
  d_loc : Location.t;
  d_expr : expression;
  d_arity : int;  (* leading fun parameters of the binding *)
  d_hot : bool;
}

type state = {
  s_module : string;
  s_name : string;
  s_file : Lint_source.file;
  s_loc : Location.t;
  s_protected : bool;
}

type t = {
  defs : (string * string, def) Hashtbl.t;
  states : (string * string, state) Hashtbl.t;
  files : Lint_source.file list;
}

let rec arity_of (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> 1 + arity_of body
  | Pexp_newtype (_, body) -> arity_of body
  | Pexp_constraint (body, _) -> arity_of body
  | _ -> 0

let binding_name (vb : value_binding) =
  let rec pat_name (p : pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> pat_name p
    | _ -> None
  in
  pat_name vb.pvb_pat

(* ---------- mutable-state recognition ---------- *)

let protected_heads =
  [ [ "Atomic"; "make" ]; [ "Domain"; "DLS"; "new_key" ]; [ "Mutex"; "create" ] ]

let mutable_creators =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Buffer"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Array"; "make_matrix" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
  ]

let head_ident (e : expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> Some txt
  | _ -> None

let resolves_to (f : Lint_source.file) lid targets =
  match Lint_source.resolve_lid f lid with
  | Some parts -> List.mem parts targets
  | None -> false

(* Does [e] syntactically create mutable storage?  [mutable_labels] are
   the labels declared [mutable] in the file whose record types are in
   scope (the defining file's, or the helper's when inlining).
   Subtrees rooted at a protected constructor are skipped: the state
   inside [Atomic.make (ref 0)] is owned by the protection. *)
let protected_init (f : Lint_source.file) (e : expression) =
  match head_ident e with
  | Some lid -> resolves_to f lid protected_heads
  | None -> false

let creates_mutable (f : Lint_source.file) (e : expression) =
  match head_ident e with
  | Some lid when resolves_to f lid protected_heads -> false
  | _ ->
    let found = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self ex ->
            match head_ident ex with
            | Some lid when resolves_to f lid protected_heads -> ()  (* skip subtree *)
            | _ ->
              (match ex.pexp_desc with
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
                when resolves_to f txt mutable_creators ->
                found := true
              | Pexp_array _ -> found := true
              | Pexp_record (fields, _) ->
                if
                  List.exists
                    (fun ((lbl : Longident.t Location.loc), _) ->
                      match Longident.last lbl.Location.txt with
                      | l -> List.mem l f.Lint_source.mutable_labels
                      | exception _ -> false)
                    fields
                then found := true
              | _ -> ());
              Ast_iterator.default_iterator.expr self ex);
      }
    in
    it.expr it e;
    !found

(* ---------- graph construction ---------- *)

let build (files : Lint_source.file list) : t =
  let defs = Hashtbl.create 512 in
  let states = Hashtbl.create 64 in
  List.iter
    (fun (f : Lint_source.file) ->
      let rec walk_structure modname str =
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match binding_name vb with
                  | None -> ()
                  | Some name ->
                    let d =
                      {
                        d_file = f;
                        d_module = modname;
                        d_name = name;
                        d_loc = vb.pvb_loc;
                        d_expr = vb.pvb_expr;
                        d_arity = arity_of vb.pvb_expr;
                        d_hot = Lint_source.is_hot_attrs vb.pvb_attributes;
                      }
                    in
                    (* First binding wins on duplicate names (e.g. a
                       shadowing re-definition): close enough for an
                       over-approximating graph. *)
                    if not (Hashtbl.mem defs (modname, name)) then
                      Hashtbl.replace defs (modname, name) d)
                vbs
            | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } ->
              walk_module_expr sub pmb_expr
            | Pstr_recmodule mbs ->
              List.iter
                (fun mb ->
                  match mb.pmb_name.txt with
                  | Some sub -> walk_module_expr sub mb.pmb_expr
                  | None -> ())
                mbs
            | _ -> ())
          str
      and walk_module_expr sub (me : module_expr) =
        match me.pmod_desc with
        | Pmod_structure str -> walk_structure sub str
        | Pmod_functor (_, body) -> walk_module_expr sub body
        | Pmod_constraint (me, _) -> walk_module_expr sub me
        | _ -> ()
      in
      walk_structure f.modname f.str)
    files;
  (* Second pass: classify zero-arity bindings as mutable state.  The
     initializer is inspected directly, then — when its head resolves
     to another known def — one step through that helper's body, so
     [let default = create ()] with [create () = { tbl = Hashtbl.create 64 }]
     in the same module is recognised. *)
  Hashtbl.iter
    (fun key (d : def) ->
      if d.d_arity = 0 then begin
        let prot = protected_init d.d_file d.d_expr in
        let direct = creates_mutable d.d_file d.d_expr in
        let inlined =
          (not direct) && (not prot)
          &&
          match head_ident d.d_expr with
          | Some lid -> (
            match Lint_source.resolve_lid d.d_file lid with
            | Some [ name ] -> (
              match Hashtbl.find_opt defs (d.d_module, name) with
              | Some helper -> creates_mutable helper.d_file helper.d_expr
              | None -> false)
            | Some [ m; name ] -> (
              match Hashtbl.find_opt defs (m, name) with
              | Some helper -> creates_mutable helper.d_file helper.d_expr
              | None -> false)
            | _ -> false)
          | None -> false
        in
        (* Protected initializers are never recorded: Atomic / DLS /
           Mutex wrapping is exactly the discipline the rules demand. *)
        if (not prot) && (direct || inlined) then
          Hashtbl.replace states key
            {
              s_module = d.d_module;
              s_name = d.d_name;
              s_file = d.d_file;
              s_loc = d.d_loc;
              s_protected = false;
            }
      end)
    defs;
  { defs; states; files }

(* ---------- reference extraction ---------- *)

(* Resolved references from an expression to known defs.  Unqualified
   names resolve within [current_module] (and, for nested modules, the
   enclosing file's toplevel module); [M.x] resolves through the
   innermost module segment. *)
let refs_of_expr (t : t) (f : Lint_source.file) ~current_module (e : expression) :
    (string * string) list =
  let acc = ref [] in
  let note key = if Hashtbl.mem t.defs key then acc := key :: !acc in
  let check lid =
    match Lint_source.resolve_lid f lid with
    | Some [ x ] ->
      note (current_module, x);
      if current_module <> f.Lint_source.modname then note (f.Lint_source.modname, x)
    | Some parts when List.length parts >= 2 ->
      let n = List.length parts in
      let m = List.nth parts (n - 2) in
      let x = List.nth parts (n - 1) in
      note (m, x)
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with Pexp_ident { txt; _ } -> check txt | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  List.sort_uniq compare !acc

(* BFS closure from [roots]; the result maps every reached node to its
   BFS parent (roots map to themselves), so callers can reconstruct a
   witness path for diagnostics.

   [expand_init] controls whether the search continues THROUGH
   zero-arity bindings.  Their initializers run once at module load,
   so for the ALLOC rules a mention inside one is not a call made by
   the hot path ([Timing_wheel.e_sweep = Profile.intern [...]] must
   not drag the whole interner into the hot set); the RACE rules keep
   the default over-approximation. *)
let reach_from ?(expand_init = true) (t : t) (roots : (string * string) list) :
    (string * string, string * string) Hashtbl.t =
  let parent = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if Hashtbl.mem t.defs r && not (Hashtbl.mem parent r) then begin
        Hashtbl.replace parent r r;
        Queue.add r queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    match Hashtbl.find_opt t.defs node with
    | None -> ()
    | Some d when (not expand_init) && d.d_arity = 0 -> ()
    | Some d ->
      List.iter
        (fun target ->
          if not (Hashtbl.mem parent target) then begin
            Hashtbl.replace parent target node;
            Queue.add target queue
          end)
        (refs_of_expr t d.d_file ~current_module:d.d_module d.d_expr)
  done;
  parent

let hot_roots (t : t) : def list =
  Hashtbl.fold (fun _ d acc -> if d.d_hot then d :: acc else acc) t.defs []
  |> List.sort (fun a b -> compare (a.d_module, a.d_name) (b.d_module, b.d_name))

let find_def (t : t) key = Hashtbl.find_opt t.defs key
let find_state (t : t) key = Hashtbl.find_opt t.states key

let witness_path parent ~node =
  let rec go acc node =
    match Hashtbl.find_opt parent node with
    | Some p when p <> node && List.length acc < 6 -> go (node :: acc) p
    | _ -> node :: acc
  in
  go [] node
