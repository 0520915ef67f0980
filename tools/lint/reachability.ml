(* Module-level reachability graph over toplevel value bindings.

   Nodes are (Module, value) pairs — the innermost enclosing module
   name, which for these unwrapped libraries is how call sites actually
   spell references ([Eventq.push], [Hdr.record]).  Edges are syntactic
   mentions: an identifier inside a binding's body that resolves to
   another known binding.  Resolution expands the file's module aliases
   (Lint_source: [module F = Paced_sender.Fleet (M)] names [Fleet]) and
   tries an unqualified name against the enclosing module, the file's
   module and every module opened around it ([open M], [let open M in],
   [M.( ... )]).  A module packed as a
   first-class value, passed to a functor or [include]d uses its whole
   signature: the edge goes to every binding of that module.

   A name bound by an enclosing [let], [fun] or pattern is that local
   and produces no edge.  The graph deliberately over-approximates
   elsewhere: nested modules of the same name share their nodes.
   Calls through closures or functor parameters produce no edge.
   Over-approximation only widens the checked set (safe for ALLOC/RACE,
   which scan reachable bodies, and for DEAD001, which reports what
   nothing reaches);
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
  all_defs : def list;  (* every binding in file order, shadowed ones included *)
  members : (string, string) Hashtbl.t;  (* module -> its binding names *)
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

(* The innermost module a (resolved) module path names. *)
let last_module (f : Lint_source.file) parts =
  match List.rev (Lint_source.resolve_parts f parts) with m :: _ -> Some m | [] -> None

let named_module (f : Lint_source.file) (me : module_expr) =
  Option.bind (Lint_source.module_path me) (last_module f)

let build (files : Lint_source.file list) : t =
  let defs = Hashtbl.create 512 in
  let all_defs = ref [] in
  let members = Hashtbl.create 256 in
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
                    all_defs := d :: !all_defs;
                    (* First binding wins on duplicate names (e.g. a
                       shadowing re-definition): close enough for an
                       over-approximating graph. *)
                    if not (Hashtbl.mem defs (modname, name)) then begin
                      Hashtbl.replace defs (modname, name) d;
                      Hashtbl.add members modname name
                    end)
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
  { defs; all_defs = List.rev !all_defs; members; states; files }

(* ---------- reference extraction ---------- *)

(* The known defs an identifier may name, most likely first: an
   unqualified name against [current_module], the file's module, then
   [opened] (innermost first) and the file's toplevel opens; [M.x]
   against the innermost module segment. *)
let resolve (t : t) (f : Lint_source.file) ~current_module ?(opened = []) lid =
  let known key = Hashtbl.mem t.defs key in
  match Lint_source.resolve_lid f lid with
  | Some [ x ] ->
    (current_module :: f.Lint_source.modname
     :: (opened @ List.filter_map (last_module f) f.Lint_source.opens))
    |> List.fold_left (fun acc m -> if List.mem m acc then acc else m :: acc) []
    |> List.rev_map (fun m -> (m, x))
    |> List.filter known
  | Some parts when List.length parts >= 2 ->
    let n = List.length parts in
    List.filter known [ (List.nth parts (n - 2), List.nth parts (n - 1)) ]
  | _ -> []

(* Every binding of the module a module expression names (for a functor
   application, the functor's): the edges of a first-class pack, a
   functor argument or an [include]. *)
let whole_module (t : t) (f : Lint_source.file) (me : module_expr) =
  match named_module f me with
  | Some m -> List.map (fun x -> (m, x)) (Hashtbl.find_all t.members m)
  | None -> []

(* The variables a pattern binds. *)
let pat_vars (p : pattern) =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it p;
  !acc

(* An AST iterator that adds every reference it meets to [note].  An
   unqualified name bound by an enclosing [let], [fun], [function],
   [match], [try] or [for] inside the expression is that local, not a
   toplevel binding. *)
let ref_iterator (t : t) (f : Lint_source.file) ~current_module note =
  let opened = ref [] in
  let locals = ref [] in
  let whole me = List.iter note (whole_module t f me) in
  let scoped vars k =
    let saved = !locals in
    locals := vars @ saved;
    k ();
    locals := saved
  in
  let case self (c : case) =
    scoped (pat_vars c.pc_lhs) (fun () ->
        Option.iter (self.Ast_iterator.expr self) c.pc_guard;
        self.expr self c.pc_rhs)
  in
  {
    Ast_iterator.default_iterator with
    expr =
      (fun self ex ->
        match ex.pexp_desc with
        | Pexp_ident { txt = Lident x; _ } when List.mem x !locals -> ()
        | Pexp_ident { txt; _ } ->
          List.iter note (resolve t f ~current_module ~opened:!opened txt)
        | Pexp_let (rec_flag, vbs, body) ->
          let vars = List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs in
          let bind () = List.iter (fun vb -> self.expr self vb.pvb_expr) vbs in
          if rec_flag = Asttypes.Recursive then scoped vars bind else bind ();
          scoped vars (fun () -> self.expr self body)
        | Pexp_fun (_, default, p, body) ->
          Option.iter (self.expr self) default;
          scoped (pat_vars p) (fun () -> self.expr self body)
        | Pexp_function cases -> List.iter (case self) cases
        | Pexp_match (e, cases) | Pexp_try (e, cases) ->
          self.expr self e;
          List.iter (case self) cases
        | Pexp_for (p, lo, hi, _, body) ->
          self.expr self lo;
          self.expr self hi;
          scoped (pat_vars p) (fun () -> self.expr self body)
        | Pexp_open ({ popen_expr; _ }, body) ->
          let saved = !opened in
          Option.iter (fun m -> opened := m :: saved) (named_module f popen_expr);
          self.expr self body;
          opened := saved
        | Pexp_pack me ->
          whole me;
          Ast_iterator.default_iterator.expr self ex
        | _ -> Ast_iterator.default_iterator.expr self ex);
    module_expr =
      (fun self me ->
        (match me.pmod_desc with Pmod_apply (_, arg) -> whole arg | _ -> ());
        Ast_iterator.default_iterator.module_expr self me);
    structure_item =
      (fun self si ->
        (match si.pstr_desc with Pstr_include { pincl_mod; _ } -> whole pincl_mod | _ -> ());
        Ast_iterator.default_iterator.structure_item self si);
  }

(* Resolved references from an expression to known defs. *)
let refs_of_expr (t : t) (f : Lint_source.file) ~current_module (e : expression) :
    (string * string) list =
  let acc = ref [] in
  let it = ref_iterator t f ~current_module (fun key -> acc := key :: !acc) in
  it.expr it e;
  List.sort_uniq compare !acc

(* References made by a file's module initialisers: everything outside
   its named toplevel bindings ([let () = ...], bare expressions,
   functor applications, [include]s, packs in module expressions). *)
let init_refs (t : t) (f : Lint_source.file) : (string * string) list =
  let acc = ref [] in
  let note key = acc := key :: !acc in
  let rec items modname str =
    let it = ref_iterator t f ~current_module:modname note in
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter (fun vb -> if binding_name vb = None then it.expr it vb.pvb_expr) vbs
        | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> module_expr it sub pmb_expr
        | Pstr_recmodule mbs ->
          List.iter
            (fun mb -> Option.iter (fun sub -> module_expr it sub mb.pmb_expr) mb.pmb_name.txt)
            mbs
        | Pstr_eval _ | Pstr_include _ -> it.structure_item it item
        | _ -> ())
      str
  and module_expr it sub (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure str -> items sub str
    | Pmod_functor (_, body) | Pmod_constraint (body, _) -> module_expr it sub body
    | _ -> it.module_expr it me
  in
  items f.Lint_source.modname f.Lint_source.str;
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
