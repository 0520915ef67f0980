(* Diagnostics infrastructure shared by every lint rule module:
   violation collection, the three output formats (text, JSON, SARIF
   2.1.0) and the ratchet baseline.

   The ratchet freezes pre-existing findings: BASELINE.json records a
   count per (file, rule) pair, and a run fails only when some pair's
   live count exceeds its frozen count — so legacy debt does not block
   CI while any *new* finding does.  Counts (rather than exact lines)
   make the baseline robust against unrelated edits shifting line
   numbers. *)

type violation = { file : string; line : int; rule : string; msg : string }

(* Catalogue of every rule the suite can emit, used for SARIF rule
   metadata and --help.  Kept here so adding a rule in one of the
   rules_* modules forces the catalogue update (SARIF consumers index
   results by ruleId). *)
let catalogue =
  [
    ("DET001", "wall-clock read in simulated code");
    ("DET002", "global Random.* instead of an explicit Prng stream");
    ("DET003", "polymorphic comparison on a time-valued operand");
    ("DET004", "Obj.magic / order-leaking Hashtbl iteration");
    ("DET005", "wrapping Int64 conversion of a time-valued operand");
    ("MLI001", "lib/ module without an .mli");
    ("RACE001", "parallel closure captures unprotected mutable toplevel state");
    ("RACE002", "parallel closure reaches unprotected mutable toplevel state");
    ("RACE003", "Domain.spawn outside lib/parallel");
    ("RACE004", "Atomic read-modify-write split into get and set");
    ("ALLOC001", "closure or partial application on a [@hot] path");
    ("ALLOC002", "tuple/record/list/array construction on a [@hot] path");
    ("ALLOC003", "boxing or formatting call on a [@hot] path");
    ("HOT001", "Domain.DLS.get lookup on a [@hot] path");
    ("HOT002", "Float.round conversion on a [@hot] path");
    ("DEAD001", "lib/ export no root reaches: used nowhere, only in its module, or only by tests");
    ("ALLOW001", "[@lint.allow] that suppresses no finding");
    ("PARSE", "file does not parse");
  ]

let violations : violation list ref = ref []
let report ~file ~line ~rule msg = violations := { file; line; rule; msg } :: !violations

let sorted () =
  List.sort
    (fun a b ->
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = Int.compare a.line b.line in
        if c <> 0 then c
        else
          let c = String.compare a.rule b.rule in
          if c <> 0 then c else String.compare a.msg b.msg)
    !violations

(* ---------- JSON writing (no external dependency) ---------- *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_str b s =
  Buffer.add_char b '"';
  json_escape b s;
  Buffer.add_char b '"'

let to_json ~frozen vs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"softtimers-lint/1\",\n  \"violations\": [";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    { \"file\": ";
      add_str b v.file;
      Buffer.add_string b (Printf.sprintf ", \"line\": %d, \"rule\": " v.line);
      add_str b v.rule;
      Buffer.add_string b ", \"message\": ";
      add_str b v.msg;
      Buffer.add_string b
        (Printf.sprintf ", \"baseline\": %b }" (frozen v));
      ())
    vs;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* SARIF 2.1.0, the minimal shape GitHub code scanning and IDE SARIF
   viewers accept: one run, one driver, rules catalogue, results with
   physical locations.  Baseline'd findings carry a suppression entry
   so viewers show them greyed out rather than as regressions. *)
let to_sarif ~frozen vs =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    "{\n\
    \  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n\
    \  \"version\": \"2.1.0\",\n\
    \  \"runs\": [ {\n\
    \    \"tool\": { \"driver\": {\n\
    \      \"name\": \"softtimers-lint\",\n\
    \      \"informationUri\": \"https://example.invalid/softtimers\",\n\
    \      \"rules\": [";
  List.iteri
    (fun i (id, desc) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n        { \"id\": ";
      add_str b id;
      Buffer.add_string b ", \"shortDescription\": { \"text\": ";
      add_str b desc;
      Buffer.add_string b " } }")
    catalogue;
  Buffer.add_string b "\n      ]\n    } },\n    \"results\": [";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n      { \"ruleId\": ";
      add_str b v.rule;
      Buffer.add_string b ", \"level\": \"error\", \"message\": { \"text\": ";
      add_str b v.msg;
      Buffer.add_string b " },\n        \"locations\": [ { \"physicalLocation\": {";
      Buffer.add_string b " \"artifactLocation\": { \"uri\": ";
      add_str b v.file;
      Buffer.add_string b
        (Printf.sprintf " }, \"region\": { \"startLine\": %d } } } ]"
           (if v.line > 0 then v.line else 1));
      if frozen v then
        Buffer.add_string b
          ",\n        \"suppressions\": [ { \"kind\": \"external\", \"justification\": \
           \"frozen in tools/lint/BASELINE.json (ratchet)\" } ]";
      Buffer.add_string b " }")
    vs;
  Buffer.add_string b "\n    ]\n  } ]\n}\n";
  Buffer.contents b

(* ---------- minimal JSON reader for the baseline ---------- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c) in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "bad unicode escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 128 then Buffer.add_char b (Char.chr code)
          else Buffer.add_char b '?'
        | c -> fail (Printf.sprintf "bad escape '%c'" c));
        loop ()
      | c -> Buffer.add_char b c; advance (); loop ()
    in
    loop ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Jstr (parse_string ())
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); Jobj [] end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ()
          | '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Jobj (List.rev !fields)
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); Jlist [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements ()
          | ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Jlist (List.rev !items)
      end
    | 't' -> pos := !pos + 4; Jbool true
    | 'f' -> pos := !pos + 5; Jbool false
    | 'n' -> pos := !pos + 4; Jnull
    | c when c = '-' || (c >= '0' && c <= '9') ->
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && num_char s.[!pos] do advance () done;
      (try Jnum (float_of_string (String.sub s start (!pos - start)))
       with _ -> fail "bad number")
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---------- ratchet baseline ---------- *)

(* (file, rule) -> frozen count *)
type baseline = (string * string, int) Hashtbl.t

let counts_of vs : ((string * string) * int) list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let k = (v.file, v.rule) in
      Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0))
    vs;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
  |> List.sort (fun ((f1, r1), _) ((f2, r2), _) ->
         let c = String.compare f1 f2 in
         if c <> 0 then c else String.compare r1 r2)

let write_baseline path vs =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"schema\": \"softtimers-lint-baseline/1\",\n  \"entries\": [";
  List.iteri
    (fun i ((file, rule), count) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    { \"file\": ";
      add_str b file;
      Buffer.add_string b ", \"rule\": ";
      add_str b rule;
      Buffer.add_string b (Printf.sprintf ", \"count\": %d }" count))
    (counts_of vs);
  Buffer.add_string b "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let load_baseline path : baseline =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let tbl = Hashtbl.create 64 in
  (match parse_json src with
  | Jobj fields -> (
    match List.assoc_opt "entries" fields with
    | Some (Jlist entries) ->
      List.iter
        (function
          | Jobj e -> (
            match
              (List.assoc_opt "file" e, List.assoc_opt "rule" e, List.assoc_opt "count" e)
            with
            | Some (Jstr f), Some (Jstr r), Some (Jnum c) ->
              Hashtbl.replace tbl (f, r) (int_of_float c)
            | _ -> raise (Bad_json "baseline entry missing file/rule/count"))
          | _ -> raise (Bad_json "baseline entry is not an object"))
        entries
    | _ -> raise (Bad_json "baseline has no \"entries\" list"))
  | _ -> raise (Bad_json "baseline is not an object"));
  tbl

(* Partition the live findings against the frozen counts: every
   violation of a (file, rule) pair whose live count exceeds its frozen
   count is "new" (line numbers inside a frozen pair are not tracked,
   so the whole pair surfaces for inspection when it grows). *)
let against_baseline (bl : baseline) vs =
  let live = counts_of vs in
  let grown =
    List.filter_map
      (fun ((file, rule), c) ->
        let frozen = try Hashtbl.find bl (file, rule) with Not_found -> 0 in
        if c > frozen then Some (file, rule) else None)
      live
  in
  let is_new v = List.mem (v.file, v.rule) grown in
  let fresh = List.filter is_new vs in
  let frozen = List.filter (fun v -> not (is_new v)) vs in
  (fresh, frozen)
