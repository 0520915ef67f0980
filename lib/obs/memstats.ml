(* Memory observatory: always-on GC telemetry plus a live-word census
   attributed to the interned Profile category tree.

   Symmetric with the cycle profiler: where [Profile] answers "where
   did the nanoseconds go", this module answers "where do the words
   live".  Attribution is pull-style — subsystems register a word
   provider (usually an analytic [words] accessor: store backends,
   the rate-clock pool, obs itself) under a category path, and the
   census samples every provider at report time.  Nothing here touches
   a hot path, emits a trace event, or registers with a domain's
   metrics context, so determinism digests, tables and run reports stay
   byte-identical whether the observatory is consulted or not. *)

(* GC probes live in a dedicated registry, NOT a domain's
   [Metrics.current] context: GC word counts are not jobs-invariant
   (each domain allocates its own minor heaps), and the run report's
   rendering of the context must stay byte-identical at any [--jobs]. *)
let registry = Metrics.create ()

let () =
  Metrics.probe registry "gc.minor_words" (fun () -> Gc.minor_words ());
  Metrics.probe registry "gc.major_words" (fun () ->
      let s = Gc.quick_stat () in
      s.Gc.major_words);
  Metrics.probe registry "gc.promoted_words" (fun () ->
      let s = Gc.quick_stat () in
      s.Gc.promoted_words);
  Metrics.probe registry "gc.heap_words" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.heap_words);
  Metrics.probe registry "gc.compactions" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.compactions);
  Metrics.probe registry "gc.minor_collections" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.minor_collections);
  Metrics.probe registry "gc.major_collections" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.major_collections);
  (* [Gc.stat] walks the heap — report-time cost, the price of an
     exact live count at the scrape. *)
  Metrics.probe registry "gc.live_words" (fun () ->
      float_of_int (Gc.stat ()).Gc.live_words)

let live_words () = (Gc.stat ()).Gc.live_words
let dump () = Metrics.dump registry

(* ---- census sources ----------------------------------------------- *)

type source = {
  src_id : int;  (* Profile registry id, under the "mem" root *)
  src_full : string;
  src_words : unit -> int;
  src_live : bool;  (* pull provider over live state vs snapshot note *)
}

let mem_root = [ "mem" ]

(* Registered during sequential setup and sampled at report time,
   always on the main domain; parallel jobs never touch the census —
   same single-domain contract as the Profile registry. *)
let sources : source list ref = ref []

let add_source ~path ~live words =
  let id = Profile.intern_id (mem_root @ path) in
  let src =
    { src_id = id; src_full = Profile.id_full id; src_words = words; src_live = live }
  in
  (* Re-registering a path replaces the provider (a fresh simulation
     replaces a dead one's stores), keeping the original census
     position so output order stays deterministic. *)
  let rec replace seen = function
    | [] -> List.rev (src :: seen)
    | s :: rest ->
      if s.src_id = id then List.rev_append seen (src :: rest)
      else replace (s :: seen) rest
  in
  sources := replace [] !sources

let register ~path words = add_source ~path ~live:true words
let note ~path words = add_source ~path ~live:false (fun () -> words)

let reset_census () = sources := []

let census () =
  List.map (fun s -> (s.src_id, s.src_full, s.src_words ())) !sources

(* DEAD001 here and below: totals the memory tests check. *)
let[@lint.allow "DEAD001"] attributed_words () =
  List.fold_left (fun acc s -> acc + s.src_words ()) 0 !sources

let[@lint.allow "DEAD001"] live_attributed_words () =
  List.fold_left
    (fun acc s -> if s.src_live then acc + s.src_words () else acc)
    0 !sources

(* Live providers report heap the process retains right now, so their
   sum can never exceed the GC's live-word count; a violation means a
   double-counted or stale provider.  Snapshot notes describe memory
   measured at some earlier point (possibly freed since), so they are
   excluded from the invariant. *)
let conservation_ok () = live_attributed_words () <= live_words ()

(* ---- GC sample track ----------------------------------------------

   A bounded ring of labelled GC snapshots — the window track of the
   observatory.  Surfaces call [sample] at phase boundaries (run
   start/end, per sweep cell); memory stays constant for arbitrarily
   long runs, oldest windows evicted first. *)

type sample = {
  sm_label : string;
  sm_minor_words : float;
  sm_promoted_words : float;
  sm_major_words : float;
  sm_heap_words : int;
  sm_compactions : int;
}

let max_samples = 64

(* Same main-domain-only contract as [sources] above. *)
let samples_ring : sample option array = Array.make max_samples None

let samples_n = ref 0
let samples_evicted = ref 0

let sample ~label =
  let s = Gc.quick_stat () in
  let sm =
    {
      sm_label = label;
      sm_minor_words = s.Gc.minor_words;
      sm_promoted_words = s.Gc.promoted_words;
      sm_major_words = s.Gc.major_words;
      sm_heap_words = s.Gc.heap_words;
      sm_compactions = s.Gc.compactions;
    }
  in
  if !samples_n = max_samples then incr samples_evicted;
  samples_ring.(!samples_n mod max_samples) <- Some sm;
  incr samples_n

let samples () =
  let n = Int.min !samples_n max_samples in
  let first = if !samples_n > max_samples then !samples_n mod max_samples else 0 in
  List.init n (fun i ->
      match samples_ring.((first + i) mod max_samples) with
      | Some sm -> sm
      | None -> assert false)

let reset_samples () =
  Array.fill samples_ring 0 max_samples None;
  samples_n := 0;
  samples_evicted := 0

(* ---- renderers ----------------------------------------------------- *)

(* Sum of the census over a registry subtree: a node's words are its
   own provider (if any) plus all descendants'.  Providers sit at
   leaves in practice, but nothing requires it. *)
let subtree_words census_rows id =
  let direct id =
    List.fold_left
      (fun acc (sid, _, w) -> if sid = id then acc + w else acc)
      0 census_rows
  in
  let rec go id =
    List.fold_left (fun acc kid -> acc + go kid) (direct id) (Profile.id_children id)
  in
  go id

(* Indented live-word tree over the "mem" subtree of the category
   registry, registration order (deterministic). *)
let tree_table () =
  let rows = census () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "live words by subsystem\n";
  (match Profile.id_of_path mem_root with
  | None -> Buffer.add_string buf "  (no census sources registered)\n"
  | Some root ->
    let total = subtree_words rows root in
    let rec emit depth id =
      let w = subtree_words rows id in
      let pct = if total = 0 then 0.0 else 100.0 *. float_of_int w /. float_of_int total in
      Buffer.add_string buf
        (Printf.sprintf "  %-40s %12d  %5.1f%%\n"
           (String.make (2 * depth) ' ' ^ Profile.id_name id)
           w pct);
      List.iter (emit (depth + 1)) (Profile.id_children id)
    in
    List.iter (emit 0) (Profile.id_children root);
    Buffer.add_string buf (Printf.sprintf "  %-40s %12d\n" "total attributed" total));
  Buffer.contents buf

let retention_table () =
  let rows = List.map (fun s -> (s.src_full, s.src_words (), s.src_live)) !sources in
  let attributed = List.fold_left (fun acc (_, w, _) -> acc + w) 0 rows in
  let live_sum =
    List.fold_left (fun acc (_, w, l) -> if l then acc + w else acc) 0 rows
  in
  let live = live_words () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "retention (words)\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-44s %14s %7s\n" "source" "words" "%live");
  List.iter
    (fun (full, w, is_live) ->
      let pct = if live = 0 then 0.0 else 100.0 *. float_of_int w /. float_of_int live in
      Buffer.add_string buf
        (Printf.sprintf "  %-44s %14d %6.2f%%%s\n" full w pct
           (if is_live then "" else "  (note)")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "  %-44s %14d\n" "attributed total" attributed);
  Buffer.add_string buf
    (Printf.sprintf "  %-44s %14d\n" "attributed live (excl. notes)" live_sum);
  Buffer.add_string buf (Printf.sprintf "  %-44s %14d\n" "gc live words" live);
  Buffer.add_string buf
    (Printf.sprintf "  conservation (attributed live <= gc live): %s\n"
       (if live_sum <= live then "ok" else "VIOLATED"));
  Buffer.contents buf

let samples_table () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "gc samples\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-28s %14s %14s %14s %12s %5s\n" "label" "minor_words"
       "promoted" "major_words" "heap_words" "cmpct");
  List.iter
    (fun sm ->
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %14.0f %14.0f %14.0f %12d %5d\n" sm.sm_label
           sm.sm_minor_words sm.sm_promoted_words sm.sm_major_words sm.sm_heap_words
           sm.sm_compactions))
    (samples ());
  if !samples_evicted > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  (%d oldest samples evicted)\n" !samples_evicted);
  Buffer.contents buf

let report () =
  String.concat "\n" [ retention_table (); tree_table (); samples_table (); dump () ]

(* JSON fragment (an object, no trailing newline) with the census,
   conservation verdict and, unless [~gc:false], the GC live-word count
   and counters — embedded by the run report (census only: GC numbers
   vary between runs) and the pacer bench. *)
let to_json ?(gc = true) () =
  let buf = Buffer.create 512 in
  let rows = List.map (fun s -> (s.src_full, s.src_words (), s.src_live)) !sources in
  let attributed = List.fold_left (fun acc (_, w, _) -> acc + w) 0 rows in
  let live_sum =
    List.fold_left (fun acc (_, w, l) -> if l then acc + w else acc) 0 rows
  in
  let live = live_words () in
  let s = Gc.quick_stat () in
  Buffer.add_string buf "{\"sources\":[";
  List.iteri
    (fun i (full, w, is_live) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"path\":%S,\"words\":%d,\"live\":%b}" full w is_live))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "],\"attributed_words\":%d,\"live_attributed_words\":%d" attributed
       live_sum);
  if gc then
    Buffer.add_string buf
      (Printf.sprintf
         ",\"live_words\":%d,\"conservation_ok\":%b,\"gc\":{\"minor_words\":%.0f,\
          \"promoted_words\":%.0f,\"major_words\":%.0f,\"heap_words\":%d,\"compactions\":%d,\
          \"minor_collections\":%d,\"major_collections\":%d}}"
         live (live_sum <= live) s.Gc.minor_words s.Gc.promoted_words s.Gc.major_words
         s.Gc.heap_words s.Gc.compactions s.Gc.minor_collections s.Gc.major_collections)
  else Buffer.add_string buf (Printf.sprintf ",\"conservation_ok\":%b}" (live_sum <= live));
  Buffer.contents buf
