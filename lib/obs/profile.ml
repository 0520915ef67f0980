(* Hierarchical cycle attribution over the simulator's cost model.

   Every unit of CPU time the simulator charges (via [Cpu.charge], the
   single choke point through which all busy time flows) carries an
   attribution value ([attr]) naming a category path such as
   ["interrupt"; "fxp0-rx"; "pollution"].  When a profiler is installed
   the charge is added to a per-CPU cell for that path; when none is
   installed the charge site costs a single load and branch, mirroring
   the [Trace] discipline, so instrumentation can live in hot paths
   permanently.

   Because attribution happens at the same place busy time is
   accumulated, the conservation invariant — the attribution tree total
   equals [Cpu.busy_ns] for every CPU — holds by construction; a qcheck
   property in test/test_profile.ml checks it across random experiments
   and seeds anyway.

   Category paths are interned into a global registry (ids are stable
   within a process run and assigned in deterministic program order), so
   the hot path is an array index plus an int64 add.  [Seq] attributions
   split a single submitted quantum across several categories — e.g. an
   interrupt quantum into save/restore, cache/TLB pollution and handler
   body — and consume their parts in order even when the quantum is
   delivered in several charges due to preemption. *)

(* DET004 note: this module lives in lib/obs, a result-producing scope,
   so it must not use Hashtbl.iter/fold.  The interning table below is
   only ever probed with find_opt/replace; all reporting walks the
   deterministic [reg] array. *)

type info = { name : string; parent : int; full : string }

(* RACE002: one registry serves every domain, and parallel jobs do
   intern: [Interrupt.line] interns its line's paths whenever a machine
   is built.  Interning is a cold path and holds [reg_lock], so each
   path gets exactly one id.  Readers do not lock: [add_info] stores the
   entry (and the grown array) before it publishes the count through
   the atomic [reg_n], so a reader that loads the count first sees
   every entry below it. *)
let reg_lock = Mutex.create ()
let reg : info array ref = ref [||] [@@lint.allow "RACE002"]
let reg_n = Atomic.make 0
let index : (string, int) Hashtbl.t = Hashtbl.create 64 [@@lint.allow "RACE002"]

let add_info info =
  let n = Atomic.get reg_n in
  let cap = Array.length !reg in
  if n = cap then begin
    let grown = Array.make (Int.max 16 (2 * cap)) info in
    Array.blit !reg 0 grown 0 n;
    reg := grown
  end;
  !reg.(n) <- info;
  Atomic.set reg_n (n + 1);
  n

(* ';' separates collapsed-stack frames and ' ' separates the frame
   stack from its value, so neither may appear inside a segment. *)
let sanitize seg =
  String.map (fun c -> if c = ';' || c = ' ' || c = '\n' then '_' else c) seg

let intern_path segs =
  if segs = [] then invalid_arg "Profile.intern: empty path";
  Mutex.protect reg_lock @@ fun () ->
  let rec go parent full = function
    | [] -> parent
    | seg :: rest ->
      let seg = sanitize seg in
      let full = if String.equal full "" then seg else full ^ ";" ^ seg in
      let id =
        match Hashtbl.find_opt index full with
        | Some id -> id
        | None ->
          let id = add_info { name = seg; parent; full } in
          Hashtbl.replace index full id;
          id
      in
      go id full rest
  in
  go (-1) "" segs

type attr =
  | Leaf of int
  | Seq of seq

and seq = { mutable parts : (int * Time_ns.span) list; tail : attr }

let intern segs = Leaf (intern_path segs)

(* ALLOC001/2: hot callers build a seq per quantum only after
   [enabled ()] said a profiler is installed. *)
let seq parts ~tail =
  let parts =
    List.filter_map
      (fun (a, span) ->
        if Int64.compare (Time_ns.to_ns span) 0L <= 0 then None
        else
          match a with
          | Leaf id -> Some (id, span)
          | Seq _ -> invalid_arg "Profile.seq: parts must be interned leaves")
      parts
  in
  Seq { parts; tail }
[@@lint.allow "ALLOC001"] [@@lint.allow "ALLOC002"]

(* ------------------------------------------------------------------ *)
(* Profiler instances                                                  *)

type cell = { mutable self : Time_ns.span; mutable charges : int }

type dispatch_row = {
  source : string;
  mutable fires : int;
  mutable delay_sum : Time_ns.span;
  mutable delay_max : Time_ns.span;
  delays : Hdr.t;
}

type t = {
  mutable cells : cell array array; (* cpu -> path id -> cell *)
  mutable events : int array; (* path id -> occurrence count *)
  mutable disp : dispatch_row list; (* reverse registration order *)
  mutable ndisp : int;
}

let create () = { cells = [||]; events = [||]; disp = []; ndisp = 0 }

(* The installed profiler is domain-local: each domain of the parallel
   experiment runner (lib/parallel) profiles — or, usually, doesn't —
   independently, and worker simulations can never race on a profiler
   installed by the main domain. *)
let sink : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* Process-wide count of installed profilers, over all domains: while it
   is zero every charge site skips its [Domain.DLS] lookup (the same
   guard as [Trace]'s emitters). *)
let installs = Atomic.make 0

let set_sink v =
  let cell = Domain.DLS.get sink in
  (match (!cell, v) with
  | None, Some _ -> Atomic.incr installs
  | Some _, None -> Atomic.decr installs
  | None, None | Some _, Some _ -> ());
  cell := v

let install p = set_sink (Some p)
let uninstall () = set_sink None
(* HOT001: the lookup runs only behind a nonzero [installs], i.e. while
   some domain profiles; disarmed, a charge site pays one atomic load. *)
let[@inline] installed () = if Atomic.get installs = 0 then None else !(Domain.DLS.get sink)
[@@lint.allow "HOT001"]

let[@inline] [@hot] enabled () = Atomic.get installs > 0 && Option.is_some !(Domain.DLS.get sink)
[@@lint.allow "HOT001"]

(* ALLOC001/2: row growth, once per CPU and per newly interned path, with
   a profiler installed. *)
let cpu_row p cpu =
  if cpu >= Array.length p.cells then begin
    let grown = Array.make (cpu + 1) [||] in
    Array.blit p.cells 0 grown 0 (Array.length p.cells);
    p.cells <- grown
  end;
  let row = p.cells.(cpu) in
  if Array.length row < Atomic.get reg_n then begin
    let n = Int.max (Atomic.get reg_n) (2 * Array.length row) in
    let grown =
      Array.init n (fun i ->
          if i < Array.length row then row.(i) else { self = 0L; charges = 0 })
    in
    p.cells.(cpu) <- grown;
    grown
  end
  else row
[@@lint.allow "ALLOC001"] [@@lint.allow "ALLOC002"]

let bump p ~cpu id span =
  let row = cpu_row p cpu in
  let c = row.(id) in
  c.self <- Time_ns.(c.self + span);
  c.charges <- c.charges + 1

(* Consume a [Seq]'s parts in order; whatever exceeds the declared parts
   flows to the tail.  A partially-charged quantum (preemption) resumes
   exactly where it left off because the remaining budget is written
   back into the mutable parts list.  ALLOC002: the re-consed part is
   paid by a partly charged part, with a profiler installed. *)
let rec charge_inner p ~cpu attr span =
  if Int64.compare (Time_ns.to_ns span) 0L > 0 then
    match attr with
    | Leaf id -> bump p ~cpu id span
    | Seq s -> (
      match s.parts with
      | [] -> charge_inner p ~cpu s.tail span
      | (id, avail) :: rest ->
        let used = Time_ns.min avail span in
        bump p ~cpu id used;
        let left = Time_ns.(avail - used) in
        if Int64.compare (Time_ns.to_ns left) 0L <= 0 then s.parts <- rest
        else s.parts <- (id, left) :: rest;
        charge_inner p ~cpu attr Time_ns.(span - used))
[@@lint.allow "ALLOC002"]

let charge attr ~cpu span =
  match installed () with None -> () | Some p -> charge_inner p ~cpu attr span

let record_event p id =
  if id >= Array.length p.events then begin
    let grown = Array.make (Int.max (Atomic.get reg_n) (2 * Array.length p.events)) 0 in
    Array.blit p.events 0 grown 0 (Array.length p.events);
    p.events <- grown
  end;
  p.events.(id) <- p.events.(id) + 1

let event attr =
  match installed () with
  | None -> ()
  | Some p -> ( match attr with Leaf id -> record_event p id | Seq _ -> ())

(* ALLOC001/2: with a profiler installed; a row is created once per
   trigger source. *)
let dispatch ~source ~delay =
  match installed () with
  | None -> ()
  | Some p ->
    let row =
      let rec find = function
        | [] ->
          let row =
            {
              source;
              fires = 0;
              delay_sum = 0L;
              delay_max = 0L;
              delays = Hdr.create ();
            }
          in
          p.disp <- row :: p.disp;
          p.ndisp <- p.ndisp + 1;
          row
        | r :: rest -> if String.equal r.source source then r else find rest
      in
      find p.disp
    in
    let delay = Time_ns.max delay 0L in
    row.fires <- row.fires + 1;
    row.delay_sum <- Time_ns.(row.delay_sum + delay);
    row.delay_max <- Time_ns.max row.delay_max delay;
    Hdr.record row.delays (Time_ns.to_us delay)
[@@lint.allow "ALLOC001"] [@@lint.allow "ALLOC002"]

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)

(* DEAD001 here and below: readout the attribution tests check. *)
let[@lint.allow "DEAD001"] cpu_count p = Array.length p.cells

let[@lint.allow "DEAD001"] attributed_ns p ~cpu =
  if cpu >= Array.length p.cells then 0L
  else
    Array.fold_left (fun acc c -> Time_ns.(acc + c.self)) 0L p.cells.(cpu)

let[@lint.allow "DEAD001"] total_attributed_ns p =
  let total = ref 0L in
  for cpu = 0 to cpu_count p - 1 do
    total := Time_ns.(!total + attributed_ns p ~cpu)
  done;
  !total

let id_of_path segs =
  match segs with
  | [] -> None
  | _ ->
    let full = String.concat ";" (List.map sanitize segs) in
    Mutex.protect reg_lock (fun () -> Hashtbl.find_opt index full)

(* Sum [f cell] for [id] across CPUs; rows may be shorter than reg_n
   when paths were interned after the row last grew. *)
let sum_cells p id f =
  let acc = ref 0L in
  Array.iter
    (fun row -> if id < Array.length row then acc := Int64.add !acc (f row.(id)))
    p.cells;
  !acc

let[@lint.allow "DEAD001"] self_ns p segs =
  match id_of_path segs with
  | None -> 0L
  | Some id -> sum_cells p id (fun c -> c.self)

let[@lint.allow "DEAD001"] charges p segs =
  match id_of_path segs with
  | None -> 0
  | Some id -> Int64.to_int (sum_cells p id (fun c -> Int64.of_int c.charges))

let prefixed full child_full =
  let n = String.length full in
  String.length child_full > n
  && String.equal (String.sub child_full 0 n) full
  && Char.equal child_full.[n] ';'

let[@lint.allow "DEAD001"] subtree_ns p segs =
  match id_of_path segs with
  | None -> 0L
  | Some id ->
    let full = !reg.(id).full in
    let acc = ref (sum_cells p id (fun c -> c.self)) in
    for i = 0 to Atomic.get reg_n - 1 do
      if prefixed full !reg.(i).full then
        acc := Time_ns.(!acc + sum_cells p i (fun c -> c.self))
    done;
    !acc

let[@lint.allow "DEAD001"] dispatch_rows p =
  List.rev_map (fun r -> (r.source, r.fires)) p.disp

let[@lint.allow "DEAD001"] fired_total p = List.fold_left (fun acc r -> acc + r.fires) 0 p.disp

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)

let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* Collapsed-stack flamegraph lines: "cpuN;frame;frame <ns>", one line
   per (cpu, leaf-with-self-time), sorted for byte-stable output.
   Feed to inferno/flamegraph.pl/speedscope directly. *)
let to_collapsed p =
  let lines = ref [] in
  for cpu = 0 to cpu_count p - 1 do
    let row = p.cells.(cpu) in
    for id = 0 to min (Array.length row) (Atomic.get reg_n) - 1 do
      let c = row.(id) in
      if Int64.compare (Time_ns.to_ns c.self) 0L > 0 then
        lines :=
          Printf.sprintf "cpu%d;%s %Ld" cpu !reg.(id).full (Time_ns.to_ns c.self)
          :: !lines
    done
  done;
  let lines = List.sort String.compare !lines in
  String.concat "" (List.map (fun l -> l ^ "\n") lines)

(* Children lists in registration order (deterministic). *)
let children_of id =
  let kids = ref [] in
  for i = Atomic.get reg_n - 1 downto 0 do
    if !reg.(i).parent = id then kids := i :: !kids
  done;
  !kids

let roots () = children_of (-1)

let rec node_total p id =
  let self = sum_cells p id (fun c -> c.self) in
  List.fold_left
    (fun acc kid -> Time_ns.(acc + node_total p kid))
    self (children_of id)

let[@lint.allow "DEAD001"] roots_ns p =
  let rows =
    List.filter_map
      (fun id ->
        let total = node_total p id in
        if Time_ns.(total > zero) then Some (!reg.(id).name, total) else None)
      (roots ())
  in
  List.sort
    (fun (na, a) (nb, b) ->
      match Int64.compare b a with 0 -> String.compare na nb | c -> c)
    rows

let to_table p =
  let buf = Buffer.create 4096 in
  let grand = total_attributed_ns p in
  buf_addf buf "Cycle attribution (%d CPU%s, %.1f us attributed total)\n"
    (cpu_count p)
    (if cpu_count p = 1 then "" else "s")
    (Time_ns.to_us grand);
  for cpu = 0 to cpu_count p - 1 do
    buf_addf buf "  cpu%d: %.1f us\n" cpu (Time_ns.to_us (attributed_ns p ~cpu))
  done;
  buf_addf buf "\n%-46s %12s %12s %8s %10s\n" "category" "total_us" "self_us"
    "%total" "charges";
  buf_addf buf "%s\n" (String.make 92 '-');
  let pct ns =
    if Int64.compare grand 0L = 0 then 0.0
    else 100.0 *. Int64.to_float ns /. Int64.to_float grand
  in
  let rec render depth id =
    let total = node_total p id in
    if Int64.compare (Time_ns.to_ns total) 0L > 0 then begin
      let self = sum_cells p id (fun c -> c.self) in
      let nch = Int64.to_int (sum_cells p id (fun c -> Int64.of_int c.charges)) in
      buf_addf buf "%-46s %12.1f %12.1f %7.1f%% %10d\n"
        (String.make (2 * depth) ' ' ^ !reg.(id).name)
        (Time_ns.to_us total) (Time_ns.to_us self) (pct total) nch;
      let kids =
        List.sort
          (fun a b ->
            let wa = node_total p a and wb = node_total p b in
            let c = Int64.compare wb wa in
            if c <> 0 then c else String.compare !reg.(a).name !reg.(b).name)
          (children_of id)
      in
      List.iter (render (depth + 1)) kids
    end
  in
  let top =
    List.sort
      (fun a b ->
        let wa = node_total p a and wb = node_total p b in
        let c = Int64.compare wb wa in
        if c <> 0 then c else String.compare !reg.(a).name !reg.(b).name)
      (roots ())
  in
  List.iter (render 0) top;
  (* Span-less occurrence counters (wheel maintenance, retransmits, ...). *)
  let events = ref [] in
  for id = 0 to min (Array.length p.events) (Atomic.get reg_n) - 1 do
    if p.events.(id) > 0 then events := (!reg.(id).full, p.events.(id)) :: !events
  done;
  (match List.sort (fun (a, _) (b, _) -> String.compare a b) !events with
  | [] -> ()
  | evs ->
    buf_addf buf "\nEvent counters\n";
    List.iter (fun (name, n) -> buf_addf buf "  %-44s %10d\n" name n) evs);
  Buffer.contents buf

(* Paper Table 1 / §4.1: which trigger state dispatched each soft-timer
   firing, and at what latency past its deadline. *)
let trigger_table p =
  let buf = Buffer.create 1024 in
  let total = fired_total p in
  buf_addf buf "Soft-timer dispatch by trigger state (%d firings)\n" total;
  buf_addf buf "%-16s %10s %8s %10s %10s %10s %10s\n" "trigger" "fires"
    "share" "mean_us" "p50_us" "p99_us" "max_us";
  buf_addf buf "%s\n" (String.make 80 '-');
  let rows =
    List.sort
      (fun a b ->
        let c = compare b.fires a.fires in
        if c <> 0 then c else String.compare a.source b.source)
      p.disp
  in
  List.iter
    (fun r ->
      let share =
        if total = 0 then 0.0 else 100.0 *. float_of_int r.fires /. float_of_int total
      in
      let mean =
        if r.fires = 0 then 0.0
        else Time_ns.to_us r.delay_sum /. float_of_int r.fires
      in
      let pc p = if Hdr.count r.delays = 0 then 0.0 else Hdr.percentile r.delays p in
      buf_addf buf "%-16s %10d %7.1f%% %10.2f %10.2f %10.2f %10.2f\n" r.source
        r.fires share mean (pc 50.0) (pc 99.0)
        (Time_ns.to_us r.delay_max))
    rows;
  Buffer.contents buf

(* Per-interrupt-line cost split — the decomposition behind the paper's
   Tables 2-4 argument: save/restore + cache/TLB pollution dominates the
   handler body.  Relies on the category convention established by
   [Interrupt.deliver]: interrupt;<line>;{save_restore,pollution,handler}. *)
let interrupt_table p =
  let buf = Buffer.create 1024 in
  match id_of_path [ "interrupt" ] with
  | None ->
    Buffer.add_string buf "No interrupt costs attributed.\n";
    Buffer.contents buf
  | Some root ->
    buf_addf buf "Per-interrupt cost split (all CPUs)\n";
    buf_addf buf "%-18s %10s %12s %12s %12s %12s %12s\n" "line" "delivered"
      "save_us" "pollute_us" "handler_us" "total_us" "avg_us/intr";
    buf_addf buf "%s\n" (String.make 94 '-');
    let part line leaf =
      match id_of_path [ "interrupt"; line; leaf ] with
      | None -> (0L, 0)
      | Some id ->
        ( sum_cells p id (fun c -> c.self),
          Int64.to_int (sum_cells p id (fun c -> Int64.of_int c.charges)) )
    in
    let lines =
      List.sort
        (fun a b ->
          let wa = node_total p a and wb = node_total p b in
          let c = Int64.compare wb wa in
          if c <> 0 then c else String.compare !reg.(a).name !reg.(b).name)
        (children_of root)
    in
    let t_save = ref 0L and t_pol = ref 0L and t_body = ref 0L and t_n = ref 0 in
    List.iter
      (fun id ->
        let line = !reg.(id).name in
        let save, n_save = part line "save_restore" in
        let pol, _ = part line "pollution" in
        let body, _ = part line "handler" in
        let total = Time_ns.(Time_ns.(save + pol) + body) in
        if Int64.compare total 0L > 0 || n_save > 0 then begin
          t_save := Time_ns.(!t_save + save);
          t_pol := Time_ns.(!t_pol + pol);
          t_body := Time_ns.(!t_body + body);
          t_n := !t_n + n_save;
          let avg =
            if n_save = 0 then 0.0 else Time_ns.to_us total /. float_of_int n_save
          in
          buf_addf buf "%-18s %10d %12.1f %12.1f %12.1f %12.1f %12.2f\n" line
            n_save (Time_ns.to_us save) (Time_ns.to_us pol) (Time_ns.to_us body)
            (Time_ns.to_us total) avg
        end)
      lines;
    buf_addf buf "%s\n" (String.make 94 '-');
    let g_total = Time_ns.(Time_ns.(!t_save + !t_pol) + !t_body) in
    let g_avg =
      if !t_n = 0 then 0.0 else Time_ns.to_us g_total /. float_of_int !t_n
    in
    buf_addf buf "%-18s %10d %12.1f %12.1f %12.1f %12.1f %12.2f\n" "TOTAL" !t_n
      (Time_ns.to_us !t_save) (Time_ns.to_us !t_pol) (Time_ns.to_us !t_body)
      (Time_ns.to_us g_total) g_avg;
    Buffer.contents buf

let report p =
  String.concat "\n" [ to_table p; interrupt_table p; trigger_table p ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Rows re-sorted by name: [roots_ns] is largest-first and
   [dispatch_rows] first-dispatch order, both of which shuffle between
   seeds, and benchdiff keys array elements by index — so the JSON needs
   an order that only depends on which categories exist. *)
let to_json p =
  let rows render l =
    String.concat "," (List.map render (List.sort (fun (a, _) (b, _) -> String.compare a b) l))
  in
  Printf.sprintf
    "{\"total_attributed_ns\":%Ld,\"cpus\":%d,\"fired_total\":%d,\"categories\":[%s],\"dispatch\":[%s]}"
    (total_attributed_ns p) (cpu_count p) (fired_total p)
    (rows
       (fun (name, ns) -> Printf.sprintf "{\"path\":%s,\"ns\":%Ld}" (json_string name) ns)
       (roots_ns p))
    (rows
       (fun (source, fires) ->
         Printf.sprintf "{\"source\":%s,\"fires\":%d}" (json_string source) fires)
       (dispatch_rows p))

(* ---- Category-registry readers ------------------------------------

   The memory observatory (Memstats) attributes words to the
   same interned category tree the cycle profiler charges time to; it
   keeps its own id-indexed side tables and renders by walking the
   registry through these readers. *)

let intern_id = intern_path
let id_name id = !reg.(id).name
let id_full id = !reg.(id).full
let id_children = children_of
let[@lint.allow "DEAD001"] registry_size () = Atomic.get reg_n

(* Analytic footprint of the registry itself, in 64-bit words: the
   backing array, one 4-word info record and two string blocks per
   node, and a 4-word hashtable binding (the key shares the [full]
   string).  The hashtable's record and bucket array are charged at
   their initial size; resizes are ignored. *)
let registry_words () =
  let str s = 2 + (String.length s / 8) in
  let acc = ref (Array.length !reg + 1 + 5 + 65) in
  for i = 0 to Atomic.get reg_n - 1 do
    let info = !reg.(i) in
    acc := !acc + 4 + 4 + str info.name + str info.full
  done;
  !acc
