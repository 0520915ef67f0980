(* Fire-delay attribution: partition every fired timer's delay
   (fire_at - due) into an exact, conservation-checked breakdown of
   causes, reconstructed from the deterministic trace stream.

   The partition has ten segments, indexed 0..nseg-1:

   - 0..5  trigger-gap time sub-attributed to CPU-0 activity by work
           class (intr, softintr, kernel, user, background, timer) —
           the CPU was busy doing *this* and reached no trigger state;
   - 6     trigger-gap time the CPU spent idle before its wakeup
           (the idle checker had not yet polled);
   - 7     trigger-gap time not covered by the CPU-0 busy/idle timeline
           (activity on another CPU, or trace truncation);
   - 8     check-skipped: a trigger-state check reached the store while
           this timer was due, but a dispatch budget kept it from this
           timer (Soft_check with scanned > fired);
   - 9     batch-queueing: time between this timer's dispatching check
           and its handler invocation.  Structurally zero in this
           simulator — dispatch runs handlers inline at the check's
           timestamp — but kept in the partition so the contract (and
           the output schema) survives a deferred-dispatch model.

   Conservation is exact by construction: each timer carries a cursor
   that starts at its due time and only advances by attributing the
   crossed span to exactly one segment, ending at the fire time.  A
   runtime check still verifies sum(segs) = delay on every late fire
   and counts violations (the qcheck property asserts zero).

   Timeline reconstruction leans on the emit-order guarantees of the
   simulator: Cpu_run is emitted by Cpu.charge *before* the completing
   task's callback runs its trigger check, so when a Soft_fire at time
   F is processed, CPU-0 busy coverage of [0, F) is already complete;
   Soft_check follows the batch's Soft_fires at the same timestamp, so
   a check event seen by a still-pending due timer is precisely a check
   that scanned but skipped it. *)

let nklass = 6  (* Cpu work classes; mirrors Cpu.klass_count *)
(* DEAD001 here and below: readout the why-late tests check. *)
let[@lint.allow "DEAD001"] seg_idle = 6
let[@lint.allow "DEAD001"] seg_other = 7
let[@lint.allow "DEAD001"] seg_check_skipped = 8
let nseg = 10

let klass_label = function
  | 0 -> "intr"
  | 1 -> "softintr"
  | 2 -> "kernel"
  | 3 -> "user"
  | 4 -> "background"
  | 5 -> "timer"
  | 6 -> "idle"
  | _ -> "other"

let seg_label = function
  | 8 -> "check-skipped"
  | 9 -> "batch-queue"
  | k -> "gap." ^ klass_label k

(* Long-form descriptions for the text report (paper §4.1 causes). *)
let seg_describe = function
  | 0 -> "interrupt handler running"
  | 1 -> "software-interrupt (protocol) processing"
  | 2 -> "system-call/trap body"
  | 3 -> "user-mode computation"
  | 4 -> "background compute"
  | 5 -> "handler of another soft timer"
  | 6 -> "CPU idle before wakeup"
  | 7 -> "uncovered (other CPU / truncated trace)"
  | 8 -> "check ran but dispatch budget skipped this timer"
  | 9 -> "queued within dispatching batch"
  | _ -> "?"

(* A tracked late timer: promoted from the heap once the stream clock
   passes its deadline. *)
type lt = {
  lid : int;
  ldue : Time_ns.t;
  mutable lcursor : Time_ns.t;  (* attributed up to here; >= ldue *)
  lsegs : int64 array;  (* nseg *)
  mutable lchecks : int;  (* checks that scanned-but-skipped this timer *)
  mutable lc1 : Time_ns.t;  (* first such check; Int64.max_int = none *)
}

type exemplar = {
  x_id : int;
  x_due : Time_ns.t;
  x_fire : Time_ns.t;
  x_delay : Time_ns.span;
  x_end_trigger : string;  (* trigger state whose check dispatched it *)
  x_batch_pos : int;  (* 1-based position among that check's fires *)
  x_checks : int;
  x_first_check : Time_ns.t option;
  x_segs : int64 array;
}

(* Per-ending-trigger aggregation: the §4.1 cross-tab. *)
type trig_row = {
  mutable t_fires : int;
  mutable t_delay : int64;
  t_segs : int64 array;
}

(* Min-heap of (due, id) promotion points with lazy deletion: an entry
   is live iff [pending] still maps its id to the same due time. *)
type heap = { mutable hdue : int64 array; mutable hid : int array; mutable hn : int }

type t = {
  worst : int;
  pending : (int, Time_ns.t) Hashtbl.t;  (* scheduled, not yet fired *)
  active : (int, lt) Hashtbl.t;  (* due-and-still-pending (late) *)
  heap : heap;
  mutable idle_open : bool;
  mutable idle_since : Time_ns.t;
  mutable last_trigger : string;
  mutable fires_since_trigger : int;
  mutable fired : int;
  mutable ontime : int;
  mutable late : int;
  mutable untracked : int;
  mutable violations : int;
  mutable abandoned : int;  (* pending at a sim.start reset *)
  mutable checks_seen : int;
  mutable skip_checks : int;  (* checks with scanned > fired *)
  cause_ns : int64 array;  (* nseg; totals over late fires *)
  cause_hdr : Hdr.t array;  (* nseg; per-late-fire segment, us *)
  delay_hdr : Hdr.t;  (* every fire, us *)
  trig_tbl : (string, trig_row) Hashtbl.t;
  mutable exemplars : exemplar list;  (* desc by (delay, -id); <= worst *)
}

let create ?(worst = 10) () =
  {
    worst = Stdlib.max 0 worst;
    pending = Hashtbl.create 256;
    active = Hashtbl.create 64;
    heap = { hdue = Array.make 64 0L; hid = Array.make 64 0; hn = 0 };
    idle_open = false;
    idle_since = Time_ns.zero;
    last_trigger = "?";
    fires_since_trigger = 0;
    fired = 0;
    ontime = 0;
    late = 0;
    untracked = 0;
    violations = 0;
    abandoned = 0;
    checks_seen = 0;
    skip_checks = 0;
    cause_ns = Array.make nseg 0L;
    cause_hdr = Array.init nseg (fun _ -> Hdr.create ());
    delay_hdr = Hdr.create ();
    trig_tbl = Hashtbl.create 8;
    exemplars = [];
  }

(* ---------------- heap ---------------- *)

let heap_less h i j =
  let c = Int64.compare h.hdue.(i) h.hdue.(j) in
  if c <> 0 then c < 0 else h.hid.(i) < h.hid.(j)

let heap_swap h i j =
  let d = h.hdue.(i) and x = h.hid.(i) in
  h.hdue.(i) <- h.hdue.(j);
  h.hid.(i) <- h.hid.(j);
  h.hdue.(j) <- d;
  h.hid.(j) <- x

let heap_push h ~due ~id =
  if h.hn = Array.length h.hdue then begin
    let cap = 2 * h.hn in
    let nd = Array.make cap 0L and ni = Array.make cap 0 in
    Array.blit h.hdue 0 nd 0 h.hn;
    Array.blit h.hid 0 ni 0 h.hn;
    h.hdue <- nd;
    h.hid <- ni
  end;
  h.hdue.(h.hn) <- due;
  h.hid.(h.hn) <- id;
  h.hn <- h.hn + 1;
  let i = ref (h.hn - 1) in
  while !i > 0 && heap_less h !i ((!i - 1) / 2) do
    heap_swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let heap_pop h =
  let due = h.hdue.(0) and id = h.hid.(0) in
  h.hn <- h.hn - 1;
  if h.hn > 0 then begin
    h.hdue.(0) <- h.hdue.(h.hn);
    h.hid.(0) <- h.hid.(h.hn);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.hn && heap_less h l !m then m := l;
      if r < h.hn && heap_less h r !m then m := r;
      if !m = !i then continue := false
      else begin
        heap_swap h !i !m;
        i := !m
      end
    done
  end;
  (due, id)

(* ---------------- attribution ---------------- *)

let no_check = Int64.max_int

(* Attribute [s, e) as class [k], split at the first skipping check:
   time before [lc1] is trigger-gap of class [k], time at or after it
   is check-skipped (the check had already reached the store; what the
   CPU did next no longer explains the wait). *)
let add_range lt ~s ~e ~k =
  let gap_end = Time_ns.min e lt.lc1 in
  if Time_ns.(gap_end > s) then
    lt.lsegs.(k) <- Int64.add lt.lsegs.(k) Time_ns.(gap_end - s);
  let cs_start = Time_ns.max s lt.lc1 in
  if Time_ns.(e > cs_start) then
    lt.lsegs.(seg_check_skipped) <-
      Int64.add lt.lsegs.(seg_check_skipped) Time_ns.(e - cs_start)

(* Advance [lt]'s cursor through [s, e): the part below the cursor is
   already accounted for; a hole between the cursor and [s] means no
   CPU-0 timeline event covered it, which is exactly [seg_other].
   Attributing the hole eagerly keeps conservation exact by
   construction on any stream, covered or not. *)
let add_span lt ~s ~e ~k =
  if Time_ns.(e > lt.lcursor) then begin
    let s0 = Time_ns.max s lt.lcursor in
    if Time_ns.(s0 > lt.lcursor) then add_range lt ~s:lt.lcursor ~e:s0 ~k:seg_other;
    if Time_ns.(e > s0) then add_range lt ~s:s0 ~e ~k;
    lt.lcursor <- e
  end

(* Each callback touches only its own [lt] — independent, commutative
   per-timer updates — so the unspecified table order cannot leak into
   any result (DET004: justified, not sorted; this runs per check). *)
let[@lint.allow "DET004"] each_active t f = Hashtbl.iter (fun _ lt -> f lt) t.active

(* Promote every pending timer whose deadline passed strictly before the
   stream clock [at]: from here on it accumulates attributable delay. *)
let promote t ~at =
  let h = t.heap in
  while h.hn > 0 && Int64.compare h.hdue.(0) at < 0 do
    let due, id = heap_pop h in
    match Hashtbl.find_opt t.pending id with
    | Some d when Time_ns.(d = due) ->
      if not (Hashtbl.mem t.active id) then
        Hashtbl.replace t.active id
          {
            lid = id;
            ldue = due;
            (* A timer due mid-way through an open idle period starts
               inside it; the idle close (or the fire) attributes the
               [due, wakeup) part, so the cursor starts at due. *)
            lcursor = due;
            lsegs = Array.make nseg 0L;
            lchecks = 0;
            lc1 = no_check;
          }
    | Some _ | None -> () (* stale heap entry: cancelled or re-armed *)
  done

let record_interval t ~s ~e ~k = each_active t (fun lt -> add_span lt ~s ~e ~k)

(* ---------------- exemplars ---------------- *)

let exemplar_worse a b =
  let c = Int64.compare a.x_delay b.x_delay in
  if c <> 0 then c > 0 else a.x_id < b.x_id

let insert_exemplar t x =
  if t.worst > 0 then begin
    let rec ins = function
      | [] -> [ x ]
      | y :: rest -> if exemplar_worse x y then x :: y :: rest else y :: ins rest
    in
    let l = ins t.exemplars in
    t.exemplars <-
      (if List.length l > t.worst then List.filteri (fun i _ -> i < t.worst) l else l)
  end

(* ---------------- event stream ---------------- *)

let trig_row t name =
  match Hashtbl.find_opt t.trig_tbl name with
  | Some r -> r
  | None ->
    let r = { t_fires = 0; t_delay = 0L; t_segs = Array.make nseg 0L } in
    Hashtbl.replace t.trig_tbl name r;
    r

let finish_fire t ~at lt =
  let id = lt.lid and due = lt.ldue in
  (* Idle stretch still open at the fire (the fire came from the idle
     checker's poll): attribute it up to now for this timer only; the
     eventual Cpu_busy closes it for the others. *)
  if t.idle_open && Time_ns.(t.idle_since < at) then
    add_span lt ~s:t.idle_since ~e:at ~k:seg_idle;
  (* Whatever the CPU-0 timeline did not cover. *)
  add_span lt ~s:lt.lcursor ~e:at ~k:seg_other;
  let delay = Time_ns.(at - due) in
  let sum = Array.fold_left Int64.add 0L lt.lsegs in
  if Int64.compare sum delay <> 0 then t.violations <- t.violations + 1;
  t.late <- t.late + 1;
  for k = 0 to nseg - 1 do
    t.cause_ns.(k) <- Int64.add t.cause_ns.(k) lt.lsegs.(k);
    if Int64.compare lt.lsegs.(k) 0L > 0 then
      Hdr.record t.cause_hdr.(k) (Time_ns.to_us lt.lsegs.(k))
  done;
  let row = trig_row t t.last_trigger in
  row.t_fires <- row.t_fires + 1;
  row.t_delay <- Int64.add row.t_delay delay;
  for k = 0 to nseg - 1 do
    row.t_segs.(k) <- Int64.add row.t_segs.(k) lt.lsegs.(k)
  done;
  insert_exemplar t
    {
      x_id = id;
      x_due = due;
      x_fire = at;
      x_delay = delay;
      x_end_trigger = t.last_trigger;
      x_batch_pos = t.fires_since_trigger;
      x_checks = lt.lchecks;
      x_first_check = (if Int64.equal lt.lc1 no_check then None else Some lt.lc1);
      x_segs = Array.copy lt.lsegs;
    }

let reset_run t =
  t.abandoned <- t.abandoned + Hashtbl.length t.pending;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.active;
  t.heap.hn <- 0;
  t.idle_open <- false;
  t.last_trigger <- "?";
  t.fires_since_trigger <- 0

let on_event t ~at (ev : Trace.event) =
  promote t ~at;
  match ev with
  | Trace.Trigger kind ->
    t.last_trigger <- kind;
    t.fires_since_trigger <- 0
  | Trace.Cpu_run { cpu; klass; dur } ->
    if cpu = 0 then
      let k = if klass >= 0 && klass < nklass then klass else seg_other in
      record_interval t ~s:Time_ns.(at - dur) ~e:at ~k
  | Trace.Cpu_idle { cpu } ->
    if cpu = 0 then begin
      t.idle_open <- true;
      t.idle_since <- at
    end
  | Trace.Cpu_busy { cpu } ->
    if cpu = 0 && t.idle_open then begin
      t.idle_open <- false;
      if Time_ns.(t.idle_since < at) then
        record_interval t ~s:t.idle_since ~e:at ~k:seg_idle
    end
  | Trace.Soft_sched { id; due } ->
    Hashtbl.replace t.pending id due;
    heap_push t.heap ~due ~id
  | Trace.Soft_cancel { id; _ } ->
    Hashtbl.remove t.pending id;
    Hashtbl.remove t.active id
  | Trace.Soft_check { scanned; fired; _ } ->
    t.checks_seen <- t.checks_seen + 1;
    if scanned > fired then t.skip_checks <- t.skip_checks + 1;
    (* Every still-pending due timer was in this check's scanned batch
       (its Soft_fire would have preceded this event otherwise): the
       check reached the store but a budget kept it from the timer. *)
    each_active t (fun lt ->
        lt.lchecks <- lt.lchecks + 1;
        if Int64.equal lt.lc1 no_check then lt.lc1 <- at)
  | Trace.Soft_fire { id; due; _ } ->
    t.fired <- t.fired + 1;
    t.fires_since_trigger <- t.fires_since_trigger + 1;
    Hdr.record t.delay_hdr (Time_ns.to_us Time_ns.(at - due));
    if not (Hashtbl.mem t.pending id) then t.untracked <- t.untracked + 1
    else begin
      Hashtbl.remove t.pending id;
      match Hashtbl.find_opt t.active id with
      | Some lt ->
        Hashtbl.remove t.active id;
        finish_fire t ~at lt
      | None ->
        if Time_ns.(at > due) then
          (* Due and fired between two stream timestamps without a
             promotion point in between; account the whole (tiny) delay
             through the normal path. *)
          finish_fire t ~at
            {
              lid = id;
              ldue = due;
              lcursor = due;
              lsegs = Array.make nseg 0L;
              lchecks = 0;
              lc1 = no_check;
            }
        else t.ontime <- t.ontime + 1
    end
  | Trace.Mark m when String.equal m Trace.sim_start_mark -> reset_run t
  | Trace.Irq _ | Trace.Irq_raised _ | Trace.Irq_lost _ | Trace.Pkt_enqueue _
  | Trace.Pkt_tx _ | Trace.Pkt_rx _ | Trace.Pkt_drop _ | Trace.Poll _ | Trace.Rbc_send
  | Trace.Mark _ ->
    ()

let[@lint.allow "DEAD001"] collect ?worst tr =
  let t = create ?worst () in
  Trace.iter tr (fun { Trace.at; ev } -> on_event t ~at ev);
  t

(* ---------------- accessors ---------------- *)

let fired t = t.fired
let late t = t.late
let ontime t = t.ontime
let untracked t = t.untracked
let violations t = t.violations
let pending_at_exit t = t.abandoned + Hashtbl.length t.pending
let cause_ns t k = t.cause_ns.(k)
let[@lint.allow "DEAD001"] exemplars t = t.exemplars

let total_late_ns t = Array.fold_left Int64.add 0L t.cause_ns

(* DET004: the fold's order is immediately erased by the sort below. *)
let[@lint.allow "DET004"] trigger_rows t =
  Hashtbl.fold (fun name r acc -> (name, r.t_fires, r.t_delay, Array.copy r.t_segs) :: acc)
    t.trig_tbl []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

(* ---------------- renderers ---------------- *)

let us_of ns = Int64.to_float ns /. 1e3

let to_text t =
  let b = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "Why-late: fire-delay attribution\n";
  addf "  fired %d (on-time %d, late %d), untracked %d, pending at exit %d\n" t.fired
    t.ontime t.late t.untracked (pending_at_exit t);
  addf "  checks seen %d (budget-limited %d), conservation violations %d\n" t.checks_seen
    t.skip_checks t.violations;
  let total = total_late_ns t in
  if t.late > 0 then begin
    addf "\nCause breakdown (%d late fires, %.3f ms attributed)\n" t.late
      (Int64.to_float total /. 1e6);
    addf "  %-18s %12s %7s %9s %9s %9s\n" "cause" "total_us" "share" "fires" "p50_us"
      "p99_us";
    for k = 0 to nseg - 1 do
      let ns = t.cause_ns.(k) in
      let h = t.cause_hdr.(k) in
      if Int64.compare ns 0L > 0 || Hdr.count h > 0 then
        addf "  %-18s %12.1f %6.1f%% %9d %9.1f %9.1f  (%s)\n" (seg_label k) (us_of ns)
          (if Int64.compare total 0L > 0 then
             100.0 *. Int64.to_float ns /. Int64.to_float total
           else 0.0)
          (Hdr.count h)
          (Hdr.quantile h 0.5) (Hdr.quantile h 0.99) (seg_describe k)
    done;
    addf "\nEnding trigger state (which check finally dispatched the late timer)\n";
    addf "  %-12s %7s %12s %9s  dominant cause\n" "trigger" "fires" "delay_us" "avg_us";
    List.iter
      (fun (name, fires, delay, segs) ->
        let dom = ref 0 in
        Array.iteri (fun k v -> if Int64.compare v segs.(!dom) > 0 then dom := k) segs;
        addf "  %-12s %7d %12.1f %9.1f  %s\n" name fires (us_of delay)
          (us_of delay /. float_of_int (Stdlib.max 1 fires))
          (seg_label !dom))
      (trigger_rows t);
    (match t.exemplars with
    | [] -> ()
    | exs ->
      addf "\nWorst %d late fires\n" (List.length exs);
      addf "  %-8s %12s %10s %-12s %6s %6s %12s  causal chain\n" "timer" "due_us"
        "delay_us" "end_trigger" "batch" "skips" "1st_chk_us";
      List.iter
        (fun x ->
          let chain =
            let parts = ref [] in
            for k = nseg - 1 downto 0 do
              if Int64.compare x.x_segs.(k) 0L > 0 then
                parts :=
                  Printf.sprintf "%s=%.1fus" (seg_label k) (us_of x.x_segs.(k)) :: !parts
            done;
            String.concat " -> " !parts
          in
          addf "  %-8d %12.1f %10.1f %-12s %6d %6d %12s  %s\n" x.x_id (us_of x.x_due)
            (us_of x.x_delay) x.x_end_trigger x.x_batch_pos x.x_checks
            (match x.x_first_check with
            | None -> "-"
            | Some c -> Printf.sprintf "%.1f" (us_of c))
            chain)
        exs)
  end
  else addf "\nNo late fires: every dispatched timer fired at its deadline.\n";
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "{\"schema\":\"softtimers-whylate/1\"";
  addf ",\"fired\":%d,\"ontime\":%d,\"late\":%d,\"untracked\":%d" t.fired t.ontime t.late
    t.untracked;
  addf ",\"pending_at_exit\":%d,\"checks_seen\":%d,\"budget_limited_checks\":%d"
    (pending_at_exit t) t.checks_seen t.skip_checks;
  addf ",\"conservation_violations\":%d" t.violations;
  addf ",\"causes\":[";
  let first = ref true in
  for k = 0 to nseg - 1 do
    if not !first then addf ",";
    first := false;
    let h = t.cause_hdr.(k) in
    addf "{\"cause\":\"%s\",\"total_ns\":%Ld,\"fires\":%d" (seg_label k) t.cause_ns.(k)
      (Hdr.count h);
    if Hdr.count h > 0 then
      addf ",\"p50_us\":%.3f,\"p99_us\":%.3f,\"max_us\":%.3f" (Hdr.quantile h 0.5)
        (Hdr.quantile h 0.99) (Hdr.max h);
    addf "}"
  done;
  addf "],\"end_triggers\":[";
  List.iteri
    (fun i (name, fires, delay, segs) ->
      if i > 0 then addf ",";
      addf "{\"trigger\":\"%s\",\"fires\":%d,\"delay_ns\":%Ld,\"segs\":{" (json_escape name)
        fires delay;
      let first = ref true in
      Array.iteri
        (fun k v ->
          if Int64.compare v 0L > 0 then begin
            if not !first then addf ",";
            first := false;
            addf "\"%s\":%Ld" (seg_label k) v
          end)
        segs;
      addf "}}")
    (trigger_rows t);
  addf "],\"worst\":[";
  List.iteri
    (fun i x ->
      if i > 0 then addf ",";
      addf
        "{\"timer\":%d,\"due_ns\":%Ld,\"fire_ns\":%Ld,\"delay_ns\":%Ld,\"end_trigger\":\"%s\",\"batch_pos\":%d,\"checks_skipped\":%d"
        x.x_id x.x_due x.x_fire x.x_delay (json_escape x.x_end_trigger) x.x_batch_pos
        x.x_checks;
      (match x.x_first_check with
      | Some c -> addf ",\"first_check_ns\":%Ld" c
      | None -> ());
      addf ",\"segs\":{";
      let first = ref true in
      Array.iteri
        (fun k v ->
          if Int64.compare v 0L > 0 then begin
            if not !first then addf ",";
            first := false;
            addf "\"%s\":%Ld" (seg_label k) v
          end)
        x.x_segs;
      addf "}}")
    t.exemplars;
  addf "]}";
  Buffer.contents b
