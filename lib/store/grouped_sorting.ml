let name = "grouped-sorting"

(* Tuning: a group splits at the median once it outgrows this. *)
let group_max = 256

type gstate =
  | Linked  (* in a group's item array *)
  | Extracted  (* pulled into a fire batch, callback not yet run *)
  | Done  (* fired or cancelled *)

type 'a node = {
  mutable gat : Time_ns.t;
  mutable gseq : int;
  gval : 'a;
  mutable gstate : gstate;
  mutable ggroup : 'a group option;  (* [Some] iff Linked *)
  mutable gidx : int;  (* index in the group's items when Linked *)
}

and 'a group = {
  mutable glo : Time_ns.t;  (* deadline range [glo, ghi) *)
  mutable ghi : Time_ns.t;
  mutable gitems : 'a node option array;
  mutable gn : int;
  (* Split eligibility in O(1): while [gdistinct] is false every item's
     deadline equals [gfirst].  Removals can leave [gdistinct]
     conservatively stale-true; [split] repairs that after sorting. *)
  mutable gfirst : Time_ns.t;
  mutable gdistinct : bool;
}

type 'a t = {
  mutable groups : 'a group list;  (* ascending, ranges partition time *)
  mutable count : int;
  mutable next_seq : int;
  mutable cached_min : Time_ns.t;
  mutable min_valid : bool;
  mutable last_now : int;  (* previous [fire_due]'s [now], saturated *)
}

type 'a handle = 'a node

let lo_inf = Int64.min_int
let hi_inf = Int64.max_int

(* ALLOC002: one group record (plus its 8-slot array) per split or
   drained-range sweep — amortized over the >= group_max timers that
   flowed through the group. *)
let fresh_group ~lo ~hi =
  {
    glo = lo;
    ghi = hi;
    gitems = Array.make 8 None;
    gn = 0;
    gfirst = Time_ns.zero;
    gdistinct = false;
  }
[@@lint.allow "ALLOC002"]

let create ~tick () =
  ignore tick;
  {
    groups = [ fresh_group ~lo:lo_inf ~hi:hi_inf ];
    count = 0;
    next_seq = 0;
    cached_min = Time_ns.zero;
    min_valid = true;
    last_now = min_int;
  }

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* ALLOC002: the [Some] boxes (and occasional growth doubling) of the
   option-array representation — one box per appended node.  Reachable
   from [fire_due] only on the budget-withheld relink path. *)
let group_append g n =
  if g.gn = 0 then begin
    g.gfirst <- n.gat;
    g.gdistinct <- false
  end
  else if (not g.gdistinct) && not Time_ns.(n.gat = g.gfirst) then g.gdistinct <- true;
  if g.gn = Array.length g.gitems then begin
    let bigger = Array.make (2 * g.gn) None in
    Array.blit g.gitems 0 bigger 0 g.gn;
    g.gitems <- bigger
  end;
  g.gitems.(g.gn) <- Some n;
  n.ggroup <- Some g;
  n.gidx <- g.gn;
  n.gstate <- Linked;
  g.gn <- g.gn + 1
[@@lint.allow "ALLOC002"]

(* Swap-pop: O(1) removal by filling the hole with the last item. *)
let group_remove g n =
  let last = g.gn - 1 in
  (match g.gitems.(last) with
  | Some m when m != n ->
    (* ALLOC002: re-wrapping the moved node is the price of the
       option-array representation; one box per physical removal. *)
    g.gitems.(n.gidx) <- (Some m [@lint.allow "ALLOC002"]);
    m.gidx <- n.gidx
  | _ -> ());
  g.gitems.(last) <- None;
  g.gn <- last;
  n.ggroup <- None

let node_at g i = match g.gitems.(i) with Some n -> n | None -> assert false

(* Split an oversized group: sort, cut at the median deadline (or the
   first deadline above the minimum when the median ties it), and give
   the upper half its own range.  A group of identical deadlines cannot
   split (one side would be empty); it just stays large, which is fine —
   expiry drains it whole.  [gdistinct] filters those out in O(1) at the
   insert site, but removals can leave it stale-true, so the all-equal
   case is re-detected here (sorted extremes coincide) and the flag
   repaired instead of splitting. *)
let split g =
  let nodes = Array.init g.gn (fun i -> node_at g i) in
  Array.sort
    (fun a b ->
      let c = Time_ns.compare a.gat b.gat in
      if c <> 0 then c else Int.compare a.gseq b.gseq)
    nodes;
  let lowest = nodes.(0).gat in
  let highest = nodes.(Array.length nodes - 1).gat in
  if Time_ns.(highest = lowest) then begin
    g.gfirst <- lowest;
    g.gdistinct <- false;
    None
  end
  else begin
    let median = nodes.(Array.length nodes / 2).gat in
    let m =
      if Time_ns.(median > lowest) then median
      else begin
        (* Some deadline above the minimum exists (extremes differ). *)
        let i = ref 0 in
        while Time_ns.(nodes.(!i).gat = lowest) do
          incr i
        done;
        nodes.(!i).gat
      end
    in
    let upper = fresh_group ~lo:m ~hi:g.ghi in
    g.ghi <- m;
    g.gn <- 0;
    Array.fill g.gitems 0 (Array.length g.gitems) None;
    Array.iter
      (fun n -> if Time_ns.(n.gat < m) then group_append g n else group_append upper n)
      nodes;
    Some upper
  end

(* The group whose range contains [at]; ranges partition all of time, so
   one always matches. *)
let rec target_group groups at =
  match groups with
  | [] -> assert false
  | [ g ] -> g
  | g :: rest -> if Time_ns.(at < g.ghi) then g else target_group rest at

let insert t n at =
  n.gat <- at;
  let g = target_group t.groups at in
  group_append g n;
  if g.gn > group_max && g.gdistinct then
    match split g with
    | None -> ()
    | Some upper ->
      let rec add = function
        | [] -> assert false
        | x :: rest -> if x == g then x :: upper :: rest else x :: add rest
      in
      t.groups <- add t.groups

let note_scheduled t at =
  if t.min_valid then
    if t.count = 0 then t.cached_min <- at else t.cached_min <- Time_ns.min t.cached_min at

let schedule t ~at v =
  let n =
    { gat = at; gseq = fresh_seq t; gval = v; gstate = Linked; ggroup = None; gidx = -1 }
  in
  insert t n at;
  note_scheduled t at;
  t.count <- t.count + 1;
  n

let schedule_i t ~at_i v = schedule t ~at:(Int64.of_int at_i) v

let cancel t n =
  match n.gstate with
  | Done -> ()
  | Linked ->
    (match n.ggroup with Some g -> group_remove g n | None -> assert false);
    n.gstate <- Done;
    t.count <- t.count - 1;
    if t.min_valid && t.count > 0 && Time_ns.(n.gat <= t.cached_min) then t.min_valid <- false
  | Extracted ->
    n.gstate <- Done;
    t.count <- t.count - 1

let rearm t n ~at =
  match n.gstate with
  | Done -> false
  | Linked ->
    let g = match n.ggroup with Some g -> g | None -> assert false in
    if t.min_valid && Time_ns.(n.gat <= t.cached_min) then t.min_valid <- false;
    n.gseq <- fresh_seq t;
    if Time_ns.(g.glo <= at) && Time_ns.(at < g.ghi) then begin
      (* The in-place dynamic update the grouped queue is built for: the
         new deadline stays within the group's range, so the node does
         not move at all. *)
      n.gat <- at;
      if g.gn = 1 then g.gfirst <- at
      else if (not g.gdistinct) && not Time_ns.(at = g.gfirst) then g.gdistinct <- true
    end
    else begin
      group_remove g n;
      insert t n at
    end;
    note_scheduled t at;
    true
  | Extracted ->
    (* Leaves the fire batch (dispatch skips non-Extracted nodes) and
       re-enters a group with a fresh tie position. *)
    n.gseq <- fresh_seq t;
    insert t n at;
    note_scheduled t at;
    true

let pending t = t.count
let resident t = t.count  (* cancellation is a physical swap-pop *)

(* Record (7) + boxed cached_min (3) + per group: record (7) + groups
   cons (3) + range/first boxes (~6) + its item array (capacity + 1) +
   per linked node: record (7) + boxed deadline (3) + [Some] item box
   (2) + [Some] group box (2). *)
let words t =
  let groups =
    List.fold_left (fun acc g -> acc + 17 + Array.length g.gitems) 0 t.groups
  in
  7 + 3 + groups + (14 * t.count)

let handle_pending _t n = n.gstate <> Done
let handle_deadline _t n = n.gat

let scan_min t =
  (* Ranges are disjoint and ascending: the first non-empty group holds
     the global minimum; groups are unsorted inside, so scan its items
     (at most ~2x group_max of them). *)
  let rec first = function
    | [] -> None
    | g :: rest ->
      if g.gn = 0 then first rest
      else begin
        let best = ref (node_at g 0).gat in
        for i = 1 to g.gn - 1 do
          let at = (node_at g i).gat in
          if Time_ns.(at < !best) then best := at
        done;
        Some !best
      end
  in
  first t.groups

let next_deadline t =
  if t.count = 0 then None
  else if t.min_valid then Some t.cached_min
  else begin
    match scan_min t with
    | Some m ->
      t.cached_min <- m;
      t.min_valid <- true;
      Some m
    | None -> None  (* unreachable: count > 0 implies a linked node *)
  end

(* A due node the batch does not dispatch (budget exhausted, or a
   callback raised) is relinked into the covering group with [gseq]
   untouched (and [t.count] never decremented), so the next call's
   expiry sort dispatches it in the same (deadline, tie) order.  Groups
   are unsorted inside, so append position is irrelevant.  A node no
   longer Extracted was cancelled or re-armed by an earlier callback.
   A callback's [next_deadline] may have cached a minimum while the node
   was out of every group, so the cache is dropped. *)
let withhold t n =
  if n.gstate = Extracted then begin
    group_append (target_group t.groups n.gat) n;
    t.min_valid <- false
  end

(* ALLOC001/2: snapshot-batch contract (timer_store.mli) — the sweep
   extracts due nodes into a list before any callback runs; the cons
   cells, the sweep/extract closures and the replacement group for a
   drained range are per-batch work, not per trigger-state check. *)
let[@hot] fire_due t ?prefetch:_ ~now ~limit f =
  t.last_now <- Fire_outcome.checked_now ~previous:t.last_now now;
  let batch = ref [] in
  let extract n =
    n.ggroup <- None;
    n.gstate <- Extracted;
    batch := n :: !batch
  in
  (* Sweep groups from the low end.  A group entirely below [now] is
     drained whole (sorting happens only now, at expiry — the "sorting
     queue" half of the design); the straddling group is partitioned in
     place; everything beyond is untouched.  Groups emptied by the sweep
     are dropped, with the successor inheriting their range so the
     ranges keep partitioning all of time. *)
  let rec sweep groups =
    match groups with
    | [] -> [ fresh_group ~lo:lo_inf ~hi:hi_inf ]
    | g :: rest ->
      if Time_ns.(g.ghi <= now) || g.gn = 0 then begin
        for i = 0 to g.gn - 1 do
          extract (node_at g i)
        done;
        Array.fill g.gitems 0 (Array.length g.gitems) None;
        g.gn <- 0;
        let tail = sweep rest in
        (match tail with x :: _ -> x.glo <- g.glo | [] -> ());
        tail
      end
      else if Time_ns.(g.glo > now) then groups
      else begin
        (* Straddling group: extract due items by swap-pop. *)
        let i = ref 0 in
        while !i < g.gn do
          let n = node_at g !i in
          if Time_ns.(n.gat <= now) then begin
            group_remove g n;
            extract n
          end
          else incr i
        done;
        groups
      end
  in
  t.groups <- sweep t.groups;
  let due =
    List.sort
      (fun a b ->
        let c = Time_ns.compare a.gat b.gat in
        if c <> 0 then c else Int.compare a.gseq b.gseq)
      !batch
  in
  (match due with [] -> () | _ :: _ -> t.min_valid <- false);
  let scanned = List.length due in
  let fired = ref 0 in
  let rec dispatch = function
    | [] -> ()
    | n :: rest ->
      if n.gstate = Extracted && !fired < limit then begin
        n.gstate <- Done;
        t.count <- t.count - 1;
        incr fired;
        (try f n.gat n.gval
         with exn ->
           (* A raising callback withholds the rest of the batch, as an
              exhausted budget would, before the exception leaves. *)
           let bt = Printexc.get_raw_backtrace () in
           List.iter (withhold t) rest;
           Printexc.raise_with_backtrace exn bt);
        dispatch rest
      end
      else begin
        withhold t n;
        dispatch rest
      end
  in
  dispatch due;
  Fire_outcome.pack ~scanned ~fired:!fired
[@@lint.allow "ALLOC001"] [@@lint.allow "ALLOC002"]
