let name = "lawn"

type nstate =
  | Linked  (* in its bucket's FIFO *)
  | Extracted  (* pulled into a fire batch, callback not yet run *)
  | Done  (* fired or cancelled *)

type 'a node = {
  mutable nat : int;
  mutable nseq : int;
  nval : 'a;
  mutable nstate : nstate;
  mutable nprev : 'a node option;
  mutable nnext : 'a node option;
  mutable nbucket : 'a bucket;
}

and 'a bucket = {
  bdur : int;
  mutable bhead : 'a node option;
  mutable btail : 'a node option;
}

type 'a t = {
  tbl : (int, 'a bucket) Hashtbl.t;  (* duration -> bucket, lookup only (DET004) *)
  mutable buckets_rev : 'a bucket list;  (* creation order, reversed *)
  mutable last_now : int;
  mutable count : int;
  mutable next_seq : int;
  mutable cached_min : int;
  mutable min_valid : bool;
}

type 'a handle = 'a node

let create ~tick () =
  ignore tick;
  {
    tbl = Hashtbl.create 16;
    buckets_rev = [];
    last_now = 0;
    count = 0;
    next_seq = 0;
    cached_min = 0;
    min_valid = true;  (* vacuously: empty *)
  }

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let bucket_for t dur =
  match Hashtbl.find_opt t.tbl dur with
  | Some b -> b
  | None ->
    let b = { bdur = dur; bhead = None; btail = None } in
    Hashtbl.replace t.tbl dur b;
    t.buckets_rev <- b :: t.buckets_rev;
    b

(* Append at the tail.  Within a bucket, deadlines are non-decreasing in
   insertion order: equal durations inserted under a monotone [last_now]
   produce monotone deadlines.  The only exception is the zero-duration
   bucket, which absorbs clamped past deadlines — but those are all
   already due, so head-popping still never strands a due entry (the
   zero bucket is walked in full instead of popped, see below). *)
let link_tail b n =
  n.nprev <- b.btail;
  n.nnext <- None;
  (match b.btail with Some tl -> tl.nnext <- Some n | None -> b.bhead <- Some n);
  b.btail <- Some n

(* Prepend at the head: only used to return budget-withheld due nodes
   to their bucket.  A withheld node's deadline is [<= now], hence no
   later than anything the pop loop left behind, so head insertion
   preserves the bucket's monotone-deadline invariant. *)
let link_head b n =
  n.nnext <- b.bhead;
  n.nprev <- None;
  (match b.bhead with Some hd -> hd.nprev <- Some n | None -> b.btail <- Some n);
  b.bhead <- Some n
(* ALLOC002: the [Some _] links allocate, but this only runs for
   budget-withheld nodes — the truncated tail of a [fire_due] batch,
   never the steady-state fire path. *)
[@@lint.allow "ALLOC002"]

let unlink b n =
  (match n.nprev with Some p -> p.nnext <- n.nnext | None -> b.bhead <- n.nnext);
  (match n.nnext with Some s -> s.nprev <- n.nprev | None -> b.btail <- n.nprev);
  n.nprev <- None;
  n.nnext <- None

let note_scheduled t at =
  if t.min_valid then
    if t.count = 0 then t.cached_min <- at else t.cached_min <- Int.min t.cached_min at

let insert t n at =
  let dur = Int.max (at - t.last_now) 0 in
  let b = bucket_for t dur in
  n.nat <- at;
  n.nbucket <- b;
  link_tail b n

let schedule t ~at v =
  let dur = Int.max (at - t.last_now) 0 in
  let b = bucket_for t dur in
  let n =
    {
      nat = at;
      nseq = fresh_seq t;
      nval = v;
      nstate = Linked;
      nprev = None;
      nnext = None;
      nbucket = b;
    }
  in
  link_tail b n;
  note_scheduled t at;
  t.count <- t.count + 1;
  n

let schedule_i t ~at_i v = schedule t ~at:at_i v

let cancel t n =
  match n.nstate with
  | Done -> ()
  | Linked ->
    unlink n.nbucket n;
    n.nstate <- Done;
    t.count <- t.count - 1;
    if t.min_valid && t.count > 0 && n.nat <= t.cached_min then t.min_valid <- false
  | Extracted ->
    (* Already pulled into the current fire batch; the dispatch loop
       will skip it. *)
    n.nstate <- Done;
    t.count <- t.count - 1

let rearm t n ~at =
  match n.nstate with
  | Done -> false
  | Linked ->
    unlink n.nbucket n;
    (* The departing deadline may have been the cached minimum. *)
    if t.min_valid && n.nat <= t.cached_min then t.min_valid <- false;
    n.nseq <- fresh_seq t;
    insert t n at;
    note_scheduled t at;
    true
  | Extracted ->
    (* Re-arming a batch member: it leaves the batch (the dispatch loop
       skips non-Extracted nodes) and re-enters a bucket with a fresh
       tie position, exactly cancel + schedule. *)
    n.nseq <- fresh_seq t;
    n.nstate <- Linked;
    insert t n at;
    note_scheduled t at;
    true

let pending t = t.count
let resident t = t.count  (* cancellation unlinks physically: no corpses *)

(* Record (8) + hashtable (record 5 + 17-slot bucket array) + per
   duration bucket: hashtable binding (4) + bucket record (4) +
   [buckets_rev] cons (3) + per linked node: record (8) + on average two
   [Some] link boxes pointing at it (4). *)
let words t = 8 + 22 + (11 * List.length t.buckets_rev) + (12 * t.count)

let handle_pending _t n = n.nstate <> Done
let handle_deadline _t n = n.nat

let scan_min t =
  let best = ref max_int in
  let consider at = best := Int.min !best at in
  List.iter
    (fun b ->
      if b.bdur = 0 then begin
        (* The zero bucket may hold clamped past deadlines out of order;
           walk it in full.  It is drained at every fire_due, so it is
           short-lived. *)
        let rec walk = function
          | None -> ()
          | Some n ->
            consider n.nat;
            walk n.nnext
        in
        walk b.bhead
      end
      else match b.bhead with Some n -> consider n.nat | None -> ())
    (List.rev t.buckets_rev);
  !best

let next_deadline t =
  if t.count = 0 then max_int
  else begin
    if not t.min_valid then begin
      t.cached_min <- scan_min t;
      t.min_valid <- true
    end;
    t.cached_min
  end

(* Relink the due nodes a batch did not dispatch (budget exhausted, or
   a callback raised) at the head of their original bucket, latest first
   so the earliest ends up at the head — the next call pops them in the
   same (deadline, tie) order ([nseq] untouched, [t.count] never
   decremented for them).  A callback's [next_deadline] may have cached
   a minimum while they were out of every bucket, so the cache is
   dropped. *)
let rec relink_withheld t latest_first =
  match latest_first with
  | [] -> ()
  | n :: rest ->
    n.nstate <- Linked;
    link_head n.nbucket n;
    t.min_valid <- false;
    relink_withheld t rest

(* ALLOC001/2: snapshot-batch contract (timer_store.mli) — due nodes
   are unlinked into a list before any callback runs, so the cons cells
   and local walk/pop/extract closures are per-batch work amortized
   over the fired timers; a check that fires nothing allocates nothing
   (the buckets are walked in place). *)
let[@hot] fire_due t ?prefetch:_ ~now ~limit f =
  let now_i = Fire_outcome.checked_now ~previous:t.last_now now in
  t.last_now <- now_i;
  (* Collect the due snapshot: pop each positive-duration bucket from the
     head while due (FIFO order = deadline order within a bucket), walk
     the zero bucket in full. *)
  let batch = ref [] in
  let extract n =
    n.nstate <- Extracted;
    batch := n :: !batch
  in
  List.iter
    (fun b ->
      if b.bdur = 0 then begin
        let rec walk = function
          | None -> ()
          | Some n ->
            let next = n.nnext in
            if n.nat <= now_i then begin
              unlink b n;
              extract n
            end;
            walk next
        in
        walk b.bhead
      end
      else begin
        let rec pop () =
          match b.bhead with
          | Some n when n.nat <= now_i ->
            unlink b n;
            extract n;
            pop ()
          | _ -> ()
        in
        pop ()
      end)
    (List.rev t.buckets_rev);
  let due =
    List.sort
      (fun a b ->
        let c = Int.compare a.nat b.nat in
        if c <> 0 then c else Int.compare a.nseq b.nseq)
      !batch
  in
  (match due with [] -> () | _ :: _ -> t.min_valid <- false);
  let scanned = List.length due in
  let fired = ref 0 in
  let withheld = ref [] in
  (* Still Extracted = not cancelled or re-armed by an earlier callback
     in this batch. *)
  let withhold n = if n.nstate = Extracted then withheld := n :: !withheld in
  let rec dispatch = function
    | [] -> ()
    | n :: rest ->
      if n.nstate = Extracted && !fired < limit then begin
        n.nstate <- Done;
        t.count <- t.count - 1;
        incr fired;
        (try f n.nat n.nval
         with exn ->
           (* A raising callback withholds the rest of the batch, as an
              exhausted budget would, before the exception leaves. *)
           let bt = Printexc.get_raw_backtrace () in
           List.iter withhold rest;
           relink_withheld t !withheld;
           Printexc.raise_with_backtrace exn bt);
        dispatch rest
      end
      else begin
        withhold n;
        dispatch rest
      end
  in
  dispatch due;
  relink_withheld t !withheld;
  Fire_outcome.pack ~scanned ~fired:!fired
[@@lint.allow "ALLOC001"] [@@lint.allow "ALLOC002"]
