let name = "eventq"

(* Compaction floor: below it a rebuild is not worth its O(n). *)
let compact_floor = 64

type 'a slot = {
  mutable sseq : int;  (* current generation; -1 when free *)
  mutable sat : int;
  mutable sval : 'a option;
}

type 'a handle = {
  hidx : int;
  mutable hseq : int;  (* generation this handle tracks; -1 when dead *)
}

type 'a t = {
  q : Eventq.t;
  mutable slots : 'a slot array;
  mutable nslots : int;  (* slots ever allocated (high-water mark) *)
  mutable free : int list;
  mutable live : int;
  mutable dead : int;  (* stale queue entries awaiting compaction *)
  mutable next_seq : int;
  mutable batch : int array;  (* fire_due's due snapshot, (time, seq, idx) triples *)
  mutable last_now : int;  (* previous [fire_due]'s [now] *)
}

let create ~tick () =
  ignore tick;
  {
    q = Eventq.create ();
    slots = [||];
    nslots = 0;
    free = [];
    live = 0;
    dead = 0;
    next_seq = 0;
    batch = [||];
    last_now = min_int;
  }

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let alloc_slot t =
  match t.free with
  | idx :: rest ->
    t.free <- rest;
    idx
  | [] ->
    let cap = Array.length t.slots in
    if t.nslots = cap then begin
      let ncap = if cap = 0 then 16 else 2 * cap in
      (* Fresh record per cell: [Array.make] would alias one. *)
      t.slots <-
        Array.init ncap (fun i ->
            if i < cap then t.slots.(i) else { sseq = -1; sat = 0; sval = None })
    end;
    let idx = t.nslots in
    t.nslots <- idx + 1;
    idx

let free_slot t idx =
  let s = t.slots.(idx) in
  s.sseq <- -1;
  s.sval <- None;
  (* ALLOC002: the free list is an int list — one cons per completed
     timer.  The production engine pool (lib/simcore/engine.ml) uses an
     int-array stack; this experiment store keeps the simpler shape. *)
  t.free <- ((idx :: t.free) [@lint.allow "ALLOC002"])

(* A handle is pending iff its generation still matches its slot's:
   cancel/fire free the slot (generation -1) and any reuse stamps a
   fresh generation, so stale handles can never match. *)
let valid t h = h.hseq >= 0 && t.slots.(h.hidx).sseq = h.hseq

let note_dead t =
  t.dead <- t.dead + 1;
  if t.dead >= compact_floor && t.dead >= t.live then begin
    Eventq.rebuild t.q ~keep:(fun ~seq ~payload -> t.slots.(payload).sseq = seq);
    t.dead <- 0
  end

let schedule t ~at v =
  let idx = alloc_slot t in
  let s = t.slots.(idx) in
  let seq = fresh_seq t in
  s.sseq <- seq;
  s.sat <- at;
  s.sval <- Some v;
  Eventq.push t.q ~time:at ~seq ~payload:idx;
  t.live <- t.live + 1;
  { hidx = idx; hseq = seq }

let schedule_i t ~at_i v = schedule t ~at:at_i v

let cancel t h =
  if valid t h then begin
    free_slot t h.hidx;
    h.hseq <- -1;
    t.live <- t.live - 1;
    note_dead t
  end

let rearm t h ~at =
  if not (valid t h) then false
  else begin
    (* The old queue entry goes stale (its generation no longer matches)
       and a fresh one is pushed: cancel + schedule in one slot, handle
       untouched. *)
    let s = t.slots.(h.hidx) in
    let seq = fresh_seq t in
    s.sseq <- seq;
    s.sat <- at;
    h.hseq <- seq;
    Eventq.push t.q ~time:at ~seq ~payload:h.hidx;
    note_dead t;
    true
  end

let pending t = t.live
let resident t = Eventq.length t.q

(* Record (9) + Eventq (record 5 + three int arrays of its capacity)
   + slot array (cap + 1) + a 4-word record per allocated slot (all
   created eagerly on growth) + per live slot a [Some] box (2) + a
   free-list cons (3) per recycled slot.  The
   [batch] field and its buffer are left out: they are fire_due scratch,
   sized by the largest due batch seen rather than by the population
   held. *)
let words t =
  let qcap = Eventq.capacity t.q in
  let scap = Array.length t.slots in
  9 + 5
  + (3 * (qcap + 1))
  + (scap + 1)
  + (4 * scap)
  + (2 * t.live)
  + (3 * (t.nslots - t.live))

let handle_pending t h = valid t h
let handle_deadline t h = if valid t h then t.slots.(h.hidx).sat else 0

(* Pop stale entries (cancelled or re-armed away) off the top. *)
let rec shed_stale t =
  if not (Eventq.is_empty t.q) then begin
    let idx = Eventq.min_payload t.q in
    if t.slots.(idx).sseq <> Eventq.min_seq t.q then begin
      Eventq.drop_min t.q;
      if t.dead > 0 then t.dead <- t.dead - 1;
      shed_stale t
    end
  end

(* [shed_stale] leaves a live head, whose key is its deadline. *)
let next_deadline t =
  shed_stale t;
  if Eventq.is_empty t.q then max_int else Eventq.min_time t.q

(* Append one (time, seq, idx) triple at position [n] of the due
   snapshot, doubling the buffer when it is full.  The buffer lives as
   long as the store, so a steady state allocates nothing. *)
let push_due t n ~time ~seq ~idx =
  let k = 3 * n in
  if k + 3 > Array.length t.batch then begin
    let grown = Array.make (Int.max 48 (2 * Array.length t.batch)) 0 in
    Array.blit t.batch 0 grown 0 k;
    t.batch <- grown
  end;
  t.batch.(k) <- time;
  t.batch.(k + 1) <- seq;
  t.batch.(k + 2) <- idx

(* Snapshot entry [k] that the batch does not dispatch (budget
   exhausted, or an earlier callback raised): a still-pending entry is
   pushed back verbatim — same time, same generation, same slot — so
   the next call dispatches it in the same (deadline, tie) order.  A
   corpse was counted by its cancel or re-arm, which we already popped. *)
let withhold t k =
  let time = t.batch.(3 * k) and seq = t.batch.((3 * k) + 1) and idx = t.batch.((3 * k) + 2) in
  if t.slots.(idx).sseq = seq then Eventq.push t.q ~time ~seq ~payload:idx
  else if t.dead > 0 then t.dead <- t.dead - 1

(* Pop the whole due prefix into the snapshot buffer from position [n]
   on; returns its length.  [shed_stale] runs before every pop, so every
   collected triple was pending at collect time — the batch length is
   exactly the scanned count the other stores report. *)
let rec collect_due t now_i n =
  shed_stale t;
  if Eventq.is_empty t.q then n
  else
    let key = Eventq.min_time t.q in
    if key > now_i then n
    else begin
      push_due t n ~time:key ~seq:(Eventq.min_seq t.q) ~idx:(Eventq.min_payload t.q);
      Eventq.drop_min t.q;
      collect_due t now_i (n + 1)
    end

let[@hot] fire_due t ?prefetch:_ ~now ~limit f =
  let now_i = Fire_outcome.checked_now ~previous:t.last_now now in
  t.last_now <- now_i;
  (* The due prefix leaves the queue before any callback runs: it is
     already in (deadline, tie) order, and entries pushed by callbacks
     land in the queue for the next call. *)
  let scanned = collect_due t now_i 0 in
  let fired = ref 0 in
  for k = 0 to scanned - 1 do
    let seq = t.batch.((3 * k) + 1) and idx = t.batch.((3 * k) + 2) in
    let s = t.slots.(idx) in
    (* Generation still matching = not cancelled or re-armed by an
       earlier callback in this batch. *)
    if s.sseq = seq && !fired < limit then begin
      let v = match s.sval with Some v -> v | None -> assert false in
      (* The slot's deadline is this entry's: a re-arm would have
         changed the generation. *)
      let at = s.sat in
      free_slot t idx;
      t.live <- t.live - 1;
      incr fired;
      try f at v
      with exn ->
        (* A raising callback withholds the rest of the batch, as an
           exhausted budget would, before the exception leaves. *)
        let bt = Printexc.get_raw_backtrace () in
        for j = k + 1 to scanned - 1 do
          withhold t j
        done;
        Printexc.raise_with_backtrace exn bt
    end
    else withhold t k
  done;
  Fire_outcome.pack ~scanned ~fired:!fired
