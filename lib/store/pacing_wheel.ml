(* An Eiffel/Carousel-style pacing wheel: an approximate-time bucketed
   priority queue for million-flow rate-based clocking.

   Deadlines are rounded UP to the store's tick granularity [gns] and
   bucketed by tick.  Two levels of circular bucket arrays, each with a
   find-first-set occupancy bitmap, give O(1) schedule / cancel / re-arm
   and O(due) dispatch regardless of population:

   - level 1: one bucket per tick over the current epoch of [n1] ticks
     ([epoch_base, epoch_base + n1)); bucket index = tick mod n1.  Each
     bucket holds exactly one tick and is an append-only (slot, seq)
     pair vector, so it is (deadline, tie)-sorted for free and dispatch
     reads it sequentially instead of pointer-chasing a chain.
   - level 2: one bucket per [n1]-tick span over the current level-2
     epoch of [n2] spans; when the level-1 epoch advances, the matching
     level-2 bucket cascades into level 1 (each entry moves at most
     once per level — amortised O(1)).
   - far list: beyond the level-2 horizon (default 4096 × 4096 ticks ≈
     167 s at 10 µs); FIFO with a cached minimum, cascaded into level 2
     when the level-2 epoch advances.
   - past list: entries whose quantized deadline fell below [cur_tick]
     at link time.  They are already due (the wheel only advances past
     a tick once [now] reaches it), strictly earlier than anything in
     the wheel, and dispatched first through the core's snapshot batch,
     sorted by (deadline, tie).

   The level-2 buckets and the past and far lists are the tail-linked
   chains of one [Wheel_core]; only level 1 keeps its own pair vectors.
   Entries live in a [Slab] of stride-8 rows holding the core's
   deadline / tie / prev / next, the slab's generation / location and
   a level-1 vector position — a whole entry in one cache line, which
   is what keeps dispatch flat when a million-slot arena no longer fits
   in cache — plus one value array.  Handles are the slab's immediate
   ints and deadlines are int ns, so steady-state schedule / fire /
   re-arm allocates nothing.

   Semantics: exactly [Timer_store.Quantize] applied to the reference
   store — the §7.1 contract with every deadline rounded up to the tick
   granularity (never early).  The cross-store suite checks this by
   string-equality against the quantized oracle. *)

let name = "pacing-wheel"

(* The empty vector is OCaml's static atom — installing it allocates
   nothing; buckets hold it whenever their buffer is parked or dropped. *)
let empty_vec : int array = [||]

let default_buckets = 4096

type 'a t = {
  gns : int;  (* bucket granularity, ns per tick *)
  n1 : int;  (* level-1 buckets (power of two) *)
  n2 : int;  (* level-2 buckets (power of two) *)
  v1 : int array array;  (* level-1 (slot, seq) pair vectors, see below *)
  f1 : int array;  (* level-1 vector fill, in pairs (live + dead) *)
  c1 : int array;  (* per-bucket live counts: O(1) due-counting *)
  c2 : int array;
  occ1 : int array;  (* level-1 occupancy bitmap, 32 bits per word *)
  mutable cur_tick : int;  (* lowest tick that may still hold wheel entries *)
  mutable far_min : int;  (* cached min deadline of the far list, -1 unknown *)
  mutable n1_count : int;  (* entries linked in level 1 *)
  mutable n2_count : int;
  mutable next_seq : int;
  slab : 'a Slab.t;  (* stride-8 rows, fields below *)
  core : Wheel_core.t;  (* chains: level-2 buckets, then past, then far *)
  spares : int array array;  (* parked level-1 vector buffers, see [link1_tail] *)
  mutable spare_n : int;
  mutable dispatching : int;  (* bucket being dispatched (-1 none): see [unlink] *)
  mutable last_now : int;  (* previous [fire_due]'s [now] *)
}

type 'a handle = int

(* ---- rows and locations ---------------------------------------------
   One stride-8 slab row per slot: the core's deadline, tie, prev and
   next, the slab's generation and location, the level-1 vector
   position (+1 pad word to keep rows line-aligned).  prev/next serve
   the chains, pos the level-1 pair vectors — a slot is only ever in
   one of the two.  A chained slot's location is its chain: level-2
   bucket b is chain b, then come the past and far chains; a level-1
   slot's location follows them. *)

let[@inline] s_at t i = Wheel_core.row_at t.slab i
let[@inline] s_loc t i = Wheel_core.row_loc t.slab i
let[@inline] s_gen t i = t.slab.rows.((i lsl 3) + Slab.gen)
let[@inline] s_pos t i = t.slab.rows.((i lsl 3) + 6)
let[@inline] set_pos t i v = t.slab.rows.((i lsl 3) + 6) <- v
let[@inline] past t = t.n2
let[@inline] far t = t.n2 + 1
let[@inline] vec_loc t b = t.n2 + 2 + b
let[@inline] far_empty t = t.core.heads.(far t) < 0

(* ---- construction -------------------------------------------------- *)

let rec pow2_at_least k n = if k >= n then k else pow2_at_least (k * 2) n

let create_sized ~buckets ~tick () =
  let n = pow2_at_least 4 (if buckets < 4 then 4 else buckets) in
  {
    gns = Int.max tick 1;
    n1 = n;
    n2 = n;
    v1 = Array.make n [||];
    f1 = Array.make n 0;
    c1 = Array.make n 0;
    c2 = Array.make n 0;
    occ1 = Array.make ((n + 31) lsr 5) 0;
    cur_tick = 0;
    far_min = -1;
    n1_count = 0;
    n2_count = 0;
    next_seq = 0;
    slab = Slab.create ~stride:8;
    core = Wheel_core.create ~chains:(n + 2) ~tails:true;
    spares = Array.make 64 [||];
    spare_n = 0;
    dispatching = -1;
    last_now = min_int;
  }

let create ~tick () = create_sized ~buckets:default_buckets ~tick ()

(* ---- level 1 and the chains ---------------------------------------- *)

(* Level-1 buckets are (slot, seq) pair vectors, not chains: dispatch
   iterates them sequentially (index arithmetic the prefetcher can run
   ahead of) instead of pointer-chasing one cold slab row to find the
   next — at a million slots, the difference between one overlapped and
   one serial DRAM round-trip per due entry.  Appends keep seq
   ascending (every append carries a fresh, globally increasing tie),
   removal marks the pair dead in place (slot := -1, O(1), order
   preserved), and a bucket compacts when dead pairs outnumber live
   ones — amortized against the cancels that created them. *)
let link1_tail t b i =
  let pos = t.f1.(b) in
  (if Array.length t.v1.(b) < (pos + 1) * 2 then begin
     let vec = t.v1.(b) in
     let need = (pos + 1) * 2 in
     (* Prefer a parked buffer from a retired bucket: buckets retire at
        one per tick and start growing at about the same rate (each rate
        class appends to a new target bucket every tick), so a small
        ring of full-lap-sized spares keeps the steady state free of
        fresh vector allocations, doubling blits, and the major-GC churn
        of discarded ladders — at a million flows that churn is ~0.5 MB
        of array traffic per tick.  A growing bucket takes a spare at
        its first growth step and never doubles again this lap. *)
     let nv =
       if t.spare_n > 0 && Array.length t.spares.(t.spare_n - 1) >= need then begin
         t.spare_n <- t.spare_n - 1;
         let s = t.spares.(t.spare_n) in
         t.spares.(t.spare_n) <- empty_vec;
         s
       end
       else Array.make (Int.max 16 (Int.max need (Array.length vec * 2))) 0
     in
     Array.blit vec 0 nv 0 (pos * 2);
     t.v1.(b) <- nv
   end);
  let vec = t.v1.(b) in
  vec.(pos * 2) <- i;
  vec.((pos * 2) + 1) <- Wheel_core.row_tie t.slab i;
  Wheel_core.set_loc t.slab i (vec_loc t b);
  set_pos t i pos;
  t.f1.(b) <- pos + 1;
  if t.c1.(b) = 0 then Bitmap.set_bit t.occ1 b;
  t.c1.(b) <- t.c1.(b) + 1;
  t.n1_count <- t.n1_count + 1

(* Bucket [b] just emptied: clear it and retire its buffer.  A bucket
   drains once per lap, and holding its peak capacity for the next 4096
   ticks would retain a whole lap's worth of dead vectors.  Park it in
   the spare ring for the buckets currently growing; small ones stay
   put, and overflow beyond the ring goes to the GC. *)
let drain_bucket t b =
  t.f1.(b) <- 0;
  Bitmap.clear_bit t.occ1 b;
  let vec = t.v1.(b) in
  if Array.length vec > 64 then begin
    if t.spare_n < Array.length t.spares then begin
      t.spares.(t.spare_n) <- vec;
      t.spare_n <- t.spare_n + 1
    end;
    t.v1.(b) <- empty_vec
  end

(* Drop the dead pairs of bucket [b], preserving (ascending-seq) order. *)
let compact_bucket t b =
  let vec = t.v1.(b) in
  let w = ref 0 in
  for q = 0 to t.f1.(b) - 1 do
    let s = vec.(q * 2) in
    if s >= 0 then begin
      vec.(!w * 2) <- s;
      vec.((!w * 2) + 1) <- vec.((q * 2) + 1);
      set_pos t s !w;
      incr w
    end
  done;
  t.f1.(b) <- !w

(* The end of bucket [b]'s dispatch, whether it ran out, met the budget
   or met a raising callback: account the [fired] entries, whose pairs
   were marked dead without [unlink], let [unlink] restructure the
   bucket again, and drain it if nothing is left. *)
let settle t b fired =
  t.dispatching <- -1;
  t.c1.(b) <- t.c1.(b) - fired;
  t.n1_count <- t.n1_count - fired;
  if t.c1.(b) = 0 then drain_bucket t b

let link2_tail t b i =
  Wheel_core.link t.slab t.core b i;
  t.c2.(b) <- t.c2.(b) + 1;
  t.n2_count <- t.n2_count + 1

let link_far_tail t i =
  let was_empty = far_empty t in
  Wheel_core.link t.slab t.core (far t) i;
  let at = s_at t i in
  if was_empty || (t.far_min >= 0 && at < t.far_min) then t.far_min <- at

let unlink t i =
  let loc = s_loc t i in
  if loc > far t then begin
    (* Level-1: mark the pair dead in place. *)
    let b = loc - vec_loc t 0 in
    t.v1.(b).(s_pos t i * 2) <- -1;
    t.c1.(b) <- t.c1.(b) - 1;
    t.n1_count <- t.n1_count - 1;
    (* Never restructure the bucket [fire_due] is iterating: compaction
       moves pairs and the reset swaps the buffer out from under the
       dispatch cursor.  The dispatch loop does its own cleanup. *)
    if b <> t.dispatching then begin
      if t.c1.(b) = 0 then drain_bucket t b
      else if t.f1.(b) >= 8 && t.f1.(b) > 2 * t.c1.(b) then compact_bucket t b
    end
  end
  else if loc >= 0 then begin
    (* A chain; a slot in a batch in flight is in none. *)
    Wheel_core.unlink t.slab t.core i;
    if loc < t.n2 then begin
      t.c2.(loc) <- t.c2.(loc) - 1;
      t.n2_count <- t.n2_count - 1
    end
    else if loc = far t && (not (far_empty t)) && s_at t i <= t.far_min then t.far_min <- -1
  end

(* The earliest deadline of the non-empty far list. *)
let far_min t =
  if t.far_min < 0 then
    t.far_min <- s_at t (Wheel_core.chain_min t.slab t.core.heads.(far t) (-1));
  t.far_min

(* ---- routing ------------------------------------------------------- *)

(* Epoch bounds, derived from [cur_tick].  Level 1 holds ticks in
   [epoch1_base, epoch1_base + n1); level 2 holds spans ([tick / n1])
   strictly above the current one and below [epoch2_end]. *)
let epoch1_base t = t.cur_tick - (t.cur_tick land (t.n1 - 1))

let route t i =
  let tick = s_at t i / t.gns in
  if tick < t.cur_tick then Wheel_core.link t.slab t.core (past t) i
  else begin
    let e1 = epoch1_base t + t.n1 in
    if tick < e1 then link1_tail t (tick land (t.n1 - 1)) i
    else begin
      let tick2 = tick / t.n1 in
      let cur2 = t.cur_tick / t.n1 in
      let e2 = cur2 - (cur2 land (t.n2 - 1)) + t.n2 in
      if tick2 < e2 then link2_tail t (tick2 land (t.n2 - 1)) i else link_far_tail t i
    end
  end

(* ---- the public surface -------------------------------------------- *)

let[@inline] quantize t ati = Timer_store.round_up ~tick:t.gns ati

(* Give row [i] its quantized deadline and a fresh tie, and route it. *)
let place t i at =
  Wheel_core.set_at t.slab i (quantize t at);
  Wheel_core.set_tie t.slab i t.next_seq;
  t.next_seq <- t.next_seq + 1;
  route t i

(* With the wheel's int handles, a schedule allocates nothing (arena
   growth amortized aside). *)
let schedule t ~at v =
  let i = Slab.alloc t.slab v in
  place t i at;
  Slab.handle t.slab i

let schedule_i t ~at_i v = schedule t ~at:at_i v

let cancel t h =
  if Slab.valid t.slab h then begin
    let i = Slab.row_of h in
    unlink t i;
    Slab.free t.slab i
  end

let rearm t h ~at =
  Slab.valid t.slab h
  && begin
       let i = Slab.row_of h in
       unlink t i;
       place t i at;
       true
     end

let pending t = Slab.live t.slab
let resident t = Slab.live t.slab (* cancellation unlinks and frees: no corpses *)

(* Analytic heap footprint, 64-bit words.  Everything is flat int
   arrays, so this is exact up to a few shared empty-array atoms: the
   record (19 fields + header), the fixed per-level arrays, the core,
   the slab, and the live level-1 pair vectors and parked spare
   buffers. *)
let words t =
  let arr a = if Array.length a = 0 then 0 else Array.length a + 1 in
  let vecs = Array.fold_left (fun acc v -> acc + arr v) 0 t.v1 in
  let spare = Array.fold_left (fun acc v -> acc + arr v) 0 t.spares in
  20
  + (Array.length t.v1 + 1)
  + arr t.f1 + arr t.c1 + arr t.c2 + arr t.occ1
  + Wheel_core.words t.core
  + Slab.words t.slab
  + (Array.length t.spares + 1)
  + vecs + spare

let handle_pending t h = Slab.valid t.slab h
let handle_deadline t h = if Slab.valid t.slab h then s_at t (Slab.row_of h) else 0

(* The earliest deadline of the chain from row [i], or [best]. *)
let chain_deadline t i best =
  if i < 0 then best else Int.min best (s_at t (Wheel_core.chain_min t.slab i (-1)))

let next_deadline t =
  if Slab.live t.slab = 0 then max_int
  else begin
    (* past: unsorted, walk in full (short-lived: drained every fire) *)
    let best = ref (chain_deadline t t.core.heads.(past t) max_int) in
    (* level 1: buckets are single-tick, so the first occupied bucket is
       the level minimum *)
    let base = epoch1_base t in
    let idx = Bitmap.ffs_in_range t.occ1 ~from:(t.cur_tick - base) ~upto:(t.n1 - 1) in
    if idx >= 0 then begin
      let cand = (base + idx) * t.gns in
      if cand < !best then best := cand
    end;
    (* level 2: the first occupied bucket spans n1 ticks, unsorted —
       walk that one chain *)
    let cur2 = t.cur_tick / t.n1 in
    let idx2 =
      Bitmap.ffs_in_range t.core.occ ~from:((cur2 land (t.n2 - 1)) + 1) ~upto:(t.n2 - 1)
    in
    if idx2 >= 0 then best := chain_deadline t t.core.heads.(idx2) !best;
    if not (far_empty t) then best := Int.min !best (far_min t);
    !best
  end

(* ---- cascades ------------------------------------------------------ *)

(* The level-1 epoch just advanced to [cur_tick] (a multiple of n1):
   spill the matching level-2 bucket into level 1.  The chain is walked
   head-to-tail, so FIFO (= tie) order is preserved, and every target
   level-1 bucket is empty (ticks of the new epoch could not be
   scheduled into level 1 before now), so each bucket ends up
   tie-sorted. *)
let cascade_bucket t idx2 =
  let h = ref (Wheel_core.take t.core idx2) in
  t.c2.(idx2) <- 0;
  while !h >= 0 do
    let i = !h in
    h := Wheel_core.row_next t.slab i;
    t.n2_count <- t.n2_count - 1;
    link1_tail t ((s_at t i / t.gns) land (t.n1 - 1)) i
  done

(* The level-2 epoch just advanced to span [tick2_new] (a multiple of
   n2): move far entries now inside the level-2 horizon into their
   bucket.  Far entries always predate any direct level-2 schedule for
   the same span (a span inside the horizon is never routed to far, and
   the horizon only ever grows at these cascade points), so the target
   buckets are empty and tie order is preserved. *)
let cascade_far t tick2_new =
  let e2 = tick2_new + t.n2 in
  let i = ref t.core.heads.(far t) in
  while !i >= 0 do
    let j = !i in
    i := Wheel_core.row_next t.slab j;
    let tk2 = s_at t j / t.gns / t.n1 in
    if tk2 < e2 then begin
      unlink t j;
      link2_tail t (tk2 land (t.n2 - 1)) j
    end
  done

(* Fast-forward used when both wheel levels are empty: re-route the far
   list against the advanced [cur_tick] instead of walking epochs one
   by one.  Walk order is FIFO, so entries landing in the same (empty)
   bucket keep tie order; entries still beyond the horizon re-append to
   far in their original order.  The whole chain is detached first:
   [route] may re-append an entry to the (fresh) far list, and walking
   a list that grows at the tail would never terminate. *)
let reroute_far t =
  let h = ref (Wheel_core.take t.core (far t)) in
  while !h >= 0 do
    let j = !h in
    h := Wheel_core.row_next t.slab j;
    route t j
  done

(* ---- fire ---------------------------------------------------------- *)

(* Entries whose bucket is being retired but whose tie position is at or
   past this call's snapshot boundary (scheduled by a callback during
   the call): move them to the past list so advancing [cur_tick] cannot
   strand them.  They are due, so the next call dispatches them from
   the past list, sorted — exactly the reference behaviour. *)
let retire_bucket_to_past t b =
  let vec = t.v1.(b) in
  for q = 0 to t.f1.(b) - 1 do
    let s = vec.(q * 2) in
    if s >= 0 then Wheel_core.link t.slab t.core (past t) s
  done;
  t.n1_count <- t.n1_count - t.c1.(b);
  t.c1.(b) <- 0;
  drain_bucket t b

(* Count the due batch before any callback runs ([Fire_outcome.scanned]
   counts entries cancelled mid-batch too, so counting after dispatch
   would undercount), starting from the [gathered] past entries.
   Level-1 buckets are single-tick, so a bucket at or below [target] is
   due in full and its maintained count is the answer — no chain walk,
   which matters because walking the chain here would be a second cold
   pointer-chase over every due row before dispatch does the same. *)
let count_due t ~now_i ~target gathered =
  let scanned = ref gathered in
  let base = epoch1_base t in
  if target >= t.cur_tick && t.n1_count > 0 then begin
    let upto =
      let lap = base + t.n1 - 1 in
      if target < lap then target - base else t.n1 - 1
    in
    let idx = ref (Bitmap.ffs_in_range t.occ1 ~from:(t.cur_tick - base) ~upto) in
    while !idx >= 0 do
      scanned := !scanned + t.c1.(!idx);
      idx := if !idx + 1 > upto then -1 else Bitmap.ffs_in_range t.occ1 ~from:(!idx + 1) ~upto
    done
  end;
  if target >= base + t.n1 && t.n2_count > 0 then begin
    let target2 = target / t.n1 in
    let cur2 = t.cur_tick / t.n1 in
    let base2 = cur2 - (cur2 land (t.n2 - 1)) in
    let from2 = (cur2 land (t.n2 - 1)) + 1 in
    let idx2 = ref (Bitmap.ffs_in_range t.core.occ ~from:from2 ~upto:(t.n2 - 1)) in
    let stop = ref false in
    while (not !stop) && !idx2 >= 0 do
      let tick2 = base2 + !idx2 in
      if tick2 > target2 then stop := true
      else begin
        (* A bucket strictly below the target span is due in full; only
           the bucket containing the target tick needs a walk. *)
        scanned :=
          !scanned
          + (if tick2 < target2 then t.c2.(!idx2)
             else Wheel_core.chain_due t.slab t.core.heads.(!idx2) ~now:now_i);
        idx2 :=
          if !idx2 + 1 > t.n2 - 1 then -1
          else Bitmap.ffs_in_range t.core.occ ~from:(!idx2 + 1) ~upto:(t.n2 - 1)
      end
    done
  end;
  if (not (far_empty t)) && far_min t <= now_i then
    scanned := !scanned + Wheel_core.chain_due t.slab t.core.heads.(far t) ~now:now_i;
  !scanned

(* The past list goes first, through the core's snapshot batch: only
   reached when a deadline was quantized below an already-retired tick
   or a budget stop left due work behind — never the steady pacing
   path.  The in-horizon path touches only int arrays. *)
let[@hot] fire_due t ?prefetch ~now ~limit f =
  let pf = match prefetch with Some g -> g | None -> ignore in
  let seq_limit = t.next_seq in
  let now_i = Fire_outcome.checked_now ~previous:t.last_now now in
  t.last_now <- now_i;
  let target = now_i / t.gns in
  if Slab.live t.slab = 0 then begin
    (* Nothing anywhere: retire the whole range in O(1).  The wheel and
       far list are empty, so no cascade state is skipped. *)
    if target >= t.cur_tick then t.cur_tick <- target + 1;
    Fire_outcome.pack ~scanned:0 ~fired:0
  end
  else begin
    let base = t.core.top in
    Wheel_core.gather t.slab t.core (past t) ~now:now_i;
    let scanned = count_due t ~now_i ~target (t.core.top - base) in
    let fired =
      ref
        (if t.core.top > base then
           Wheel_core.fire t.slab t.core ~base ~into:(past t) ~limit f
         else 0)
    in
    let break_ = ref false in
    if !fired >= limit && scanned > !fired then break_ := true;
    while (not !break_) && t.cur_tick <= target do
      if t.n1_count = 0 && t.n2_count = 0 then begin
        (* Both wheel levels empty: fast-forward to the earliest far
           entry (or past the whole range) instead of walking epochs. *)
        let jump =
          if far_empty t then target + 1
          else begin
            let fmt = far_min t / t.gns in
            if fmt > target then target + 1 else if fmt > t.cur_tick then fmt else t.cur_tick
          end
        in
        t.cur_tick <- jump;
        if not (far_empty t) then reroute_far t;
        if t.cur_tick > target then break_ := true
      end
      else begin
        let base = epoch1_base t in
        let lap_end = if target < base + t.n1 - 1 then target else base + t.n1 - 1 in
        let scanning = ref true in
        while !scanning do
          let idx = Bitmap.ffs_in_range t.occ1 ~from:(t.cur_tick - base) ~upto:(lap_end - base) in
          if idx < 0 then begin
            t.cur_tick <- lap_end + 1;
            scanning := false
          end
          else begin
            let tick = base + idx in
            t.cur_tick <- tick;
            (* Dispatch straight off the pair vector — no snapshot, and
               no slab reads at all on this path.  The vector is ground
               truth: [unlink] marks a cancelled or re-armed pair dead
               in place, so re-reading the pair just before firing IS
               the validity check; the deadline is [tick * gns] by
               construction (a single-tick bucket holds exactly the
               entries quantized to it); and the seq rides in the pair,
               ascending, so the scan stops at the first entry
               scheduled during this call.  Mid-dispatch appends land
               at fill positions past the cut (fresh seq >= seq_limit)
               and are retired to the past list below; restructuring
               (compaction, buffer reset) is suppressed for this one
               bucket via [dispatching], so positions stay stable.  The
               slab row is only written, once, when the fired slot's
               generation is bumped — stores do not stall retirement
               the way demand loads do.

               The scan runs in chunks of 64, each chunk in two phases.
               The warm phase touches every entry's cold lines back to
               back — the payload, then (through the caller's
               [?prefetch] hint) whatever the callback will chase,
               e.g. the pool's flow row — so the touches' cache misses
               overlap up to the core's memory-level parallelism
               instead of serializing one per callback; the dispatch
               phase then runs on warm lines.  Two sweeps, not one:
               [pf]'s target address depends on the payload load, so
               fusing them would serialize each pair.  A touch may hit
               an entry a callback later in the chunk cancels — the
               hint contract allows it. *)
            let fired_here = ref 0 in
            (* Every entry in a single-tick bucket fires at the same
               quantized time. *)
            let at = tick * t.gns in
            t.dispatching <- idx;
            let stop = ref t.f1.(idx) in
            let q = ref 0 in
            (match
               while !q < !stop && not !break_ do
                 let chunk_end = if !q + 64 < !stop then !q + 64 else !stop in
                 let vec = t.v1.(idx) in
                 let a = ref !q in
                 while !a < chunk_end && !a < !stop do
                   let s = vec.(!a * 2) in
                   if s >= 0 then begin
                     if vec.((!a * 2) + 1) >= seq_limit then stop := !a
                     else begin
                       (* Load the slab row too: [Slab.free] is about to
                          store to it, and a warmed line turns that RFO
                          miss (which would pile up in the store buffer)
                          into an ownership upgrade. *)
                       ignore (Sys.opaque_identity (s_gen t s));
                       ignore (Sys.opaque_identity t.slab.vals.(s))
                     end
                   end;
                   incr a
                 done;
                 let hi = if chunk_end < !stop then chunk_end else !stop in
                 for a = !q to hi - 1 do
                   let s = vec.(a * 2) in
                   if s >= 0 then pf t.slab.vals.(s)
                 done;
                 while !q < hi && not !break_ do
                   if !fired >= limit then begin
                     (* Budget stop: withheld entries stay linked with
                        their deadline and tie intact; cur_tick rests on
                        this tick so the next call resumes here. *)
                     scanning := false;
                     break_ := true
                   end
                   else begin
                     (* Re-read through [t.v1]: a callback's schedule may
                        have grown (replaced) the vector, and a callback's
                        cancel may have killed this pair since the warm
                        sweep. *)
                     let vec = t.v1.(idx) in
                     let s = vec.(!q * 2) in
                     if s >= 0 then begin
                       vec.(!q * 2) <- -1;
                       let v = t.slab.vals.(s) in
                       Slab.free t.slab s;
                       incr fired;
                       incr fired_here;
                       f at v
                     end;
                     incr q
                   end
                 done
               done
             with
             | () -> ()
             | exception exn ->
               (* A raising callback stops the bucket as a budget stop
                  does: its own entry counts as fired, the rest stay
                  linked, and [cur_tick] rests on this tick. *)
               let bt = Printexc.get_raw_backtrace () in
               settle t idx !fired_here;
               Printexc.raise_with_backtrace exn bt);
            settle t idx !fired_here;
            if not !break_ then begin
              (* Anything still linked was scheduled or re-armed during
                 this call (tie at or past the snapshot boundary): move
                 it to the past list so advancing cur_tick cannot strand
                 it.  It is due, and the next call dispatches it from
                 there, sorted — exactly the reference behaviour. *)
              if t.c1.(idx) > 0 then retire_bucket_to_past t idx;
              t.cur_tick <- tick + 1
            end
          end
        done;
        if (not !break_) && t.cur_tick = base + t.n1 then begin
          (* Epoch advance.  Far cascades first: a far entry for the
             incoming span must reach its level-2 bucket before that
             bucket spills into level 1. *)
          let tick2 = t.cur_tick / t.n1 in
          if tick2 land (t.n2 - 1) = 0 && not (far_empty t) then cascade_far t tick2;
          let idx2 = tick2 land (t.n2 - 1) in
          if t.core.heads.(idx2) >= 0 then cascade_bucket t idx2
        end
      end
    done;
    Fire_outcome.pack ~scanned ~fired:!fired
  end
