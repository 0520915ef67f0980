let name = "wheel"

(* Entries live in a [Slab]: one stride-6 row per entry holding its
   deadline (ns), tie position, chain links, and the slab's generation
   and location, plus one value array.  Each slot chains its rows
   through prev/next (order within a slot carries no meaning: a batch
   is sorted, a sweep takes a minimum), and an occupancy bitmap over the
   slots lets sweeps skip empty ones.  Handles are the slab's.  Cancel
   and re-arm unlink physically, so resident = pending and nothing is
   ever compacted. *)

(* Location codes: a slot index in [0, slots), [Slab.loc_free], or: *)
let loc_batch = -2 (* gathered by a [fire_due] in progress *)

let stride = 6

(* [min_row] codes besides a row index. *)
let min_unknown = -1
let min_none = -2 (* no bucketed row *)

type 'a handle = int

type 'a t = {
  slots_n : int;
  gran : int;  (* tick, ns *)
  heads : int array;  (* per-slot chain head row, -1 when empty *)
  occ : int array;  (* occupancy bitmap over slots, 32 bits per word *)
  mutable count : int;
  mutable next_seq : int;
  mutable last_tick : int;  (* tick index up to (and incl.) which slots were swept *)
  mutable min_row : int;
      (* earliest bucketed row, [min_unknown] until the next query scans,
         or [min_none] *)
  slab : 'a Slab.t;
  mutable scratch : int array;  (* due batches as handles, stacked *)
  mutable scratch_top : int;
  mutable last_now : int;  (* previous [fire_due]'s [now] *)
}

let create ?(slots = 256) ~tick () =
  if tick <= 0 then invalid_arg "Timing_wheel.create: tick must be positive";
  if slots <= 0 then invalid_arg "Timing_wheel.create: slots must be positive";
  {
    slots_n = slots;
    gran = tick;
    heads = Array.make slots (-1);
    occ = Array.make ((slots + 31) / 32) 0;
    count = 0;
    next_seq = 0;
    last_tick = 0;
    min_row = min_unknown;
    slab = Slab.create ~stride;
    scratch = Array.make 16 0;
    scratch_top = 0;
    last_now = min_int;
  }

let slots t = t.slots_n
let tick t = t.gran
let pending t = t.count
let resident t = t.count

(* ---- rows ----------------------------------------------------------- *)

let[@inline] s_at t i = t.slab.rows.(i * stride)
let[@inline] set_at t i v = t.slab.rows.(i * stride) <- v
let[@inline] s_tie t i = t.slab.rows.((i * stride) + 1)
let[@inline] set_tie t i v = t.slab.rows.((i * stride) + 1) <- v
let[@inline] s_prev t i = t.slab.rows.((i * stride) + 2)
let[@inline] set_prev t i v = t.slab.rows.((i * stride) + 2) <- v
let[@inline] s_next t i = t.slab.rows.((i * stride) + 3)
let[@inline] set_next t i v = t.slab.rows.((i * stride) + 3) <- v
let[@inline] s_loc t i = t.slab.rows.((i * stride) + Slab.loc)
let[@inline] set_loc t i v = t.slab.rows.((i * stride) + Slab.loc) <- v

(* Strict (deadline) order of rows [a] and [b], and the (deadline, tie)
   dispatch order. *)
let[@inline] earlier t a b = s_at t a < s_at t b
let before t a b = earlier t a b || (s_at t a = s_at t b && s_tie t a < s_tie t b)

(* ---- slots and their occupancy bitmap ------------------------------- *)

let[@inline] slot_of t tk =
  let r = tk mod t.slots_n in
  if r < 0 then r + t.slots_n else r

let[@inline] tick_of t d = d / t.gran

(* The tick a row at deadline [d] is linked under: its own, or the
   sweep horizon's when that is later. *)
let[@inline] link_tick t d = Int.max (tick_of t d) t.last_tick

(* The first occupied slot at an offset in [off, lim) from the sweep
   horizon's slot [s0], as an offset, or [lim] when there is none. *)
let rec next_occupied t s0 off lim =
  if off >= lim then lim
  else begin
    let n = t.slots_n in
    let s = s0 + off in
    let s = if s >= n then s - n else s in
    if t.heads.(s) >= 0 then off
    else begin
      let upto = Int.min (if s >= s0 then n - 1 else s0 - 1) (s + lim - off - 1) in
      let f = Bitmap.ffs_in_range t.occ ~from:s ~upto in
      if f < 0 then next_occupied t s0 (off + upto - s + 1) lim else off + f - s
    end
  end

let link t s i =
  let h = t.heads.(s) in
  set_prev t i (-1);
  set_next t i h;
  if h >= 0 then set_prev t h i else Bitmap.set_bit t.occ s;
  t.heads.(s) <- i;
  set_loc t i s

let unlink t i =
  let s = s_loc t i and p = s_prev t i and n = s_next t i in
  if n >= 0 then set_prev t n p;
  if p >= 0 then set_next t p n
  else begin
    t.heads.(s) <- n;
    if n < 0 then Bitmap.clear_bit t.occ s
  end

(* Link row [i] into the slot of its deadline.  Deadlines before the
   sweep horizon land in the current slot so the next sweep finds them;
   the exact deadline is kept. *)
let[@inline] link_due t i = link t (slot_of t (link_tick t (s_at t i))) i

(* ---- the earliest deadline ------------------------------------------ *)

let e_sweep = Profile.intern [ "wheel"; "sweep_min_scan" ]

let rec chain_min t i best =
  if i < 0 then best
  else chain_min t (s_next t i) (if best < 0 || earlier t i best then i else best)

(* Earliest bucketed row: visit occupied slots in time order from the
   sweep horizon.  A row due within the slot being visited dominates
   every later slot, so the scan usually stops at the first occupied
   slot; a full pass is the worst case. *)
let rec scan_from t s0 off best =
  let off = next_occupied t s0 off t.slots_n in
  if off >= t.slots_n then best
  else begin
    let best = chain_min t t.heads.(slot_of t (s0 + off)) best in
    let tk = t.last_tick + off in
    if tk < max_int / t.gran && s_at t best < (tk + 1) * t.gran then best
    else scan_from t s0 (off + 1) best
  end

let scan_min t =
  Profile.event e_sweep;
  let r = scan_from t (slot_of t t.last_tick) 0 (-1) in
  if r < 0 then min_none else r

let[@inline] known_min t =
  if t.min_row = min_unknown then t.min_row <- scan_min t;
  t.min_row

(* The comparison the soft-timer check performs at every trigger state:
   one read of the known minimum's row, a scan only after the minimum
   could have changed. *)
let[@hot] next_deadline t =
  if t.count = 0 then max_int
  else
    let r = known_min t in
    if r = min_none then max_int else s_at t r

(* ---- schedule, cancel, re-arm --------------------------------------- *)

(* Give row [i] a fresh tie position and link it.  The sole pending
   entry is its own minimum, whatever the cache held. *)
let place t i =
  set_tie t i t.next_seq;
  t.next_seq <- t.next_seq + 1;
  link_due t i;
  (if t.count = 0 then t.min_row <- i
   else
     let m = t.min_row in
     if m = min_none || (m >= 0 && earlier t i m) then t.min_row <- i);
  t.count <- t.count + 1

(* Take pending row [i] out of its slot (or its batch).  Only removing
   the (possibly) earliest entry can change the minimum. *)
let unplace t i =
  if s_loc t i >= 0 then unlink t i;
  t.count <- t.count - 1;
  let m = t.min_row in
  if t.count > 0 && (m = min_none || (m >= 0 && not (earlier t m i))) then t.min_row <- min_unknown

let[@hot] schedule t ~at v =
  let i = Slab.alloc t.slab v in
  set_at t i at;
  place t i;
  Slab.handle t.slab i

let schedule_i t ~at_i v = schedule t ~at:at_i v

let cancel t h =
  if Slab.valid t.slab h then begin
    let i = Slab.row_of h in
    unplace t i;
    Slab.free t.slab i
  end

let rearm t h ~at =
  Slab.valid t.slab h
  && begin
       let i = Slab.row_of h in
       unplace t i;
       set_at t i at;
       place t i;
       true
     end

let handle_pending t h = Slab.valid t.slab h
let handle_deadline t h = if Slab.valid t.slab h then s_at t (Slab.row_of h) else 0

(* ---- expiry ----------------------------------------------------------- *)

let push_scratch t h =
  if t.scratch_top = Array.length t.scratch then begin
    let a = Array.make (2 * t.scratch_top) 0 in
    Array.blit t.scratch 0 a 0 t.scratch_top;
    t.scratch <- a
  end;
  t.scratch.(t.scratch_top) <- h;
  t.scratch_top <- t.scratch_top + 1

(* Move the due rows of the chain starting at [i] into the batch. *)
let rec gather t i now_i =
  if i >= 0 then begin
    let next = s_next t i in
    if s_at t i <= now_i then begin
      unlink t i;
      set_loc t i loc_batch;
      push_scratch t (Slab.handle t.slab i)
    end;
    gather t next now_i
  end

let[@inline] lt t x y = before t (Slab.row_of x) (Slab.row_of y)

(* Heap order over [scratch.(lo .. lo + n - 1)]: restore it below [k]. *)
let rec sift t lo k n =
  let a = t.scratch in
  let c = (2 * k) + 1 in
  if c < n then begin
    let c = if c + 1 < n && lt t a.(lo + c) a.(lo + c + 1) then c + 1 else c in
    if lt t a.(lo + k) a.(lo + c) then begin
      let x = a.(lo + k) in
      a.(lo + k) <- a.(lo + c);
      a.(lo + c) <- x;
      sift t lo c n
    end
  end

(* Heapsort the batch [scratch.(lo .. hi - 1)] into (deadline, tie)
   order, in place. *)
let sort_batch t lo hi =
  let a = t.scratch and n = hi - lo in
  for k = (n / 2) - 1 downto 0 do
    sift t lo k n
  done;
  for m = n - 1 downto 1 do
    let x = a.(lo) in
    a.(lo) <- a.(lo + m);
    a.(lo + m) <- x;
    sift t lo 0 m
  done

(* A batch row the call does not dispatch (budget exhausted, or an
   earlier callback raised) goes back into its slot with deadline and
   tie position intact, so the next call dispatches it in the same
   order.  Rows an earlier callback cancelled or re-armed are gone from
   the batch already. *)
let[@inline] in_batch t h = Slab.valid t.slab h && s_loc t (Slab.row_of h) = loc_batch

(* A withheld row rejoins the minimum a callback may have cached. *)
let withhold t i =
  link_due t i;
  let m = t.min_row in
  if m = min_none || (m >= 0 && earlier t i m) then t.min_row <- i

let withhold_from t k stop =
  for k = k to stop - 1 do
    let h = t.scratch.(k) in
    if in_batch t h then withhold t (Slab.row_of h)
  done

(* Run the sorted batch [scratch.(k .. stop - 1)], at most [limit]
   callbacks; returns the count and pops the batch, which starts at
   [base].  Each row is re-checked first: an earlier callback may have
   cancelled or re-armed it.  [t.scratch] is re-read every step, since a
   nested call may have grown it. *)
let rec dispatch t f limit fired k base stop =
  if k >= stop then begin
    t.scratch_top <- base;
    fired
  end
  else begin
    let h = t.scratch.(k) in
    if not (in_batch t h) then dispatch t f limit fired (k + 1) base stop
    else if fired >= limit then begin
      withhold t (Slab.row_of h);
      dispatch t f limit fired (k + 1) base stop
    end
    else begin
      let i = Slab.row_of h in
      let d = s_at t i and v = t.slab.vals.(i) in
      Slab.free t.slab i;
      t.count <- t.count - 1;
      (match f d v with
      | () -> ()
      | exception exn ->
        (* A raising callback withholds the rest of the batch, as an
           exhausted budget would, before the exception leaves. *)
        let bt = Printexc.get_raw_backtrace () in
        withhold_from t (k + 1) stop;
        t.scratch_top <- base;
        Printexc.raise_with_backtrace exn bt);
      dispatch t f limit (fired + 1) (k + 1) base stop
    end
  end

(* Snapshot-batch contract: due rows leave their slots for the scratch
   stack before any callback runs.  A batch of one needs no sort. *)
let[@hot] fire_due t ?prefetch:_ ~now ~limit f =
  let now_i = Fire_outcome.checked_now ~previous:t.last_now now in
  t.last_now <- now_i;
  let now_tick = link_tick t now_i in
  let m = if t.count = 0 then min_none else known_min t in
  if m >= 0 && s_at t m <= now_i then begin
    let first = t.last_tick in
    let span = now_tick - first in
    let sweep_count = if span >= t.slots_n - 1 then t.slots_n else span + 1 in
    let base = t.scratch_top in
    let s0 = slot_of t first in
    let off = ref (next_occupied t s0 0 sweep_count) in
    while !off < sweep_count do
      gather t t.heads.(slot_of t (s0 + !off)) now_i;
      off := next_occupied t s0 (!off + 1) sweep_count
    done;
    t.last_tick <- now_tick;
    t.min_row <- min_unknown;
    let stop = t.scratch_top in
    if stop - base >= 2 then sort_batch t base stop;
    let fired = dispatch t f limit 0 base base stop in
    Fire_outcome.pack ~scanned:(stop - base) ~fired
  end
  else begin
    (* Nothing due: intermediate slots can hold no due entries, so the
       sweep horizon may jump ahead in O(1). *)
    t.last_tick <- now_tick;
    Fire_outcome.pack ~scanned:0 ~fired:0
  end

(* Heap footprint, 64-bit words: the record (12 fields + header), the
   slot and bitmap arrays, the slab and the scratch array. *)
let words t =
  let arr n = if n = 0 then 0 else n + 1 in
  13
  + arr t.slots_n
  + arr (Array.length t.occ)
  + Slab.words t.slab
  + arr (Array.length t.scratch)

let iter_pending t f =
  for i = 0 to t.slab.cap - 1 do
    if s_loc t i <> Slab.loc_free then f (s_at t i) t.slab.vals.(i)
  done
