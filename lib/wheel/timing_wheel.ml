let name = "wheel"

(* Entries live in a [Slab]: one stride-6 row per entry holding the
   core's fields (deadline, tie, chain links) and the slab's generation
   and location, plus one value array.  Each slot is a head-linked
   chain of the [Wheel_core]: order within a slot carries no meaning,
   since a batch is sorted and a sweep takes a minimum.  Handles are
   the slab's.  Cancel and re-arm unlink physically, so resident =
   pending and nothing is ever compacted.  The earliest bucketed row is
   remembered in the core's [least]. *)

let stride = 6

type 'a handle = int

type 'a t = {
  gran : int;  (* tick, ns *)
  mutable next_seq : int;
  mutable last_tick : int;  (* tick index up to (and incl.) which slots were swept *)
  slab : 'a Slab.t;
  core : Wheel_core.t;  (* one chain per slot *)
  mutable last_now : int;  (* previous [fire_due]'s [now] *)
}

let create_sized ~slots ~tick () =
  if tick <= 0 then invalid_arg "Timing_wheel.create: tick must be positive";
  if slots <= 0 then invalid_arg "Timing_wheel.create: slots must be positive";
  {
    gran = tick;
    next_seq = 0;
    last_tick = 0;
    slab = Slab.create ~stride;
    core = Wheel_core.create ~chains:slots ~tails:false;
    last_now = min_int;
  }

let create ~tick () = create_sized ~slots:256 ~tick ()
let pending t = Slab.live t.slab
let resident t = Slab.live t.slab

let[@inline] s_at t i = Wheel_core.row_at t.slab i
let[@inline] earlier t a b = s_at t a < s_at t b

(* ---- slots ----------------------------------------------------------- *)

let[@inline] slots t = Array.length t.core.heads

let[@inline] slot_of t tk =
  let n = slots t in
  let r = tk mod n in
  if r < 0 then r + n else r

let[@inline] tick_of t d = d / t.gran

(* The tick a row at deadline [d] is linked under: its own, or the
   sweep horizon's when that is later. *)
let[@inline] link_tick t d = Int.max (tick_of t d) t.last_tick

(* The first occupied slot at an offset in [off, lim) from the sweep
   horizon's slot [s0], as an offset, or [lim] when there is none. *)
let rec next_occupied t s0 off lim =
  if off >= lim then lim
  else begin
    let n = slots t in
    let s = s0 + off in
    let s = if s >= n then s - n else s in
    if t.core.heads.(s) >= 0 then off
    else begin
      let upto = Int.min (if s >= s0 then n - 1 else s0 - 1) (s + lim - off - 1) in
      let f = Bitmap.ffs_in_range t.core.occ ~from:s ~upto in
      if f < 0 then next_occupied t s0 (off + upto - s + 1) lim else off + f - s
    end
  end

(* ---- the earliest deadline ------------------------------------------ *)

let e_sweep = Profile.intern [ "wheel"; "sweep_min_scan" ]

(* Earliest bucketed row: visit occupied slots in time order from the
   sweep horizon.  A row due within the slot being visited dominates
   every later slot, so the scan usually stops at the first occupied
   slot; a full pass is the worst case. *)
let rec scan_from t s0 off best =
  let n = slots t in
  let off = next_occupied t s0 off n in
  if off >= n then best
  else begin
    let best = Wheel_core.chain_min t.slab t.core.heads.(slot_of t (s0 + off)) best in
    let tk = t.last_tick + off in
    if tk < max_int / t.gran && s_at t best < (tk + 1) * t.gran then best
    else scan_from t s0 (off + 1) best
  end

let scan_min t =
  Profile.event e_sweep;
  let r = scan_from t (slot_of t t.last_tick) 0 (-1) in
  if r < 0 then Wheel_core.least_none else r

let[@inline] known_min t =
  if t.core.least = Wheel_core.least_unknown then t.core.least <- scan_min t;
  t.core.least

(* The comparison the soft-timer check performs at every trigger state:
   one read of the known minimum's row, a scan only after the minimum
   could have changed. *)
let[@hot] next_deadline t =
  if Slab.live t.slab = 0 then max_int
  else
    let r = known_min t in
    if r = Wheel_core.least_none then max_int else s_at t r

(* ---- schedule, cancel, re-arm --------------------------------------- *)

(* Give row [i] a fresh tie position and link it into the slot of its
   deadline.  Deadlines before the sweep horizon land in the current
   slot so the next sweep finds them; the exact deadline is kept.  The
   sole pending entry is its own minimum, whatever the cache held. *)
let place t i =
  Wheel_core.set_tie t.slab i t.next_seq;
  t.next_seq <- t.next_seq + 1;
  Wheel_core.link t.slab t.core (slot_of t (link_tick t (s_at t i))) i;
  let m = t.core.least in
  if Slab.live t.slab = 1 || m = Wheel_core.least_none || (m >= 0 && earlier t i m) then
    t.core.least <- i

(* Take pending row [i] out of its slot (or its batch).  Only removing
   the (possibly) earliest entry can change the minimum. *)
let unplace t i =
  if Wheel_core.row_loc t.slab i >= 0 then Wheel_core.unlink t.slab t.core i;
  let m = t.core.least in
  if Slab.live t.slab > 1 && (m = Wheel_core.least_none || (m >= 0 && not (earlier t m i))) then
    t.core.least <- Wheel_core.least_unknown

let[@hot] schedule t ~at v =
  let i = Slab.alloc t.slab v in
  Wheel_core.set_at t.slab i at;
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
       Wheel_core.set_at t.slab i at;
       place t i;
       true
     end

let handle_pending t h = Slab.valid t.slab h
let handle_deadline t h = if Slab.valid t.slab h then s_at t (Slab.row_of h) else 0

(* ---- expiry ----------------------------------------------------------- *)

(* Snapshot-batch contract: the due rows of every slot the sweep
   passes leave for the core's scratch stack before any callback runs.
   A row the batch withholds goes back into the horizon's slot.  A due
   minimum that is the only pending row is a batch of one: it leaves
   what the batch would (horizon at [now_tick], row freed, minimum
   unknown) with no gather, sort or re-check, and no rest to withhold. *)
let[@hot] fire_due t ?prefetch:_ ~now ~limit f =
  let now_i = Fire_outcome.checked_now ~previous:t.last_now now in
  t.last_now <- now_i;
  let now_tick = link_tick t now_i in
  let m = if Slab.live t.slab = 0 then Wheel_core.least_none else known_min t in
  let due = m >= 0 && s_at t m <= now_i in
  if due && Slab.live t.slab = 1 && limit > 0 then begin
    t.last_tick <- now_tick;
    Wheel_core.unlink t.slab t.core m;
    t.core.least <- Wheel_core.least_unknown;
    let d = s_at t m and v = t.slab.vals.(m) in
    Slab.free t.slab m;
    f d v;
    Fire_outcome.pack ~scanned:1 ~fired:1
  end
  else if due then begin
    let n = slots t in
    let first = t.last_tick in
    let span = now_tick - first in
    let sweep_count = if span >= n - 1 then n else span + 1 in
    let base = t.core.top in
    let s0 = slot_of t first in
    let off = ref (next_occupied t s0 0 sweep_count) in
    while !off < sweep_count do
      Wheel_core.gather t.slab t.core (slot_of t (s0 + !off)) ~now:now_i;
      off := next_occupied t s0 (!off + 1) sweep_count
    done;
    t.last_tick <- now_tick;
    t.core.least <- Wheel_core.least_unknown;
    let scanned = t.core.top - base in
    let fired =
      Wheel_core.fire t.slab t.core ~base ~into:(slot_of t now_tick) ~limit f
    in
    Fire_outcome.pack ~scanned ~fired
  end
  else begin
    (* Nothing due: intermediate slots can hold no due entries, so the
       sweep horizon may jump ahead in O(1). *)
    t.last_tick <- now_tick;
    Fire_outcome.pack ~scanned:0 ~fired:0
  end

(* Heap footprint, 64-bit words: the record (6 fields + header), the
   core and the slab. *)
let words t = 7 + Wheel_core.words t.core + Slab.words t.slab
