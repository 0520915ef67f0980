(* Row offsets; the slab owns [Slab.gen] (4) and [Slab.loc] (5). *)
let at = 0
let tie = 1
let prev = 2
let next = 3
let loc_batch = -2
let least_unknown = -1
let least_none = -2

type t = {
  heads : int array;
  tails : int array;
  occ : int array;
  mutable scratch : int array;
  mutable top : int;
  mutable least : int;
}

let create ~chains ~tails =
  {
    heads = Array.make chains (-1);
    tails = (if tails then Array.make chains (-1) else [||]);
    occ = Array.make ((chains + 31) / 32) 0;
    scratch = [||];
    top = 0;
    least = least_unknown;
  }

let[@inline] get (s : _ Slab.t) i o = s.rows.((i * s.stride) + o)
let[@inline] set (s : _ Slab.t) i o v = s.rows.((i * s.stride) + o) <- v
let[@inline] row_at s i = get s i at
let[@inline] set_at s i v = set s i at v
let[@inline] row_tie s i = get s i tie
let[@inline] set_tie s i v = set s i tie v
let[@inline] row_next s i = get s i next
let[@inline] row_loc s i = get s i Slab.loc
let[@inline] set_loc s i v = set s i Slab.loc v

(* ---- chains ---------------------------------------------------------- *)

let link s cs c i =
  if Array.length cs.tails = 0 then begin
    let h = cs.heads.(c) in
    set s i prev (-1);
    set s i next h;
    if h >= 0 then set s h prev i else Bitmap.set_bit cs.occ c;
    cs.heads.(c) <- i
  end
  else begin
    let l = cs.tails.(c) in
    set s i prev l;
    set s i next (-1);
    if l >= 0 then set s l next i
    else begin
      cs.heads.(c) <- i;
      Bitmap.set_bit cs.occ c
    end;
    cs.tails.(c) <- i
  end;
  set_loc s i c

let unlink s cs i =
  let c = row_loc s i and p = get s i prev and n = get s i next in
  if n >= 0 then set s n prev p else if Array.length cs.tails > 0 then cs.tails.(c) <- p;
  if p >= 0 then set s p next n
  else begin
    cs.heads.(c) <- n;
    if n < 0 then Bitmap.clear_bit cs.occ c
  end

let take cs c =
  let h = cs.heads.(c) in
  if h >= 0 then begin
    cs.heads.(c) <- -1;
    if Array.length cs.tails > 0 then cs.tails.(c) <- -1;
    Bitmap.clear_bit cs.occ c
  end;
  h

let rec chain_min s i best =
  if i < 0 then best
  else chain_min s (row_next s i) (if best < 0 || row_at s i < row_at s best then i else best)

let rec count_due s i now_i n =
  if i < 0 then n else count_due s (row_next s i) now_i (if row_at s i <= now_i then n + 1 else n)

let chain_due s i ~now = count_due s i now 0

(* ---- the snapshot batch ---------------------------------------------- *)

let push cs h =
  if cs.top = Array.length cs.scratch then begin
    let a = Array.make (Int.max 16 (2 * cs.top)) 0 in
    Array.blit cs.scratch 0 a 0 cs.top;
    cs.scratch <- a
  end;
  cs.scratch.(cs.top) <- h;
  cs.top <- cs.top + 1

let rec gather_from s cs i now_i =
  if i >= 0 then begin
    let n = row_next s i in
    if row_at s i <= now_i then begin
      unlink s cs i;
      set_loc s i loc_batch;
      push cs (Slab.handle s i)
    end;
    gather_from s cs n now_i
  end

let gather s cs c ~now = gather_from s cs cs.heads.(c) now

(* Dispatch order of the rows behind handles [x] and [y]. *)
let[@inline] lt s x y =
  let a = Slab.row_of x and b = Slab.row_of y in
  row_at s a < row_at s b || (row_at s a = row_at s b && row_tie s a < row_tie s b)

(* Heap order over [scratch.(lo .. lo + n - 1)]: restore it below [k]. *)
let rec sift s cs lo k n =
  let a = cs.scratch in
  let c = (2 * k) + 1 in
  if c < n then begin
    let c = if c + 1 < n && lt s a.(lo + c) a.(lo + c + 1) then c + 1 else c in
    if lt s a.(lo + k) a.(lo + c) then begin
      let x = a.(lo + k) in
      a.(lo + k) <- a.(lo + c);
      a.(lo + c) <- x;
      sift s cs lo c n
    end
  end

(* Heapsort [scratch.(lo .. hi - 1)] into (deadline, tie) order, in place. *)
let sort s cs lo hi =
  let a = cs.scratch and n = hi - lo in
  for k = (n / 2) - 1 downto 0 do
    sift s cs lo k n
  done;
  for m = n - 1 downto 1 do
    let x = a.(lo) in
    a.(lo) <- a.(lo + m);
    a.(lo + m) <- x;
    sift s cs lo 0 m
  done

(* Rows an earlier callback cancelled or re-armed are gone from the
   batch already. *)
let[@inline] in_batch s h = Slab.valid s h && row_loc s (Slab.row_of h) = loc_batch

(* A withheld row keeps its deadline and tie, so the next call
   dispatches it in the same order, and rejoins the minimum a callback
   may have cached. *)
let withhold s cs into i =
  link s cs into i;
  let m = cs.least in
  if m = least_none || (m >= 0 && row_at s i < row_at s m) then cs.least <- i

let withhold_from s cs into k stop =
  for k = k to stop - 1 do
    let h = cs.scratch.(k) in
    if in_batch s h then withhold s cs into (Slab.row_of h)
  done

(* [cs.scratch] is re-read every step: a nested call may have grown it. *)
let rec dispatch s cs into f limit fired k base stop =
  if k >= stop then begin
    cs.top <- base;
    fired
  end
  else begin
    let h = cs.scratch.(k) in
    if not (in_batch s h) then dispatch s cs into f limit fired (k + 1) base stop
    else if fired >= limit then begin
      withhold s cs into (Slab.row_of h);
      dispatch s cs into f limit fired (k + 1) base stop
    end
    else begin
      let i = Slab.row_of h in
      let d = row_at s i and v = s.Slab.vals.(i) in
      Slab.free s i;
      (match f d v with
      | () -> ()
      | exception exn ->
        (* A raising callback withholds the rest of the batch, as an
           exhausted budget would, before the exception leaves. *)
        let bt = Printexc.get_raw_backtrace () in
        withhold_from s cs into (k + 1) stop;
        cs.top <- base;
        Printexc.raise_with_backtrace exn bt);
      dispatch s cs into f limit (fired + 1) (k + 1) base stop
    end
  end

let fire s cs ~base ~into ~limit f =
  let stop = cs.top in
  if stop - base >= 2 then sort s cs base stop;
  dispatch s cs into f limit 0 base base stop

let words cs =
  let arr a = if Array.length a = 0 then 0 else Array.length a + 1 in
  7 + arr cs.heads + arr cs.tails + arr cs.occ + arr cs.scratch
