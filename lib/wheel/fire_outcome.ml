(* Packed result of a [fire_due] call: how many due pending entries the
   sweep collected ([scanned]) and how many callbacks actually ran
   ([fired], [<= scanned] — the rest were withheld by the caller's
   check budget or dropped as corpses at dispatch recheck).  One
   immediate int so the hot path returns both without allocating. *)

type t = int

let shift = 31
let mask = (1 lsl shift) - 1

let[@inline] pack ~scanned ~fired = (scanned lsl shift) lor (fired land mask)
let[@inline] scanned o = o lsr shift
let[@inline] fired o = o land mask

(* The [now] clause of the store contract: [now] must not go backwards
   across [fire_due] calls.  A store keeps its previous call's [now] as
   an int (no write barrier per call) and passes it here; the raise
   allocates, on a violation only.  The lawn store reuses the boxed
   [last_now] it already keeps. *)
exception Time_went_backwards of { previous : int; now : int }

(* [at] clamped into the int range; the literals are [max_int] and
   [min_int]. *)
let[@inline] saturate at =
  if Int64.compare at 0x3FFF_FFFF_FFFF_FFFFL >= 0 then max_int
  else if Int64.compare at (-0x4000_0000_0000_0000L) <= 0 then min_int
  else Int64.to_int at

let backwards ~previous ~now_i = raise (Time_went_backwards { previous; now = now_i })
[@@lint.allow "ALLOC002"]

let[@inline] checked_now ~previous now =
  let now_i = saturate now in
  if now_i < previous then backwards ~previous ~now_i;
  now_i
