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
   across [fire_due] calls.  A store keeps its previous call's [now] and
   passes it here; the raise allocates, on a violation only. *)
exception Time_went_backwards of { previous : int; now : int }

let backwards ~previous ~now_i = raise (Time_went_backwards { previous; now = now_i })
[@@lint.allow "ALLOC002"]

let[@inline] checked_now ~previous now_i =
  if now_i < previous then backwards ~previous ~now_i;
  now_i
