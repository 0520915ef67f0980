(* Lint fixture: Domain.DLS.get on a [@hot] path.  Never compiled —
   parsed by tools/lint only. *)

let key = Domain.DLS.new_key (fun () -> ref 0)

(* HOT001 via the transitive check: [bump] is not annotated but is
   reachable from the [@hot] root below. *)
let bump () = incr (Domain.DLS.get key)

let[@hot] count_event x =
  bump ();
  x + 1

let[@hot] direct () = !(Domain.DLS.get key)

(* Not flagged: a guarded lookup carrying an allow (with its reason). *)
let consumers = Atomic.make 0

let[@hot] guarded () = Atomic.get consumers > 0 && !(Domain.DLS.get key) > 0
[@@lint.allow "HOT001"]

(* Not flagged: a cold path may look the context up. *)
let create () = Domain.DLS.get key

(* HOT002: a [Float.round] on a [@hot] path, directly and through a
   helper.  Work fixed where it is defined is converted there, once. *)
let ns_of_us us = Float.to_int (Float.round (us *. 1e3))

let[@hot] submit_us us = ns_of_us us + 1

let[@hot] draw_ns x = Float.to_int (Stdlib.Float.round x)

(* Not flagged: a per-event variate, allowed with its reason. *)
let[@hot] [@lint.allow "HOT002"] variate_ns x = Float.to_int (Float.round x)

(* Not flagged: a cold path converts once. *)
let create us = ns_of_us us
