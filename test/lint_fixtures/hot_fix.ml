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
