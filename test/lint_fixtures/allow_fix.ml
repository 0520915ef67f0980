(* Lint fixture: stale allowances (ALLOW001).  An allowance is reported
   when no finding of its rule falls under it. *)

(* Used: the tuple is an ALLOC002 finding on a [@hot] path. *)
let[@hot] pair x = ((x, x) [@lint.allow "ALLOC002"])

(* Stale: nothing on this [@hot] path allocates. *)
let[@hot] succ x = (x + 1 [@lint.allow "ALLOC002"])

(* Stale: the binding is not reachable from a [@hot] root, so no ALLOC
   rule ever looks at it. *)
let cold x = [ x ] [@@lint.allow "ALLOC002"]

(* Stale file-level allowance: nothing here reads the wall clock. *)
[@@@lint.allow "DET001"]
