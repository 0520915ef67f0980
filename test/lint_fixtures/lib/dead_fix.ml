(* Lint fixture: DEAD001, one export of each class, and one export for
   each use form the rule resolves (see perfbench/dead_root.ml). *)

(* Used only inside this module (by [live]): reported, drop the val. *)
let own_only x = x * 2

(* Live: the root calls it. *)
let live x = own_only x + 1

(* Used nowhere: reported, delete it. *)
let nowhere x = x - 1

(* Used only by test/dead_test.ml: reported. *)
let tested x = x + 3

(* Used only by the test too, kept with a reason: not reported. *)
let tested_allowed x = x + 4 [@@lint.allow "DEAD001"]

(* Live, so this allowance suppresses nothing: ALLOW001. *)
let stale_allow x = x + 5 [@@lint.allow "DEAD001"]

module Via_open = struct let opened = 1 end
module Via_local_open = struct let ( +! ) a b = a + b end
module Via_include = struct let included = 2 end
module Via_pack = struct let packed = 3 end
module Via_functor = struct let argument = 4 end

(* Each named only where a local of the same name shadows it, in the
   root's [shadowing] under [let open Dead_fix]: used nowhere. *)
let by_let x = x + 6
let by_fun x = x + 7
let by_match x = x + 8
