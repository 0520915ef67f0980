(* Lint fixture: a test.  Its uses keep nothing live, and mark
   [tested] and [tested_allowed] as used only by tests. *)

let check () = Dead_fix.tested 1 + Dead_fix.tested_allowed 2
