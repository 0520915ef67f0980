(* Lint fixture: the exports DEAD001 judges.  perfbench/dead_root.ml is
   the root; test/dead_test.ml is read for references only. *)

val live : int -> int
val nowhere : int -> int
val own_only : int -> int
val tested : int -> int
val tested_allowed : int -> int
val stale_allow : int -> int

module Via_open : sig val opened : int end
module Via_local_open : sig val ( +! ) : int -> int -> int end
module Via_include : sig val included : int end
module Via_pack : sig val packed : int end
module Via_functor : sig val argument : int end
val by_let : int -> int
val by_fun : int -> int
val by_match : int -> int
