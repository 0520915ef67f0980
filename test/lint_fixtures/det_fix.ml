(* Lint fixture: determinism rules.  Never compiled — parsed by
   tools/lint only; every violation below must appear in
   lint_fixtures.expected at its file:line. *)

(* Toplevel alias: the lint resolves [R.*] back to [Random.*], so the
   alias must not evade DET002. *)
module R = Random

let wall () = Unix.gettimeofday ()

let draw () = R.int 10

let sneak (x : int) : float = Obj.magic x

let dump tbl = Hashtbl.iter (fun k v -> print_endline (k ^ string_of_int v)) tbl

(* [now] is a time-like name, so the unqualified [<] is DET003. *)
let expired now limit = now < limit

(* A time through a wrapping conversion is DET005; a plain count is
   not. *)
let born now = Int64.to_int now

let due_of_float deadline = Int64.of_float deadline

let count n = Int64.to_int n

(* A bare [time] is a time to DET005, but not to DET003, so the int
   comparison below is clean. *)
let at_int time = Int64.to_int time

let before time limit = time < limit
