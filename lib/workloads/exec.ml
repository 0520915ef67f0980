type item =
  | Quantum of Kernel.step
  | Emit of (int -> unit)

(* One cursor per script: [rest] holds the items not yet started, and
   [step] is the single completion callback every quantum of the script
   shares, so running a script allocates its cursor once rather than a
   closure per item.  ALLOC001: that cursor. *)
let[@lint.allow "ALLOC001"] run m items k =
  let engine = Machine.engine m in
  let rest = ref items in
  let rec go () =
    match !rest with
    | [] -> k (Engine.now_i engine)
    | Quantum s :: tl ->
      rest := tl;
      Machine.submit_quantum m ?attr:(Kernel.step_attr s) ~prio:s.Kernel.prio
        ~work_us:s.Kernel.work_us ~trigger:s.Kernel.trigger step
    | Emit f :: tl ->
      rest := tl;
      f (Engine.now_i engine);
      go ()
  and step _now = go () in
  go ()

let quantum s = Quantum s
let emit f = Emit f [@@lint.allow "ALLOC002"]
