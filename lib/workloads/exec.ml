(* An item is an int code: [2 * st] for a quantum of registered step
   [st] with the step's own work, [2 * st + 1] for one whose drawn work
   sits at the same index of [work], or [-1 - e] for emitter [e], whose
   arguments sit at the same index of [arg_a] and [arg_b].  A step's own
   work is converted to int ns when the step is registered, with and
   without the check surcharge, and a drawn quantum's is handed on as the
   [work] array and its index, so no quantum boxes its work.  A
   script record and its arrays are reused from one script to the next;
   [on_step], the completion callback every quantum of the script
   shares, is built once per record. *)
type script = {
  arena : t;
  mutable code : int array;
  mutable work : float array;
  mutable arg_a : int array;
  mutable arg_b : int array;
  mutable len : int;
  mutable pos : int;
  mutable k : int -> unit;
  mutable on_step : int -> unit;
}

and t = {
  machine : Machine.t;
  engine : Engine.t;
  mutable steps : Kernel.step array;
  (* Per registered step, converted at registration: its own work in
     ns without and with the check surcharge, and its entry span. *)
  mutable work_ns : int array;
  mutable checked_ns : int array;
  mutable entry_spans : Time_ns.span array;
  mutable n_steps : int;
  mutable emitters : (int -> int -> int -> unit) array;
  mutable n_emitters : int;
  mutable free : script array;  (* stack of finished scripts *)
  mutable n_free : int;
}

type step = int
type emitter = int

let no_k (_ : int) = ()
let no_emit (_ : int) (_ : int) (_ : int) = ()

let create machine =
  {
    machine;
    engine = Machine.engine machine;
    steps = [||];
    work_ns = [||];
    checked_ns = [||];
    entry_spans = [||];
    n_steps = 0;
    emitters = [||];
    n_emitters = 0;
    free = [||];
    n_free = 0;
  }

(* [a], or [a] doubled and padded with [x] when its [n] slots are all
   used. *)
let grown a n x =
  if n < Array.length a then a
  else begin
    let b = Array.make (Int.max 4 (2 * n)) x in
    Array.blit a 0 b 0 n;
    b
  end

let step t s =
  let n = t.n_steps in
  t.steps <- grown t.steps n s;
  t.work_ns <- grown t.work_ns n 0;
  t.checked_ns <- grown t.checked_ns n 0;
  t.entry_spans <- grown t.entry_spans n Time_ns.zero;
  t.steps.(n) <- s;
  t.entry_spans.(n) <- Time_ns.of_us s.Kernel.entry_us;
  t.work_ns.(n) <- Machine.work_ns t.machine ~checked:false s.Kernel.work_us;
  t.checked_ns.(n) <- Machine.work_ns t.machine ~checked:true s.Kernel.work_us;
  t.n_steps <- n + 1;
  n

let emitter t f =
  t.emitters <- grown t.emitters t.n_emitters no_emit;
  t.emitters.(t.n_emitters) <- f;
  t.n_emitters <- t.n_emitters + 1;
  t.n_emitters - 1

let initial_items = 16

(* A step's attribution while profiling: a Profile.seq consumes its
   parts statefully, so an entry/body split is built fresh for every
   submitted quantum.  ALLOC002: only while profiling. *)
let[@lint.allow "ALLOC002"] step_attr t j =
  if Profile.enabled () then
    let st = t.steps.(j) in
    Some
      (if st.Kernel.entry_us > 0.0 then
         Profile.seq [ (st.Kernel.entry_attr, t.entry_spans.(j)) ] ~tail:st.Kernel.attr
       else st.Kernel.attr)
  else None

let[@hot] rec advance s =
  if s.pos >= s.len then finish s
  else begin
    let i = s.pos in
    s.pos <- i + 1;
    let c = s.code.(i) in
    let t = s.arena in
    if c >= 0 then begin
      let j = c lsr 1 in
      let st = t.steps.(j) in
      let attr = step_attr t j and prio = st.Kernel.prio in
      if c land 1 = 0 then
        Machine.submit_fixed_ns t.machine ?attr ~prio ~work_ns:t.work_ns.(j)
          ~checked_ns:t.checked_ns.(j) ~trigger:st.Kernel.trigger s.on_step
      else
        Machine.submit_quantum_at t.machine ?attr ~prio s.work i ~trigger:st.Kernel.trigger
          s.on_step
    end
    else begin
      t.emitters.(-1 - c) (Engine.now_i t.engine) s.arg_a.(i) s.arg_b.(i);
      advance s
    end
  end

and finish s =
  let k = s.k in
  release s;
  k (Engine.now_i s.arena.engine)

and release s =
  let t = s.arena in
  s.len <- 0;
  s.pos <- 0;
  s.k <- no_k;
  t.free <- grown t.free t.n_free s;
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

(* ALLOC001/ALLOC002: a fresh script record, its arrays and its shared
   step callback, only while the arena grows to the peak number of
   scripts in flight. *)
let[@lint.allow "ALLOC001"] [@lint.allow "ALLOC002"] fresh t =
  let s =
    {
      arena = t;
      code = Array.make initial_items 0;
      work = Array.make initial_items 0.0;
      arg_a = Array.make initial_items 0;
      arg_b = Array.make initial_items 0;
      len = 0;
      pos = 0;
      k = no_k;
      on_step = no_k;
    }
  in
  s.on_step <- (fun _ -> advance s);
  s

let[@hot] script t =
  if t.n_free = 0 then fresh t
  else begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end

(* The index of a new item, doubling the script's arrays when full. *)
let slot s =
  let n = s.len in
  if n = Array.length s.code then begin
    s.code <- grown s.code n 0;
    s.work <- grown s.work n 0.0;
    s.arg_a <- grown s.arg_a n 0;
    s.arg_b <- grown s.arg_b n 0
  end;
  s.len <- n + 1;
  n

let[@hot] quantum s st =
  let i = slot s in
  s.code.(i) <- 2 * st

let[@hot] drawn s st works j =
  let i = slot s in
  s.code.(i) <- (2 * st) + 1;
  s.work.(i) <- works.(j)

let[@hot] emit s e a b =
  let i = slot s in
  s.code.(i) <- -1 - e;
  s.arg_a.(i) <- a;
  s.arg_b.(i) <- b

let[@hot] run s k =
  s.k <- k;
  advance s

(* DEAD001: frees a script built through For_testing. *)
let[@lint.allow "DEAD001"] discard = release
