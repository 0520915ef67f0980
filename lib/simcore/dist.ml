type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Pareto of { scale : float; shape : float }
  | Lognormal of { mu : float; sigma : float }
  | Erlang of { k : int; mean : float }
  | Mixture of (float * t) list
  | Shifted of float * t

(* A uniform double in [0, 1) from 53 raw bits (exact).  Converted here
   rather than in [Prng], so the float never crosses a call boundary and
   is never boxed, inlined or not. *)
let[@inline] uniform rng = Float.of_int (Prng.bits53 rng) *. 0x1.0p-53

let[@inline] bernoulli rng p = uniform rng < p

(* Box–Muller; one variate per call keeps the generator state simple.
   Inlined into [leaf], so its result stays unboxed. *)
let[@inline] normal rng =
  let u1 = 1.0 -. uniform rng in
  let u2 = uniform rng in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* The mixture branch a uniform [u] from [rng] selects: the first whose
   cumulative weight exceeds [u] times the total, the last one
   otherwise.  The uniform is drawn here, and loops over refs keep the
   float sums unboxed, so a pick allocates no closure or float. *)
let pick_branch branches rng =
  let u = uniform rng in
  let total = ref 0.0 and l = ref branches in
  while
    match !l with
    | [] -> false
    | (w, _) :: rest ->
      total := !total +. w;
      l := rest;
      true
  do
    ()
  done;
  (* ALLOC002: a constant constructor is a static value. *)
  let pick = ref (Constant 0.0 [@lint.allow "ALLOC002"]) in
  let x = u *. !total and acc = ref 0.0 and l = ref branches in
  while
    match !l with
    | [] -> invalid_arg "Dist.draw: empty mixture"
    | [ (_, d) ] ->
      pick := d;
      false
    | (w, d) :: rest ->
      if x < !acc +. w then begin
        pick := d;
        false
      end
      else begin
        acc := !acc +. w;
        l := rest;
        true
      end
  do
    ()
  done;
  !pick

(* Resolve mixtures: the leaf or shift a draw of [t] lands on, one
   uniform per mixture level. *)
let rec resolve t rng =
  match t with Mixture branches -> resolve (pick_branch branches rng) rng | d -> d

(* One variate of a resolved leaf.  Inlined into each caller, so the
   float never crosses a call boundary. *)
let[@inline] leaf t rng =
  match t with
  | Constant c -> c
  | Uniform (lo, hi) ->
    if hi < lo then invalid_arg "Dist: Uniform hi < lo";
    lo +. ((hi -. lo) *. uniform rng)
  | Exponential mean ->
    let u = 1.0 -. uniform rng in
    -.mean *. log u
  | Pareto { scale; shape } ->
    let u = 1.0 -. uniform rng in
    scale /. (u ** (1.0 /. shape))
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. normal rng))
  | Erlang { k; mean } ->
    let rate = float_of_int k /. mean in
    let acc = ref 0.0 in
    for _ = 1 to k do
      let u = 1.0 -. uniform rng in
      acc := !acc -. (log u /. rate)
    done;
    !acc
  | Mixture _ | Shifted _ -> invalid_arg "Dist: unresolved leaf"

(* [Float.max 0.0 x], spelled out so it inlines: NaN passes through. *)
let[@inline] clamp x = if x > 0.0 then x else if x <> x then x else 0.0

let rec draw_raw t rng =
  match resolve t rng with Shifted (c, d) -> c +. draw_raw d rng | d -> leaf d rng

let draw t rng = clamp (draw_raw t rng)

(* The unclamped variate into [a.(i)]: a shift adds to the slot after
   its inner draw, so nested shifts sum in [draw_raw]'s order. *)
let rec draw_raw_into t rng a i =
  match resolve t rng with
  | Shifted (c, d) ->
    draw_raw_into d rng a i;
    a.(i) <- c +. a.(i)
  | d -> a.(i) <- leaf d rng

let[@hot] draw_into t rng (a : float array) i =
  draw_raw_into t rng a i;
  a.(i) <- clamp a.(i)

(* A shift's sum needs its inner variate first, so a shifted draw goes
   through the boxed [draw_raw]; the int-ns callers draw no shift.
   HOT002: each draw is a fresh variate. *)
let[@hot] [@lint.allow "HOT002"] draw_ns t rng =
  let us =
    match resolve t rng with Shifted _ as d -> draw_raw d rng | d -> leaf d rng
  in
  Float.to_int (Float.round (clamp us *. 1e3))

(* DEAD001: the mean the draw tests compare against. *)
let[@lint.allow "DEAD001"] rec mean = function
  | Constant c -> c
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential m -> m
  | Pareto { scale; shape } ->
    if shape <= 1.0 then infinity else scale *. shape /. (shape -. 1.0)
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. sigma /. 2.0))
  | Erlang { k = _; mean = m } -> m
  | Mixture branches ->
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 branches in
    List.fold_left (fun acc (w, d) -> acc +. (w /. total *. mean d)) 0.0 branches
  | Shifted (c, d) -> c +. mean d

let span t rng = Time_ns.of_us (draw t rng)
