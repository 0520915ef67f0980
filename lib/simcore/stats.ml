module Online = struct
  (* All fields float (the count too, exact below 2^53), so the record
     is stored flat and [add] boxes nothing. *)
  type t = {
    mutable n : float;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { n = 0.0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  (* Inlined into both adders, so [add_us_of_ns]'s quotient is never
     boxed.  ALLOC003: the record is all-float, so its fields are stored
     flat and a store boxes nothing. *)
  let[@inline] [@lint.allow "ALLOC003"] add_float t x =
    t.n <- t.n +. 1.0;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  (* DEAD001 here and below: moments the tests check; [Sample] uses them. *)
  let[@lint.allow "DEAD001"] add t x = add_float t x
  let[@hot] add_us_of_ns t ns = add_float t (float_of_int ns /. 1e3)

  let[@lint.allow "DEAD001"] clear t =
    t.n <- 0.0;
    t.mean <- 0.0;
    t.m2 <- 0.0;
    t.min <- infinity;
    t.max <- neg_infinity

  let[@lint.allow "DEAD001"] count t = int_of_float t.n
  let mean t = if t.n = 0.0 then nan else t.mean
  let[@lint.allow "DEAD001"] variance t = if t.n < 2.0 then nan else t.m2 /. (t.n -. 1.0)
  let[@lint.allow "DEAD001"] stddev t = sqrt (variance t)
  let[@lint.allow "DEAD001"] min t = t.min
  let[@lint.allow "DEAD001"] max t = t.max
end

module Sample = struct
  type t = {
    mutable data : float array;
    mutable size : int;
    mutable sorted_cache : float array option;
    online : Online.t;
  }

  let create () = { data = [||]; size = 0; sorted_cache = None; online = Online.create () }

  let add t x =
    let cap = Array.length t.data in
    if t.size = cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let ndata = Array.make ncap 0.0 in
      Array.blit t.data 0 ndata 0 t.size;
      t.data <- ndata
    end;
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    t.sorted_cache <- None;
    Online.add t.online x

  (* DEAD001 here and below: what the sample tests check. *)
  let[@lint.allow "DEAD001"] clear t =
    t.size <- 0;
    t.sorted_cache <- None;
    Online.clear t.online

  let count t = t.size
  let mean t = Online.mean t.online
  let stddev t = Online.stddev t.online
  let min t = Online.min t.online
  let max t = Online.max t.online

  let[@lint.allow "DEAD001"] sorted t =
    match t.sorted_cache with
    | Some s -> s
    | None ->
      let s = Array.sub t.data 0 t.size in
      Array.sort Float.compare s;
      t.sorted_cache <- Some s;
      s

  let percentile t p =
    if t.size = 0 then invalid_arg "Stats.Sample.percentile: empty sample";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Sample.percentile: p out of range";
    let s = sorted t in
    let n = Array.length s in
    if n = 1 then s.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
    end

  let median t = percentile t 50.0

  let fraction_above t x =
    if t.size = 0 then 0.0
    else begin
      (* Binary search over the sorted copy for the first index > x. *)
      let s = sorted t in
      let n = Array.length s in
      let rec search lo hi = if lo >= hi then lo else begin
        let mid = (lo + hi) / 2 in
        if s.(mid) <= x then search (mid + 1) hi else search lo mid
      end in
      let first_above = search 0 n in
      float_of_int (n - first_above) /. float_of_int n
    end

  let values t = Array.sub t.data 0 t.size
end
