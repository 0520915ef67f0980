(* Log-linear bucketed histogram (HdrHistogram-style) with bounded
   relative error, O(1) record and exact lossless merge.

   Values are quantized to integer multiples of [lowest] (the lowest
   discernible value).  Quantized values u below 2^k land in a linear
   region of unit-wide buckets (exact); above it each octave
   [2^e, 2^(e+1)) is split into 2^(k-1) equal sub-buckets, so the bucket
   width relative to its lower edge is 2^(1-k) and a midpoint
   representative is within 2^-k of any member — the configured relative
   error bound.  The bucket index is pure integer bit math (no libm), so
   indexing is deterministic across platforms and cheap enough for
   always-on hot paths.

   Two histograms with the same (lowest, k) have identical bucket
   boundaries, so merging is a bucket-wise sum — recording streams A
   then B yields byte-identical counts to merging separate recordings
   of A and B. *)

(* Running moments live in a flat float array rather than mutable
   record fields: float arrays are unboxed, so [record] updates them in
   place, whereas a float field of this mixed record would be re-boxed
   on every store (one minor allocation per sample — lint ALLOC003). *)
let m_sum = 0
let m_sum_sq = 1  (* of squared raw values: stddev stays exact *)
let m_min = 2
let m_max = 3

type t = {
  lowest : float;  (* value of one quantization unit *)
  sub_bits : int;  (* k: linear region [0, 2^k); 2^(k-1) sub-buckets/octave *)
  rel_error : float;  (* 2^-k, <= the requested bound *)
  mutable counts : int array;
  mutable total : int;
  moments : float array;  (* indexed by [m_sum] .. [m_max] *)
}

(* ALLOC002: hot code reaches [create] only through first-use growth
   of a [Profile.dispatch] row. *)
let create ?(rel_error = 0.01) ?(lowest = 1e-3) () =
  if not (rel_error > 0.0 && rel_error <= 0.5) then
    invalid_arg "Hdr.create: rel_error must be in (0, 0.5]";
  if not (lowest > 0.0) then invalid_arg "Hdr.create: lowest must be positive";
  (* Smallest k >= 1 with 2^-k <= rel_error (capped: k=20 is 1e-6). *)
  let k = ref 1 in
  while !k < 20 && 1.0 /. float_of_int (1 lsl !k) > rel_error do
    incr k
  done;
  {
    lowest;
    sub_bits = !k;
    rel_error = 1.0 /. float_of_int (1 lsl !k);
    counts = Array.make (1 lsl !k) 0;
    total = 0;
    moments = [| 0.0; 0.0; infinity; neg_infinity |];
  }
[@@lint.allow "ALLOC002"]

let rel_error t = t.rel_error
let lowest t = t.lowest
let count t = t.total
let sum t = t.moments.(m_sum)
let mean t = if t.total = 0 then nan else t.moments.(m_sum) /. float_of_int t.total

(* Population stddev from the running moments — exact (up to float
   rounding), not bucket-quantized. *)
let stddev t =
  if t.total = 0 then nan
  else begin
    let n = float_of_int t.total in
    let m = t.moments.(m_sum) /. n in
    Float.sqrt (Float.max 0.0 ((t.moments.(m_sum_sq) /. n) -. (m *. m)))
  end
let min t = if t.total = 0 then nan else t.moments.(m_min)
let max t = if t.total = 0 then nan else t.moments.(m_max)
let bucket_count t = Array.length t.counts

(* Position of the most significant set bit of [u] (u > 0). *)
let[@inline] msb u =
  let e = ref 0 and u = ref u in
  if !u >= 1 lsl 32 then begin e := !e + 32; u := !u lsr 32 end;
  if !u >= 1 lsl 16 then begin e := !e + 16; u := !u lsr 16 end;
  if !u >= 1 lsl 8 then begin e := !e + 8; u := !u lsr 8 end;
  if !u >= 1 lsl 4 then begin e := !e + 4; u := !u lsr 4 end;
  if !u >= 1 lsl 2 then begin e := !e + 2; u := !u lsr 2 end;
  if !u >= 2 then incr e;
  !e

let[@inline] index t u =
  let k = t.sub_bits in
  if u < 1 lsl k then u
  else begin
    let e = msb u in
    let pos = (u - (1 lsl e)) lsr (e - k + 1) in
    (1 lsl k) + (((e - k) lsl (k - 1)) + pos)
  end

(* Quantized-unit bounds [lo, hi) of bucket [i]. *)
let bucket_bounds t i =
  let k = t.sub_bits in
  if i < 1 lsl k then (i, i + 1)
  else begin
    let j = i - (1 lsl k) in
    let o = j lsr (k - 1) in
    let pos = j land ((1 lsl (k - 1)) - 1) in
    let w = 1 lsl (o + 1) in
    let lo = (1 lsl (k + o)) + (pos * w) in
    (lo, lo + w)
  end

(* The representative value reported for members of bucket [i].  Linear
   buckets hold exactly one quantized value, so they are exact; log
   buckets report their midpoint (within rel_error of any member). *)
let representative t i =
  let lo, hi = bucket_bounds t i in
  if i < 1 lsl t.sub_bits then float_of_int lo *. t.lowest
  else float_of_int (lo + hi) /. 2.0 *. t.lowest

let grow t needed =
  let cap = Array.length t.counts in
  let ncap = Int.max needed (2 * cap) in
  let grown = Array.make ncap 0 in
  Array.blit t.counts 0 grown 0 cap;
  t.counts <- grown

(* Quantized values are capped so bucket indexing never overflows; at
   the default lowest=1e-3 the cap sits beyond 4.6e15, far outside any
   simulated duration. *)
let u_cap = (1 lsl 62) - 1

(* The body of [record], inlined into both entry points so that
   [record_us_of_ns]'s quotient stays an unboxed float. *)
let[@inline] record_float t x =
  let u =
    if x <= 0.0 then 0
    else begin
      let q = (x /. t.lowest) +. 0.5 in
      if q >= float_of_int u_cap then u_cap else int_of_float q
    end
  in
  let i = index t u in
  if i >= Array.length t.counts then grow t (i + 1);
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  let m = t.moments in
  m.(m_sum) <- m.(m_sum) +. x;
  m.(m_sum_sq) <- m.(m_sum_sq) +. (x *. x);
  if x < m.(m_min) then m.(m_min) <- x;
  if x > m.(m_max) then m.(m_max) <- x

let[@hot] record t x = record_float t x
let[@hot] record_us_of_ns t ns = record_float t (float_of_int ns /. 1e3)

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.moments.(m_sum) <- 0.0;
  t.moments.(m_sum_sq) <- 0.0;
  t.moments.(m_min) <- infinity;
  t.moments.(m_max) <- neg_infinity

(* Nearest-rank quantile: the representative of the bucket holding the
   ceil(q*n)-th smallest observation, clamped into [min, max] (the
   clamp only ever moves the value closer to the true order statistic,
   so the rel_error bound is preserved). *)
let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hdr.quantile: q out of [0,1]";
  if t.total = 0 then nan
  else begin
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
    let n = Array.length t.counts in
    let acc = ref 0 and found = ref (n - 1) and i = ref 0 in
    while !i < n && !acc < rank do
      acc := !acc + t.counts.(!i);
      if !acc >= rank then found := !i;
      incr i
    done;
    Float.min t.moments.(m_max) (Float.max t.moments.(m_min) (representative t !found))
  end

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Hdr.percentile: p out of [0,100]";
  quantile t (p /. 100.0)

let cdf_points t =
  if t.total = 0 then []
  else begin
    let pts = ref [] and acc = ref 0 in
    for i = 0 to Array.length t.counts - 1 do
      if t.counts.(i) > 0 then begin
        acc := !acc + t.counts.(i);
        let _, hi = bucket_bounds t i in
        pts :=
          (float_of_int hi *. t.lowest, float_of_int !acc /. float_of_int t.total) :: !pts
      end
    done;
    List.rev !pts
  end

let compatible a b =
  a.sub_bits = b.sub_bits && Float.equal a.lowest b.lowest

let merge a b =
  if not (compatible a b) then
    invalid_arg "Hdr.merge: histograms have different bucket layouts";
  let m =
    {
      lowest = a.lowest;
      sub_bits = a.sub_bits;
      rel_error = a.rel_error;
      counts = Array.make (Stdlib.max (Array.length a.counts) (Array.length b.counts)) 0;
      total = a.total + b.total;
      moments =
        [|
          a.moments.(m_sum) +. b.moments.(m_sum);
          a.moments.(m_sum_sq) +. b.moments.(m_sum_sq);
          Float.min a.moments.(m_min) b.moments.(m_min);
          Float.max a.moments.(m_max) b.moments.(m_max);
        |];
    }
  in
  Array.iteri (fun i c -> m.counts.(i) <- c) a.counts;
  Array.iteri (fun i c -> m.counts.(i) <- m.counts.(i) + c) b.counts;
  m
