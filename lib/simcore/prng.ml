(* The xoshiro256++ state lives unboxed in 32 bytes (s0..s3 at offsets
   0, 8, 16, 24).  Int64 record fields would box every updated word:
   four allocations and four write barriers per draw.  Reading and
   writing the words through [Bytes.get/set_int64_ne] keeps the whole
   step in registers, so a draw whose result is consumed unboxed (as
   [bits53] and [int] do) allocates nothing. *)
type t = Bytes.t

(* splitmix64: used only to expand the seed into the xoshiro state, per
   the xoshiro authors' recommendation. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix st =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne t (8 * i) (splitmix64 st)
  done;
  t

let create ~seed = of_splitmix (ref (Int64.of_int seed))

(* ALLOC003: inlined into [bits64], where its operands stay unboxed. *)
let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))
[@@lint.allow "ALLOC003"]

(* [@inline] so callers ([bits53], [int]) consume the result unboxed:
   every Int64 here is an unboxed temporary.  DEAD001 here and below:
   stream control the PRNG tests pin. *)
let[@inline][@lint.allow "DEAD001"] [@hot] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 in
  let s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 in
  let s3 = Bytes.get_int64_ne t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  result

let[@lint.allow "DEAD001"] split t = of_splitmix (ref (bits64 t))
let[@lint.allow "DEAD001"] copy t = Bytes.copy t

(* The 53 high bits, an immediate int.  ALLOC003: as in [bits64]. *)
let[@inline] [@hot] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)
[@@lint.allow "ALLOC003"]

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     bounds used in this project (all far below 2^63). *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int n))
