type t = int64
type span = int64

let zero = 0L
let ( + ) = Int64.add
let ( - ) = Int64.sub
let ( < ) a b = Int64.compare a b < 0
let ( <= ) a b = Int64.compare a b <= 0
let ( > ) a b = Int64.compare a b > 0
let ( >= ) a b = Int64.compare a b >= 0
let ( = ) a b = Int64.equal a b
let min a b = if a <= b then a else b
let max a b = if a >= b then a else b
(* ALLOC003: a [Time_ns.t] result is boxed by contract; hot paths that
   must not box keep their spans in int nanoseconds instead. *)
let of_ns n = Int64.of_int n [@@lint.allow "ALLOC003"]
let round_float f = Int64.of_float (Float.round f)
let of_us us = round_float (us *. 1e3)
let of_ms ms = round_float (ms *. 1e6)
let of_sec s = round_float (s *. 1e9)
let to_ns d = d

(* The literals are [max_int] and [min_int]. *)
let to_int t =
  let open Stdlib in
  if Int64.compare t 0x3FFF_FFFF_FFFF_FFFFL >= 0 then max_int
  else if Int64.compare t (-0x4000_0000_0000_0000L) <= 0 then min_int
  else Int64.to_int t
let to_us d = Int64.to_float d /. 1e3
let to_ms d = Int64.to_float d /. 1e6
let to_sec d = Int64.to_float d /. 1e9
let mul d k = Int64.mul d (Int64.of_int k)
let scale d f = round_float (Int64.to_float d *. f)

let pp ppf t =
  let open Stdlib in
  let abs = Int64.abs t in
  if Int64.compare abs 1_000L < 0 then Format.fprintf ppf "%Ldns" t
  else if Int64.compare abs 1_000_000L < 0 then
    Format.fprintf ppf "%.2fus" (to_us t)
  else if Int64.compare abs 1_000_000_000L < 0 then
    Format.fprintf ppf "%.3fms" (to_ms t)
  else Format.fprintf ppf "%.3fs" (to_sec t)

let to_string t = Format.asprintf "%a" pp t
