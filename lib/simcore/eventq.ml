(* 4-ary min-heap over (time, seq) int keys, parallel unboxed arrays.

   Layout: entry i's children are 4i+1 .. 4i+4.  A 4-ary heap does at
   most half the levels of a binary one; sift-down scans four sibling
   keys that sit adjacent in [kt], which the prefetcher likes.  All
   three arrays move together so an entry's key and payload share an
   index.

   The compiler is not flambda, so the hot paths avoid cross-function
   indirection and use unsafe array accesses.  Safety argument: every
   index is bounded by [t.size], and [t.size <= Array.length t.kt =
   Array.length t.ks = Array.length t.kp] is maintained by [push]
   (which grows first) and only ever decreased elsewhere. *)

type t = {
  mutable kt : int array;  (* time keys *)
  mutable ks : int array;  (* seq tie-breakers (unique) *)
  mutable kp : int array;  (* payloads (engine slot indices) *)
  mutable size : int;
}

let create ?(capacity = 256) () =
  let capacity = if capacity < 4 then 4 else capacity in
  {
    kt = Array.make capacity 0;
    ks = Array.make capacity 0;
    kp = Array.make capacity 0;
    size = 0;
  }

let length t = t.size
let is_empty t = t.size = 0
let capacity t = Array.length t.kt

let grow t =
  let cap = Array.length t.kt in
  let ncap = cap * 2 in
  let nkt = Array.make ncap 0 and nks = Array.make ncap 0 and nkp = Array.make ncap 0 in
  Array.blit t.kt 0 nkt 0 t.size;
  Array.blit t.ks 0 nks 0 t.size;
  Array.blit t.kp 0 nkp 0 t.size;
  t.kt <- nkt;
  t.ks <- nks;
  t.kp <- nkp

(* Move the hole at [i] up until [(time, seq)] fits (lexicographic;
   seqs are unique so strict compares suffice), then write the entry.
   Writing once at the end beats repeated triple swaps. *)
let[@hot] rec sift_up t i ~time ~seq ~payload =
  let fits =
    i = 0
    ||
    let parent = (i - 1) / 4 in
    let pt = Array.unsafe_get t.kt parent in
    not (time < pt || (time = pt && seq < Array.unsafe_get t.ks parent))
  in
  if fits then begin
    Array.unsafe_set t.kt i time;
    Array.unsafe_set t.ks i seq;
    Array.unsafe_set t.kp i payload
  end
  else begin
    let parent = (i - 1) / 4 in
    Array.unsafe_set t.kt i (Array.unsafe_get t.kt parent);
    Array.unsafe_set t.ks i (Array.unsafe_get t.ks parent);
    Array.unsafe_set t.kp i (Array.unsafe_get t.kp parent);
    sift_up t parent ~time ~seq ~payload
  end

let[@hot] push t ~time ~seq ~payload =
  if t.size = Array.length t.kt then grow t;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i ~time ~seq ~payload

let min_time t = t.kt.(0)
let min_seq t = t.ks.(0)
let min_payload t = t.kp.(0)

(* Sift the entry [time, seq, payload] down from the hole at [i]. *)
let[@hot] rec sift_down t i ~time ~seq ~payload =
  let first = (4 * i) + 1 in
  if first >= t.size then begin
    Array.unsafe_set t.kt i time;
    Array.unsafe_set t.ks i seq;
    Array.unsafe_set t.kp i payload
  end
  else begin
    (* Smallest of up to four children. *)
    let last = first + 3 in
    let last = if last < t.size then last else t.size - 1 in
    let best = ref first in
    let bt = ref (Array.unsafe_get t.kt first) in
    let bs = ref (Array.unsafe_get t.ks first) in
    for c = first + 1 to last do
      let ct = Array.unsafe_get t.kt c in
      if ct < !bt || (ct = !bt && Array.unsafe_get t.ks c < !bs) then begin
        best := c;
        bt := ct;
        bs := Array.unsafe_get t.ks c
      end
    done;
    if !bt < time || (!bt = time && !bs < seq) then begin
      let b = !best in
      Array.unsafe_set t.kt i !bt;
      Array.unsafe_set t.ks i !bs;
      Array.unsafe_set t.kp i (Array.unsafe_get t.kp b);
      sift_down t b ~time ~seq ~payload
    end
    else begin
      Array.unsafe_set t.kt i time;
      Array.unsafe_set t.ks i seq;
      Array.unsafe_set t.kp i payload
    end
  end

let[@hot] drop_min t =
  if t.size > 0 then begin
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then
      sift_down t 0 ~time:(Array.unsafe_get t.kt n) ~seq:(Array.unsafe_get t.ks n)
        ~payload:(Array.unsafe_get t.kp n)
  end

(* Floyd heap construction: compact the survivors to a prefix, then
   heapify bottom-up in O(n). *)
let rebuild t ~keep =
  let n = t.size in
  let w = ref 0 in
  for r = 0 to n - 1 do
    if keep ~seq:t.ks.(r) ~payload:t.kp.(r) then begin
      let i = !w in
      t.kt.(i) <- t.kt.(r);
      t.ks.(i) <- t.ks.(r);
      t.kp.(i) <- t.kp.(r);
      w := i + 1
    end
  done;
  t.size <- !w;
  for i = ((t.size - 2) / 4) downto 0 do
    sift_down t i ~time:t.kt.(i) ~seq:t.ks.(i) ~payload:t.kp.(i)
  done

(* DEAD001: queue contents the model tests compare. *)
let[@lint.allow "DEAD001"] to_sorted t =
  let copy =
    {
      kt = Array.sub t.kt 0 t.size;
      ks = Array.sub t.ks 0 t.size;
      kp = Array.sub t.kp 0 t.size;
      size = t.size;
    }
  in
  let acc = ref [] in
  while not (is_empty copy) do
    acc := (min_time copy, min_seq copy, min_payload copy) :: !acc;
    drop_min copy
  done;
  List.rev !acc
