type 'a t = {
  stride : int;
  mutable cap : int;
  mutable rows : int array;
  mutable vals : 'a array;
  mutable free_top : int;
  mutable free_stk : int array;
}

let gen = 4
let loc = 5
let loc_free = -1
let row_bits = 24
let max_rows = 1 lsl row_bits

let create ~stride =
  if stride <= Int.max gen loc then invalid_arg "Slab.create: stride too small";
  { stride; cap = 0; rows = [||]; vals = [||]; free_top = 0; free_stk = [||] }

let grow s v =
  let cap = if s.cap = 0 then 16 else s.cap * 2 in
  if cap > max_rows then failwith "Slab: more than 2^24 rows";
  let rows = Array.make (cap * s.stride) 0 in
  Array.blit s.rows 0 rows 0 (s.cap * s.stride);
  for i = s.cap to cap - 1 do
    rows.((i * s.stride) + loc) <- loc_free
  done;
  s.rows <- rows;
  let vals = Array.make cap v in
  Array.blit s.vals 0 vals 0 s.cap;
  s.vals <- vals;
  (* New rows go under the free ones, lowest on top. *)
  let stk = Array.make cap 0 in
  Array.blit s.free_stk 0 stk 0 s.free_top;
  for i = cap - 1 downto s.cap do
    stk.(s.free_top + (cap - 1 - i)) <- i
  done;
  s.free_stk <- stk;
  s.free_top <- s.free_top + (cap - s.cap);
  s.cap <- cap

let[@inline] alloc s v =
  if s.free_top = 0 then grow s v;
  s.free_top <- s.free_top - 1;
  let i = s.free_stk.(s.free_top) in
  s.vals.(i) <- v;
  i

(* Growth puts the lowest new row, the old capacity, on top. *)
let[@inline] next_row s = if s.free_top = 0 then s.cap else s.free_stk.(s.free_top - 1)

let free s i =
  let b = i * s.stride in
  s.rows.(b + gen) <- s.rows.(b + gen) + 1;
  s.rows.(b + loc) <- loc_free;
  s.free_stk.(s.free_top) <- i;
  s.free_top <- s.free_top + 1

let[@inline] handle s i = (s.rows.((i * s.stride) + gen) lsl row_bits) lor i
let[@inline] row_of h = h land (max_rows - 1)

let[@inline] valid s h =
  let i = row_of h in
  i < s.cap
  && s.rows.((i * s.stride) + gen) = h lsr row_bits
  && s.rows.((i * s.stride) + loc) <> loc_free

let words s =
  let arr n = if n = 0 then 0 else n + 1 in
  7 + arr (Array.length s.rows) + arr (Array.length s.vals) + arr (Array.length s.free_stk)
