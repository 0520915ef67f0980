(* Per-session state is one stride-4 row of a flat int array — total,
   sent, live flag and a pad word — so the per-send bookkeeping touches
   one cache line per session instead of three parallel arrays (three
   random lines at million-flow scale). *)

let o_total = 0  (* segments to send; max_int = unbounded *)
let o_sent = 1
let o_live = 2  (* 0/1 *)

type t = {
  mutable cap : int;
  mutable n : int;  (* high-water slot count, = length of used prefix *)
  mutable s : int array;  (* stride-4 rows, indexed [sid lsl 2 + o_*] *)
  mutable free_stk : int array;  (* stack of released slot ids *)
  mutable free_top : int;
  mutable live_n : int;
  mutable total_sends : int;
  mutable completed : int;
}

let create ?(initial = 64) () =
  if initial < 1 then invalid_arg "Session_arena.create: initial < 1";
  {
    cap = initial;
    n = 0;
    s = Array.make (initial * 4) 0;
    free_stk = Array.make initial 0;
    free_top = 0;
    live_n = 0;
    total_sends = 0;
    completed = 0;
  }

let grow_int a cap =
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let reserve t =
  if t.n = t.cap then begin
    let cap = t.cap * 2 in
    t.s <- grow_int t.s (cap * 4);
    t.free_stk <- grow_int t.free_stk cap;
    t.cap <- cap
  end

let acquire t ~total_segments =
  if total_segments < 0 then invalid_arg "Session_arena.acquire: negative transfer size";
  let sid =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free_stk.(t.free_top)
    end
    else begin
      reserve t;
      let sid = t.n in
      t.n <- sid + 1;
      sid
    end
  in
  let base = sid lsl 2 in
  t.s.(base + o_total) <- total_segments;
  t.s.(base + o_sent) <- 0;
  t.s.(base + o_live) <- 1;
  t.live_n <- t.live_n + 1;
  sid

(* DEAD001 here and below: arena state the pacing tests check. *)
let[@lint.allow "DEAD001"] release t sid =
  if t.s.((sid lsl 2) + o_live) = 0 then
    invalid_arg "Session_arena.release: session is not live";
  t.s.((sid lsl 2) + o_live) <- 0;
  t.live_n <- t.live_n - 1;
  t.free_stk.(t.free_top) <- sid;
  t.free_top <- t.free_top + 1

(* One segment leaves the session: the fleet's per-send bookkeeping.
   Pure int-array state — this sits inside every pool fire. *)
let[@hot][@lint.allow "DEAD001"] on_send t sid =
  let base = sid lsl 2 in
  if t.s.(base + o_live) = 1 && t.s.(base + o_sent) < t.s.(base + o_total) then begin
    let sent = t.s.(base + o_sent) + 1 in
    t.s.(base + o_sent) <- sent;
    t.total_sends <- t.total_sends + 1;
    if sent = t.s.(base + o_total) then t.completed <- t.completed + 1;
    true
  end
  else false

(* Batched form of [on_send]: settle [k] segments at once.  The fleet
   path counts per-send in pool-row state (the same cache line its fire
   already touched) and settles the arena only when a transfer
   completes, keeping the arena row off the per-send path. *)
let note_sends t sid k =
  if k < 0 then invalid_arg "Session_arena.note_sends: negative count";
  let base = sid lsl 2 in
  if t.s.(base + o_live) = 1 then begin
    let before = t.s.(base + o_sent) in
    let sent = Int.min (before + k) t.s.(base + o_total) in
    t.s.(base + o_sent) <- sent;
    t.total_sends <- t.total_sends + (sent - before);
    if before < t.s.(base + o_total) && sent = t.s.(base + o_total) then
      t.completed <- t.completed + 1
  end

let[@lint.allow "DEAD001"] complete t sid =
  let base = sid lsl 2 in
  t.s.(base + o_live) = 1 && t.s.(base + o_sent) >= t.s.(base + o_total)

let[@lint.allow "DEAD001"] live_session t sid = t.s.((sid lsl 2) + o_live) = 1
let[@lint.allow "DEAD001"] sent t sid = t.s.((sid lsl 2) + o_sent)
let total t sid = t.s.((sid lsl 2) + o_total)
let[@lint.allow "DEAD001"] remaining t sid =
  t.s.((sid lsl 2) + o_total) - t.s.((sid lsl 2) + o_sent)
let[@lint.allow "DEAD001"] live t = t.live_n
let[@lint.allow "DEAD001"] slots t = t.n
let[@lint.allow "DEAD001"] sends t = t.total_sends
let[@lint.allow "DEAD001"] completed t = t.completed
