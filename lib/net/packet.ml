type 'a t = {
  mutable size_bytes : int;
  mutable meta : 'a;
  mutable born : int;
  mutable in_use : bool;
}

let create ~size_bytes ~meta ~born =
  if size_bytes < 0 then invalid_arg "Packet.create: negative size";
  { size_bytes; meta; born; in_use = true }

let bits p = p.size_bytes * 8
let mtu_payload = 1448
let frame_overhead = 52
let ack_size = frame_overhead

type 'a packet = 'a t

(* Freelist pool of packets.

   [create] boxes a fresh record per packet — fine for connection-level
   workloads, but a million-flow pacing loop emitting one segment per
   flow per interval would churn the minor heap at the aggregate send
   rate.  The pool recycles packets through a stack: steady state is
   pop → overwrite three fields → push, no allocation. *)
module Pool = struct
  type 'a t = {
    mutable free : 'a packet array;  (* stack of recycled packets *)
    mutable free_top : int;
    mutable live : int;
    mutable created : int;
    mutable acquires : int;
    mutable reuses : int;
  }

  let create () =
    { free = [||]; free_top = 0; live = 0; created = 0; acquires = 0; reuses = 0 }

  (* Pool-miss path: the one place a pooled packet is boxed. *)
  let fresh p ~size_bytes ~meta ~born =
    p.created <- p.created + 1;
    { size_bytes; meta; born; in_use = true }
  (* ALLOC002: the record is built only on a pool miss (cold warm-up
     path); steady state pops the freelist instead. *)
  [@@lint.allow "ALLOC002"]

  let[@hot] acquire p ~size_bytes ~meta ~born =
    if size_bytes < 0 then invalid_arg "Packet.Pool.acquire: negative size";
    p.acquires <- p.acquires + 1;
    p.live <- p.live + 1;
    if p.free_top > 0 then begin
      p.reuses <- p.reuses + 1;
      let i = p.free_top - 1 in
      p.free_top <- i;
      let c = p.free.(i) in
      c.size_bytes <- size_bytes;
      c.meta <- meta;
      c.born <- born;
      c.in_use <- true;
      c
    end
    else fresh p ~size_bytes ~meta ~born

  (* Freelist growth: doubling, filled with the packet being released
     (it is immediately overwritten slot by slot). *)
  let grow_free p c =
    let cap = Array.length p.free in
    let cap' = if cap = 0 then 16 else cap * 2 in
    let b = Array.make cap' c in
    Array.blit p.free 0 b 0 cap;
    p.free <- b

  let[@hot] release p c =
    if not c.in_use then invalid_arg "Packet.Pool.release: packet is not live";
    c.in_use <- false;
    p.live <- p.live - 1;
    if p.free_top = Array.length p.free then grow_free p c;
    p.free.(p.free_top) <- c;
    p.free_top <- p.free_top + 1

  (* DEAD001 here and below: counters the packet-reuse tests check. *)
  let[@lint.allow "DEAD001"] live p = p.live
  let[@lint.allow "DEAD001"] free p = p.free_top
  let created p = p.created
  let[@lint.allow "DEAD001"] acquires p = p.acquires
  let[@lint.allow "DEAD001"] reuses p = p.reuses
end
