(* The bottleneck link's FIFO *is* the router buffer: bounding its
   occupancy at forward time gives drop-tail semantics without a second
   queue whose hand-off would need a completion hook. *)
type 'a t = {
  capacity : int;
  bottleneck : 'a Link.t;
  mutable forwarded : int;
  mutable drops : int;
}

let create engine ~bottleneck_bps ~one_way_delay ?(queue_capacity = 2048) ~deliver () =
  {
    capacity = queue_capacity;
    bottleneck =
      Link.create engine ~bandwidth_bps:bottleneck_bps ~latency:one_way_delay ~deliver ();
    forwarded = 0;
    drops = 0;
  }

let forward t p =
  if Link.in_flight t.bottleneck >= t.capacity then t.drops <- t.drops + 1
  else begin
    Link.send t.bottleneck p;
    t.forwarded <- t.forwarded + 1
  end

let drops t = t.drops
(* DEAD001: a counter the net tests check. *)
let[@lint.allow "DEAD001"] forwarded t = t.forwarded
