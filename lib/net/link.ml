(* Every packet handed to [send] and not yet delivered sits in one FIFO
   ring, oldest first: [n_prop] packets in propagation, then the one
   serialising (while [busy]), then those waiting.  A link's packets
   finish serialising in order and all propagate for the same latency,
   so they are delivered in that order too, and each of the two engine
   events per packet is the link's own kind with no payload. *)
type 'a t = {
  engine : Engine.t;
  bandwidth_bps : float;
  latency_i : int;  (* ns *)
  deliver : int -> 'a Packet.t -> unit;
  on_sent : int -> 'a Packet.t -> unit;
  mutable ring : 'a Packet.t array;
  mutable head : int;
  mutable count : int;
  mutable n_prop : int;
  mutable busy : bool;
  mutable sent : int;
  mutable k_sent : Engine.kind;
  mutable k_deliver : Engine.kind;
}

(* The ring index of the [i]-th oldest packet. *)
let[@inline] at t i =
  let j = t.head + i in
  let cap = Array.length t.ring in
  if j >= cap then j - cap else j

(* Serialisation time in int ns, rounded as [Time_ns.of_sec] rounds.
   HOT002: it depends on each packet's size. *)
let[@lint.allow "HOT002"] ser_ns t p =
  Float.to_int (Float.round (float_of_int (Packet.bits p) /. t.bandwidth_bps *. 1e9))

let[@hot] start_next t =
  if t.count = t.n_prop then t.busy <- false
  else begin
    t.busy <- true;
    let p = Array.unsafe_get t.ring (at t t.n_prop) in
    Engine.post_after_i t.engine (ser_ns t p) t.k_sent 0
  end

(* The serialising packet is off the wire: it starts propagating. *)
let[@hot] on_serialised t _ =
  let p = Array.unsafe_get t.ring (at t t.n_prop) in
  t.sent <- t.sent + 1;
  t.on_sent (Engine.now_i t.engine) p;
  t.n_prop <- t.n_prop + 1;
  Engine.post_after_i t.engine t.latency_i t.k_deliver 0;
  start_next t

let[@hot] on_delivered t _ =
  let p = Array.unsafe_get t.ring t.head in
  t.head <- at t 1;
  t.count <- t.count - 1;
  t.n_prop <- t.n_prop - 1;
  t.deliver (Engine.now_i t.engine) p

let create engine ~bandwidth_bps ~latency ?(on_sent = fun _ _ -> ()) ~deliver () =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  if Time_ns.(latency < 0L) then invalid_arg "Link.create: negative latency";
  let t =
    {
      engine;
      bandwidth_bps;
      latency_i = Time_ns.to_int latency;
      deliver;
      on_sent;
      ring = [||];
      head = 0;
      count = 0;
      n_prop = 0;
      busy = false;
      sent = 0;
      k_sent = Engine.null_kind;
      k_deliver = Engine.null_kind;
    }
  in
  t.k_sent <- Engine.register engine ~name:"link.serialised" (on_serialised t);
  t.k_deliver <- Engine.register engine ~name:"link.deliver" (on_delivered t);
  t

(* Doubling, with the ring unrolled to start at 0; the first packet
   fills the fresh array (delivered slots keep their last packet until
   overwritten, like the engine's freed closure slots). *)
let grow t p =
  let cap = Array.length t.ring in
  let ring = Array.make (if cap = 0 then 16 else 2 * cap) p in
  for i = 0 to t.count - 1 do
    ring.(i) <- t.ring.(at t i)
  done;
  t.ring <- ring;
  t.head <- 0

let send t p =
  if t.count = Array.length t.ring then grow t p;
  Array.unsafe_set t.ring (at t t.count) p;
  t.count <- t.count + 1;
  if not t.busy then start_next t

let in_flight t = t.count - t.n_prop
(* DEAD001 here and below: counters the net tests check. *)
let[@lint.allow "DEAD001"] busy t = t.busy
let[@lint.allow "DEAD001"] sent t = t.sent
