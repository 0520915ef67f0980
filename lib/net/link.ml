type 'a t = {
  engine : Engine.t;
  bandwidth_bps : float;
  latency : Time_ns.span;
  deliver : Time_ns.t -> 'a Packet.t -> unit;
  on_sent : Time_ns.t -> 'a Packet.t -> unit;
  queue : 'a Packet.t Queue.t;
  mutable busy : bool;
  mutable sent : int;
}

let create engine ~bandwidth_bps ~latency ?(on_sent = fun _ _ -> ()) ~deliver () =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  if Time_ns.(latency < 0L) then invalid_arg "Link.create: negative latency";
  {
    engine;
    bandwidth_bps;
    latency;
    deliver;
    on_sent;
    queue = Queue.create ();
    busy = false;
    sent = 0;
  }

let serialization_time t p =
  Time_ns.of_sec (float_of_int (Packet.bits p) /. t.bandwidth_bps)

(* ALLOC001: each packet's two engine events (serialised, delivered)
   carry closures; the engine schedules closures only. *)
let[@lint.allow "ALLOC001"] rec start_next t =
  if Queue.is_empty t.queue then t.busy <- false
  else begin
    t.busy <- true;
    let p = Queue.pop t.queue in
    let ser = serialization_time t p in
    ignore
      (Engine.schedule_after t.engine ser (fun () ->
           t.sent <- t.sent + 1;
           t.on_sent (Engine.now t.engine) p;
           ignore
             (Engine.schedule_after t.engine t.latency (fun () ->
                  t.deliver (Engine.now t.engine) p)
               : Engine.handle);
           start_next t)
        : Engine.handle)
  end

let send t p =
  Queue.add p t.queue;
  if not t.busy then start_next t

let in_flight t = Queue.length t.queue + if t.busy then 1 else 0
let busy t = t.busy
let sent t = t.sent
