type t = {
  total : int;
  mutable sent : int;
  mutable start_fn : unit -> unit;
}

let create engine params ~total_segments ~interval ~transmit ?(jitter = fun () -> 0L)
    ?(on_last_sent = fun _ -> ()) () =
  if total_segments < 0 then invalid_arg "Paced_sender.create: negative transfer size";
  if Time_ns.(interval <= 0L) then invalid_arg "Paced_sender.create: interval must be positive";
  let t = { total = total_segments; sent = 0; start_fn = (fun () -> ()) } in
  let rec send_one ideal () =
    if t.sent < t.total then begin
      let now = Engine.now engine in
      transmit now (Tcp_types.make_data params ~seq:t.sent ~born:(Time_ns.to_int now));
      t.sent <- t.sent + 1;
      if t.sent = t.total then on_last_sent now
      else begin
        let next_ideal = Time_ns.(ideal + interval) in
        let at = Time_ns.(next_ideal + jitter ()) in
        Engine.schedule_at engine at (send_one next_ideal)
      end
    end
  in
  t.start_fn <-
    (fun () ->
      let now = Engine.now engine in
      Engine.schedule_at engine Time_ns.(now + jitter ()) (send_one now));
  t

let start t = t.start_fn ()
let sent t = t.sent

let create_with_rate_clock st params ~total_segments ~target_interval ~min_interval ~transmit
    ?(on_last_sent = fun _ -> ()) () =
  if total_segments < 0 then
    invalid_arg "Paced_sender.create_with_rate_clock: negative transfer size";
  let t = { total = total_segments; sent = 0; start_fn = (fun () -> ()) } in
  let clock =
    Rate_clock.create st ~target_interval ~min_interval
      ~send:(fun now ->
        if t.sent >= t.total then false
        else begin
          transmit now (Tcp_types.make_data params ~seq:t.sent ~born:(Time_ns.to_int now));
          t.sent <- t.sent + 1;
          if t.sent = t.total then on_last_sent now;
          true
        end)
      ()
  in
  t.start_fn <- (fun () -> Rate_clock.start clock);
  (t, clock)

(* ------------------------------------------------------------------ *)
(* Fleet pacing: many transfers over one Rate_clock.Pool.

   The single-sender shapes above box a record and closures per
   connection; the fleet names flows by dense integer id and keeps all
   state in three pooled struct-of-arrays structures — rate state in
   {!Rate_clock.Pool}, transfer progress in {!Session_arena}, wire
   packets in {!Packet.Pool} — so the steady send path of a
   million-flow sweep over the pacing wheel allocates nothing: time
   enters as int ns here, at the fleet's edge, and stays an int down to
   the store. *)

module Fleet (M : Timer_store.S) = struct
  module P = Rate_clock.Pool (M)

  type t = {
    mutable pool : P.t;
    arena : Session_arena.t;
    packets : int Packet.Pool.t;  (* meta = segment seq *)
    seg_bytes : int;
    transmit : int -> int Packet.Pool.cell -> unit;
    mutable now_i : int;  (* [now] of the current check, ns; stamped into cells *)
  }

  (* One pacing event for flow [fid]: run a segment through the packet
     pool and keep the train alive until the transfer completes.  No
     allocation: the cell is recycled, the meta is an int, and [born]
     is the current check's [now] in int ns.  No extra memory
     traffic either: the remaining-segment count lives in the pool
     row's scratch word and the segment seq is the pool's own send
     counter — both on the cache line the firing pool just touched —
     so the arena row (a cold line per send at million-flow scale) is
     only settled once, when the transfer completes. *)
  let[@hot] fleet_send t fid =
    let rem = P.user t.pool fid in
    if rem = 0 then false
    else begin
      let seq = P.flow_sends t.pool fid in
      let c =
        Packet.Pool.acquire t.packets ~size_bytes:t.seg_bytes ~meta:seq ~born:t.now_i
      in
      t.transmit fid c;
      Packet.Pool.release t.packets c;
      if rem = max_int then true (* unbounded pacing flow *)
      else begin
        let rem = rem - 1 in
        P.set_user t.pool fid rem;
        if rem = 0 then
          Session_arena.note_sends t.arena fid (Session_arena.total t.arena fid);
        (* Every transmitted segment answers true — the pool's contract
           is "false = nothing was sent" — so the train ends on the
           next fire, which finds rem = 0 and refuses. *)
        true
      end
    end

  let create ?stat_every ?intervals ?delays ?(params = Tcp_types.default) ~tick ~transmit () =
    let t =
      {
        (* Placeholder pool: replaced below once [t] exists for the
           send closure to capture ([P.create] application keeps the
           record out of [let rec] territory). *)
        pool = P.create ~tick:(Time_ns.to_int tick) ~send:(fun _ -> false) ();
        arena = Session_arena.create ();
        packets = Packet.Pool.create ();
        seg_bytes = params.Tcp_types.mss + Packet.frame_overhead;
        transmit;
        now_i = 0;
      }
    in
    t.pool <-
      P.create ?stat_every ?intervals ?delays ~tick:(Time_ns.to_int tick)
        ~send:(fun fid -> fleet_send t fid) ();
    t

  let add t ~total_segments ~target_interval ~min_interval =
    let fid =
      P.add t.pool ~target_interval:(Time_ns.to_int target_interval)
        ~min_interval:(Time_ns.to_int min_interval)
    in
    let sid = Session_arena.acquire t.arena ~total_segments in
    (* Flow ids and session ids advance in lockstep: the fleet never
       releases arena slots, so both are dense and equal. *)
    assert (fid = sid);
    P.set_user t.pool fid total_segments;
    fid

  let start t fid ~now = P.start t.pool fid ~now:(Time_ns.to_int now)
  let stop t fid = P.stop t.pool fid

  let[@hot] check t ~now ~limit =
    let now_i = Time_ns.to_int now in
    t.now_i <- now_i;
    P.check t.pool ~now:now_i ~limit

  let flows t = P.flows t.pool
  let active t = P.active t.pool
  let sends t = P.sends t.pool
  let catch_ups t = P.catch_ups t.pool
  let sent t fid = P.flow_sends t.pool fid
  let complete t fid = P.user t.pool fid = 0
  let completed t = Session_arena.completed t.arena
  let intervals t = P.intervals t.pool
  let delays t = P.delays t.pool
  let store_pending t = P.store_pending t.pool
  let store_words t = P.store_words t.pool
  let pool_words t = P.words t.pool
  let packet_cells_created t = Packet.Pool.created t.packets
  let packet_reuses t = Packet.Pool.reuses t.packets
  let store_name = M.name
end
