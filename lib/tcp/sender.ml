type t = {
  engine : Engine.t;
  params : Tcp_types.params;
  total : int;
  transmit : Time_ns.t -> Tcp_types.segment Packet.t -> unit;
  on_complete : Time_ns.t -> unit;
  cwnd : Cwnd.t;
  mutable sent : int;
  mutable acked : int;
  mutable done_ : bool;
  mutable max_burst : int;
  mutable dupacks : int;
  mutable recover : int;  (* fast-retransmit at most once per window *)
  mutable retransmits : int;
  mutable rto : Engine.timer;  (* the retransmission timeout *)
}

let e_retransmit = Profile.intern [ "tcp"; "retransmit" ]
let e_rto_fired = Profile.intern [ "tcp"; "rto_fired" ]
let e_fast_retransmit = Profile.intern [ "tcp"; "fast_retransmit" ]

let retransmit_first_unacked t =
  let now = Engine.now t.engine in
  t.retransmits <- t.retransmits + 1;
  Profile.event e_retransmit;
  t.transmit now (Tcp_types.make_data t.params ~seq:t.acked ~born:(Time_ns.to_int now))

let arm_rto t =
  if (not t.done_) && t.acked < t.sent then
    Engine.arm_after t.engine t.rto (Time_ns.to_int t.params.Tcp_types.rto)
  else Engine.disarm t.engine t.rto

(* The timer is armed only while the sender runs with segments
   outstanding: every change of [acked] or [done_] re-arms or disarms
   it, and [sent] only grows. *)
let on_rto t =
  Profile.event e_rto_fired;
  Cwnd.on_timeout t.cwnd ~flight:(t.sent - t.acked);
  t.recover <- t.sent;
  t.dupacks <- 0;
  retransmit_first_unacked t;
  arm_rto t

let create engine params ~total_segments ~transmit ?(on_complete = fun _ -> ()) () =
  if total_segments < 0 then invalid_arg "Sender.create: negative transfer size";
  let t =
    {
      engine;
      params;
      total = total_segments;
      transmit;
      on_complete;
      cwnd = Cwnd.create params;
      sent = 0;
      acked = 0;
      done_ = false;
      max_burst = 0;
      dupacks = 0;
      recover = 0;
      retransmits = 0;
      rto = Engine.null_timer;
    }
  in
  let k = Engine.register engine ~name:"tcp.rto" (fun _ -> on_rto t) in
  t.rto <- Engine.timer engine k ~payload:0;
  t

let fill_window t =
  let now = Engine.now t.engine in
  let burst = ref 0 in
  let window = min (Cwnd.window t.cwnd) t.params.Tcp_types.awnd in
  while t.sent < t.total && t.sent - t.acked < window do
    t.transmit now (Tcp_types.make_data t.params ~seq:t.sent ~born:(Time_ns.to_int now));
    t.sent <- t.sent + 1;
    incr burst
  done;
  if !burst > t.max_burst then t.max_burst <- !burst

let start t =
  if t.total = 0 then t.on_complete (Engine.now t.engine)
  else begin
    fill_window t;
    arm_rto t
  end

let on_ack t ~ack_upto =
  if not t.done_ then begin
    if ack_upto > t.acked then begin
      t.acked <- min ack_upto t.total;
      t.dupacks <- 0;
      Cwnd.on_ack t.cwnd;
      arm_rto t
    end
    else if ack_upto = t.acked && t.acked < t.sent then begin
      t.dupacks <- t.dupacks + 1;
      if t.dupacks = 3 && t.acked >= t.recover then begin
        (* Fast retransmit + Reno halving; at most once per window. *)
        Profile.event e_fast_retransmit;
        Cwnd.on_fast_retransmit t.cwnd ~flight:(t.sent - t.acked);
        t.recover <- t.sent;
        retransmit_first_unacked t;
        arm_rto t
      end
    end;
    if t.acked >= t.total then begin
      t.done_ <- true;
      Engine.disarm t.engine t.rto;
      t.on_complete (Engine.now t.engine)
    end
    else fill_window t
  end

(* DEAD001 here and below: sender progress the TCP tests check. *)
let[@lint.allow "DEAD001"] sent t = t.sent
let[@lint.allow "DEAD001"] acked t = t.acked
let[@lint.allow "DEAD001"] complete t = t.done_
let max_burst_observed t = t.max_burst
let retransmits t = t.retransmits

let stop t =
  t.done_ <- true;
  Engine.disarm t.engine t.rto
