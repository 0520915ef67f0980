module Int_set = Set.Make (Int)

type t = {
  engine : Engine.t;
  params : Tcp_types.params;
  send_ack : Time_ns.t -> ack_upto:int -> unit;
  mutable next_expected : int;
  mutable ooo : Int_set.t;  (* out-of-order segments above next_expected *)
  mutable acked_upto : int;
  mutable app_read_upto : int;  (* segments the app has consumed *)
  mutable app_read_delay : Time_ns.span option;
  mutable acks_sent : int;
  mutable biggest_ack : int;
  mutable running : bool;
}

(* An ACK may only cover data the application has read (the socket
   buffer is drained by reads; Appendix A.3, Figure 7 step 3). *)
let ackable t =
  match t.app_read_delay with None -> t.next_expected | Some _ -> t.app_read_upto

let emit_ack t now =
  let upto = ackable t in
  if upto > t.acked_upto then begin
    t.biggest_ack <- max t.biggest_ack (upto - t.acked_upto);
    t.acked_upto <- upto;
    t.acks_sent <- t.acks_sent + 1;
    t.send_ack now ~ack_upto:upto
  end

let rec heartbeat t () =
  if t.running then begin
    emit_ack t (Engine.now t.engine);
    Engine.schedule_after t.engine t.params.Tcp_types.delack_period (heartbeat t)
  end

let create engine params ~send_ack =
  let t =
    {
      engine;
      params;
      send_ack;
      next_expected = 0;
      ooo = Int_set.empty;
      acked_upto = 0;
      app_read_upto = 0;
      app_read_delay = None;
      acks_sent = 0;
      biggest_ack = 0;
      running = true;
    }
  in
  (* Align the first heartbeat to an absolute multiple of the period. *)
  let period = params.Tcp_types.delack_period in
  let now = Engine.now engine in
  let next_multiple =
    let k = Int64.div now period in
    Int64.mul (Int64.add k 1L) period
  in
  Engine.schedule_at engine next_multiple (fun () -> heartbeat t ());
  t

let schedule_app_read t seq =
  ignore seq;
  match t.app_read_delay with
  | None -> t.app_read_upto <- t.next_expected
  | Some d ->
    Engine.schedule_after t.engine d (fun () ->
        (* One read drains the whole socket buffer; reading sends any
           pending ACK (Figure 7, step 3). *)
        if t.next_expected > t.app_read_upto then begin
          t.app_read_upto <- t.next_expected;
          emit_ack t (Engine.now t.engine)
        end)

let on_data t ~seq =
  if seq >= t.next_expected then begin
    if seq = t.next_expected then begin
      t.next_expected <- t.next_expected + 1;
      let rec drain () =
        if Int_set.mem t.next_expected t.ooo then begin
          t.ooo <- Int_set.remove t.next_expected t.ooo;
          t.next_expected <- t.next_expected + 1;
          drain ()
        end
      in
      drain ()
    end
    else begin
      t.ooo <- Int_set.add seq t.ooo;
      (* A hole: send an immediate duplicate ACK so the sender's fast
         retransmit can trigger. *)
      t.acks_sent <- t.acks_sent + 1;
      t.send_ack (Engine.now t.engine) ~ack_upto:(ackable t)
    end;
    schedule_app_read t (t.next_expected - 1);
    let pending = ackable t - t.acked_upto in
    if pending >= t.params.Tcp_types.ack_every then emit_ack t (Engine.now t.engine)
  end

let next_expected t = t.next_expected
let delivered t = t.next_expected
let acks_sent t = t.acks_sent
let biggest_ack t = t.biggest_ack
let set_app_read_delay t d = t.app_read_delay <- d
let stop t = t.running <- false
