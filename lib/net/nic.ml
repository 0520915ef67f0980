let m_rx = Metrics.counter "nic.rx_packets"
let m_tx = Metrics.counter "nic.tx_packets"
let m_drop = Metrics.counter "nic.rx_dropped"
let m_batches = Metrics.counter "nic.rx_batches"

type mode = Interrupt_driven | Polled | Hybrid

type 'a t = {
  machine : Machine.t;
  name : string;
  mutable mode : mode;
  rx_ring : 'a Packet.t Queue.t;
  mutable rx_line : Interrupt.line option;
  mutable tx_line : Interrupt.line option;
  mutable link : 'a Link.t option;
  on_rx_batch : int -> 'a Packet.t list -> unit;
  tx_intr_coalesce : int;
  rx_handler_work_us : float;
  rx_intr_delay : Time_ns.span;
  rx_ring_capacity : int;
  mutable rx_intr_armed : bool;
  mutable hybrid_processing : bool;
  mutable tx_since_intr : int;
  rx_packets : int ref;
  rx_batches : int ref;
  rx_dropped : int ref;
  tx_packets : int ref;
  mutable k_rx_intr : Engine.kind;  (* the delayed receive interrupt *)
}

let drain_ring t now =
  let rec take acc =
    match Queue.take_opt t.rx_ring with None -> List.rev acc | Some p -> take (p :: acc)
  in
  let batch = take [] in
  match batch with
  | [] -> 0
  | _ :: _ ->
    let n = List.length batch in
    t.rx_packets := !(t.rx_packets) + n;
    incr t.rx_batches;
    Trace.pkt_rx ~at:now ~nic:t.name ~batch:n;
    t.on_rx_batch now batch;
    n

let the_link t = match t.link with Some l -> l | None -> assert false
let rx_line t = match t.rx_line with Some l -> l | None -> assert false
let tx_line t = match t.tx_line with Some l -> l | None -> assert false

let[@hot] fire_rx_intr t =
  t.rx_intr_armed <- false;
  if not (Queue.is_empty t.rx_ring) then
    ignore
      (Machine.raise_irq t.machine (rx_line t) ~handler_work_us:t.rx_handler_work_us () : bool)

let create machine ~name ~bandwidth_bps ~wire_latency ~tx_deliver ~on_rx_batch
    ?(tx_intr_coalesce = 0) ?(rx_handler_work_us = 1.0) ?(rx_intr_delay = 0L)
    ?(rx_ring_capacity = max_int) () =
  let m = Metrics.current () in
  let t =
    {
      machine;
      name;
      mode = Interrupt_driven;
      rx_ring = Queue.create ();
      rx_line = None;
      tx_line = None;
      link = None;
      on_rx_batch;
      tx_intr_coalesce;
      rx_handler_work_us;
      rx_intr_delay;
      rx_ring_capacity;
      rx_intr_armed = false;
      hybrid_processing = false;
      tx_since_intr = 0;
      rx_packets = Metrics.cell m m_rx;
      rx_batches = Metrics.cell m m_batches;
      rx_dropped = Metrics.cell m m_drop;
      tx_packets = Metrics.cell m m_tx;
      k_rx_intr = Engine.null_kind;
    }
  in
  let rx_line =
    Machine.interrupt_line machine ~name:(name ^ "-rx") ~source:Trigger.Ip_intr
      ~handler:(fun now -> ignore (drain_ring t now : int))
      ()
  in
  let tx_line =
    Machine.interrupt_line machine ~name:(name ^ "-tx") ~source:Trigger.Ip_intr
      ~handler:(fun _now -> ())
      ()
  in
  let on_sent now _p =
    incr t.tx_packets;
    Trace.pkt_tx ~at:now ~nic:t.name;
    if t.mode <> Polled && t.tx_intr_coalesce > 0 then begin
      t.tx_since_intr <- t.tx_since_intr + 1;
      if t.tx_since_intr >= t.tx_intr_coalesce then begin
        t.tx_since_intr <- 0;
        (* Freeing transmitted buffers is cheap. *)
        ignore (Machine.raise_irq machine tx_line ~handler_work_us:1.0 () : bool)
      end
    end
  in
  let link =
    Link.create (Machine.engine machine) ~bandwidth_bps ~latency:wire_latency ~on_sent
      ~deliver:tx_deliver ()
  in
  t.rx_line <- Some rx_line;
  t.tx_line <- Some tx_line;
  t.link <- Some link;
  t.k_rx_intr <-
    Engine.register (Machine.engine machine) ~name:"nic.rx_intr" (fun _ -> fire_rx_intr t);
  t

let set_mode t m = t.mode <- m
let mode t = t.mode

let transmit t p = Link.send (the_link t) p

(* Interrupt-mitigation: assert the receive interrupt [rx_intr_delay]
   after the first packet lands, so closely-spaced packets coalesce. *)
let maybe_arm_rx_intr t =
  if (not t.rx_intr_armed) && not (Queue.is_empty t.rx_ring) then begin
    t.rx_intr_armed <- true;
    if Time_ns.(t.rx_intr_delay <= 0L) then fire_rx_intr t
    else
      Engine.post_after_i (Machine.engine t.machine) (Time_ns.to_int t.rx_intr_delay)
        t.k_rx_intr 0
  end

let deliver t p =
  if Queue.length t.rx_ring >= t.rx_ring_capacity then begin
    incr t.rx_dropped;
    Trace.pkt_drop ~at:(Engine.now_i (Machine.engine t.machine)) ~nic:t.name
  end
  else begin
    Queue.add p t.rx_ring;
    Trace.pkt_enqueue
      ~at:(Engine.now_i (Machine.engine t.machine))
      ~nic:t.name ~qlen:(Queue.length t.rx_ring)
  end;
  let interrupt_mode =
    match t.mode with
    | Interrupt_driven -> true
    | Hybrid ->
      (* Interrupt only when no processing is in progress; the stack
         polls for the rest of the burst itself. *)
      if t.hybrid_processing then false
      else begin
        t.hybrid_processing <- true;
        true
      end
    | Polled ->
      (* Â§5.9: polling is turned off and interrupts re-enabled whenever
         a CPU is idle, so delivery is never needlessly delayed. *)
      Machine.any_cpu_idle t.machine
  in
  if interrupt_mode then maybe_arm_rx_intr t

let poll t = drain_ring t (Engine.now_i (Machine.engine t.machine))

let hybrid_done t =
  if Queue.is_empty t.rx_ring then begin
    t.hybrid_processing <- false;
    0
  end
  else begin
    t.hybrid_processing <- true;
    drain_ring t (Engine.now_i (Machine.engine t.machine))
  end

let rx_dropped t = !(t.rx_dropped)

let rx_ring_length t = Queue.length t.rx_ring
let rx_packets t = !(t.rx_packets)
let rx_batches t = !(t.rx_batches)
let tx_packets t = !(t.tx_packets)
