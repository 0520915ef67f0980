let m_rx = Metrics.counter "nic.rx_packets"
let m_tx = Metrics.counter "nic.tx_packets"
let m_drop = Metrics.counter "nic.rx_dropped"
let m_batches = Metrics.counter "nic.rx_batches"

type mode = Interrupt_driven | Polled | Hybrid

type 'a t = {
  machine : Machine.t;
  name : string;
  mutable mode : mode;
  (* The receive ring, oldest first in [rx.(0 .. rx_len - 1)].  A drain
     always takes the whole ring, so it never wraps: the drain swaps it
     with [batch], the array the last batch was handed over in. *)
  mutable rx : 'a Packet.t array;
  mutable rx_len : int;
  mutable batch : 'a Packet.t array;
  mutable draining : bool;  (* inside [on_rx_batch] *)
  mutable rx_line : Interrupt.line option;
  mutable tx_line : Interrupt.line option;
  mutable link : 'a Link.t option;
  on_rx_batch : int -> 'a Packet.t array -> int -> unit;
  on_drop : 'a Packet.t -> unit;
  tx_intr_coalesce : int;
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

let[@hot] drain_ring t now =
  if t.draining then invalid_arg "Nic: receive ring drained inside on_rx_batch";
  let n = t.rx_len in
  if n = 0 then 0
  else begin
    let b = t.rx in
    t.rx <- t.batch;
    t.batch <- b;
    t.rx_len <- 0;
    t.rx_packets := !(t.rx_packets) + n;
    incr t.rx_batches;
    Trace.pkt_rx ~at:now ~nic:t.name ~batch:n;
    t.draining <- true;
    match t.on_rx_batch now b n with
    | () ->
      t.draining <- false;
      n
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.draining <- false;
      Printexc.raise_with_backtrace e bt
  end

let the_link t = match t.link with Some l -> l | None -> assert false
let rx_line t = match t.rx_line with Some l -> l | None -> assert false
(* DEAD001 here and below: counters the net tests check. *)
let[@lint.allow "DEAD001"] tx_line t = match t.tx_line with Some l -> l | None -> assert false

let[@hot] fire_rx_intr t =
  t.rx_intr_armed <- false;
  if t.rx_len > 0 then
    ignore (Machine.raise_irq t.machine (rx_line t) : bool)

let create machine ~name ~bandwidth_bps ~wire_latency ~tx_deliver ~on_rx_batch
    ?(on_drop = ignore) ?(tx_intr_coalesce = 0) ?(rx_handler_work_us = 1.0) ?(rx_intr_delay = 0L)
    ?(rx_ring_capacity = max_int) () =
  let m = Metrics.current () in
  let t =
    {
      machine;
      name;
      mode = Interrupt_driven;
      rx = [||];
      rx_len = 0;
      batch = [||];
      draining = false;
      rx_line = None;
      tx_line = None;
      link = None;
      on_rx_batch;
      on_drop;
      tx_intr_coalesce;
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
      ~handler_work_us:rx_handler_work_us ~handler:(fun now -> ignore (drain_ring t now : int))
      ()
  in
  let tx_line =
    (* Freeing transmitted buffers is cheap. *)
    Machine.interrupt_line machine ~name:(name ^ "-tx") ~source:Trigger.Ip_intr
      ~handler_work_us:1.0 ~handler:(fun _now -> ())
      ()
  in
  let on_sent now _p =
    incr t.tx_packets;
    Trace.pkt_tx ~at:now ~nic:t.name;
    if t.mode <> Polled && t.tx_intr_coalesce > 0 then begin
      t.tx_since_intr <- t.tx_since_intr + 1;
      if t.tx_since_intr >= t.tx_intr_coalesce then begin
        t.tx_since_intr <- 0;
        ignore (Machine.raise_irq machine tx_line : bool)
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

let transmit t p = Link.send (the_link t) p

(* Interrupt-mitigation: assert the receive interrupt [rx_intr_delay]
   after the first packet lands, so closely-spaced packets coalesce. *)
let maybe_arm_rx_intr t =
  if (not t.rx_intr_armed) && t.rx_len > 0 then begin
    t.rx_intr_armed <- true;
    if Time_ns.(t.rx_intr_delay <= 0L) then fire_rx_intr t
    else
      Engine.post_after_i (Machine.engine t.machine) (Time_ns.to_int t.rx_intr_delay)
        t.k_rx_intr 0
  end

(* Doubling; the arriving packet fills the fresh slots. *)
let grow_rx t p =
  let cap = Array.length t.rx in
  let rx = Array.make (if cap = 0 then 16 else 2 * cap) p in
  Array.blit t.rx 0 rx 0 t.rx_len;
  t.rx <- rx

let[@hot] deliver t p =
  if t.rx_len >= t.rx_ring_capacity then begin
    incr t.rx_dropped;
    Trace.pkt_drop ~at:(Engine.now_i (Machine.engine t.machine)) ~nic:t.name;
    t.on_drop p
  end
  else begin
    if t.rx_len = Array.length t.rx then grow_rx t p;
    t.rx.(t.rx_len) <- p;
    t.rx_len <- t.rx_len + 1;
    Trace.pkt_enqueue ~at:(Engine.now_i (Machine.engine t.machine)) ~nic:t.name ~qlen:t.rx_len
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
  if t.rx_len = 0 then begin
    t.hybrid_processing <- false;
    0
  end
  else begin
    t.hybrid_processing <- true;
    drain_ring t (Engine.now_i (Machine.engine t.machine))
  end

let[@lint.allow "DEAD001"] rx_dropped t = !(t.rx_dropped)

let[@lint.allow "DEAD001"] rx_ring_length t = t.rx_len
let rx_packets t = !(t.rx_packets)
let rx_batches t = !(t.rx_batches)
let[@lint.allow "DEAD001"] tx_packets t = !(t.tx_packets)
