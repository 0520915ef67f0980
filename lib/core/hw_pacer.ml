type t = {
  machine : Machine.t;
  interval_i : int;  (* ns *)
  send : int -> bool;
  dispatch_work_us : float;
  mutable line : Interrupt.line option;
  mutable running : bool;
  mutable dispatch_pending : bool;
  mutable sends : int;
  mutable last_send : int;  (* ns; -1 before the first send *)
  intervals : Hdr.t;  (* constant-memory, like Rate_clock.intervals *)
  mutable dispatch : int -> unit;  (* the softintr quantum's callback, built once *)
  mutable tick : Engine.timer;
}

let a_dispatch = Profile.intern [ "softintr"; "hw_pacer" ]
let dispatch_attr = Some a_dispatch
let e_coalesced = Profile.intern [ "hw_pacer"; "tick_coalesced" ]

let[@hot] on_dispatch t now =
  t.dispatch_pending <- false;
  if t.running && t.send now then begin
    if t.last_send >= 0 then
      Hdr.record t.intervals (float_of_int (now - t.last_send) /. 1e3);
    t.last_send <- now;
    t.sends <- t.sends + 1
  end

(* The interrupt handler only wakes the software interrupt; the packet
   is transmitted from softintr context, like the BSD thread dispatch
   the paper describes for its hardware-timer experiment (§5.6). *)
let on_tick t _now =
  if t.dispatch_pending then
    (* the previous tick's transmission has not run yet: the callout
       coalesces and this tick's transmission is effectively lost *)
    Profile.event e_coalesced
  else begin
    t.dispatch_pending <- true;
    Machine.submit_quantum t.machine ?attr:dispatch_attr ~prio:Cpu.prio_softintr
      ~work_us:t.dispatch_work_us ~trigger:None t.dispatch
  end

let the_line t = match t.line with Some l -> l | None -> assert false

(* One tick: [stop] disarms the timer, so it fires only while running,
   and it re-arms only while still running after the raise. *)
let[@hot] on_timer t _ =
  ignore (Machine.raise_irq t.machine (the_line t) ~handler_work_us:0.4 () : bool);
  if t.running then Engine.arm_after (Machine.engine t.machine) t.tick t.interval_i

let create machine ~interval ~send ?(dispatch_work_us = 1.2) () =
  if Time_ns.(interval <= 0L) then invalid_arg "Hw_pacer.create: interval must be positive";
  let t =
    {
      machine;
      interval_i = Time_ns.to_int interval;
      send;
      dispatch_work_us;
      line = None;
      running = false;
      dispatch_pending = false;
      sends = 0;
      last_send = -1;
      intervals = Hdr.create ~lowest:0.01 ();
      dispatch = ignore;
      tick = Engine.null_timer;
    }
  in
  let line =
    Machine.interrupt_line machine ~name:"pacer-8253" ~source:Trigger.Clock_tick ~latch_depth:1
      ~spl_blockable:true
      ~handler:(fun now -> on_tick t now)
      ()
  in
  t.line <- Some line;
  t.dispatch <- on_dispatch t;
  let engine = Machine.engine machine in
  let k_tick = Engine.register engine ~name:"hw_pacer.tick" (on_timer t) in
  t.tick <- Engine.timer engine k_tick ~payload:0;
  t

let start t =
  if not t.running then begin
    t.running <- true;
    Engine.arm_after (Machine.engine t.machine) t.tick t.interval_i
  end

let stop t =
  t.running <- false;
  Engine.disarm (Machine.engine t.machine) t.tick

let sends t = t.sends
let ticks_raised t = Interrupt.raised (the_line t)
let ticks_lost t = Interrupt.lost (the_line t)
let intervals t = t.intervals
