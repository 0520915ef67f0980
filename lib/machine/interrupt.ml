(* Interrupt accounting, summed over lines (per-interrupt cost is the
   quantity the paper's overhead tables revolve around). *)
let m_raised = Metrics.counter "interrupt.raised"
let m_lost = Metrics.counter "interrupt.lost"
let m_delivered = Metrics.counter "interrupt.delivered"

type line = {
  name : string;
  source : Trigger.kind;
  latch_depth : int;
  spl_blockable : bool;
  cpu : int;
  handler : int -> unit;  (* receives the completion instant, ns *)
  handler_work : int;  (* the handler's own work per delivery, ns *)
  mutable in_flight : int;  (* delivered-but-unfinished, at most latch_depth *)
  works : int array;
      (* work (ns) of the deliveries in flight, a ring from [oldest]:
         they share one priority and CPU, so they complete in order *)
  mutable oldest : int;
  mutable complete : int -> unit;  (* the deliveries' callback, built once *)
  mutable deferred : bool;  (* a tick is waiting for the spl window to end *)
  raised : int ref;
  lost : int ref;
  delivered : int ref;
  (* Interned once per line: the paper's per-interrupt cost decomposition
     (save/restore + cache/TLB pollution + handler body, Tables 2-4). *)
  a_save : Profile.attr;
  a_pollution : Profile.attr;
  a_handler : Profile.attr;
}

type t = {
  engine : Engine.t;
  cpus : Cpu.t array;
  profile : Costs.profile;
  save : Time_ns.span;  (* the profile's save/restore, for the profiler's split *)
  on_trigger : Trigger.kind -> int -> unit;
  mutable overhead_ns : int;  (* per-delivery overhead at the current locality *)
  mutable spl_until : int;  (* end of the current disabled window, ns *)
  (* The lines whose tick the window deferred, oldest first in
     [spl_deferred.(0 .. n_deferred - 1)]; a line defers at most one
     tick per window. *)
  mutable spl_deferred : line array;
  mutable n_deferred : int;
}

(* A delivery's save/restore and cache-pollution overhead, rounded to
   int ns as [Time_ns.of_us] rounds. *)
let delivery_overhead_ns profile locality =
  Float.to_int
    (Float.round (Costs.intr_total_us profile ~locality:locality.Cache.sensitivity *. 1e3))

let create ~engine ~cpus ~profile ~on_trigger () =
  {
    engine;
    cpus;
    profile;
    save = Time_ns.of_us profile.Costs.intr_save_restore_us;
    on_trigger;
    overhead_ns = delivery_overhead_ns profile Cache.neutral;
    spl_until = 0;
    spl_deferred = [||];
    n_deferred = 0;
  }

let set_locality t l = t.overhead_ns <- delivery_overhead_ns t.profile l

(* A delivery's completion: its handler runs, then the trigger state. *)
let complete t ln now =
  let work = ln.works.(ln.oldest) in
  ln.oldest <- (if ln.oldest + 1 = ln.latch_depth then 0 else ln.oldest + 1);
  ln.in_flight <- ln.in_flight - 1;
  incr ln.delivered;
  if Trace.on () then Trace.irq ~at:now ~line:ln.name ~cpu:ln.cpu ~dur:work;
  ln.handler now;
  t.on_trigger ln.source now

let line t ~name ~source ?(latch_depth = 2) ?(spl_blockable = false) ?(cpu = 0) ~handler
    ~handler_work_ns () =
  if latch_depth < 1 then invalid_arg "Interrupt.line: latch_depth must be >= 1";
  if cpu < 0 || cpu >= Array.length t.cpus then invalid_arg "Interrupt.line: bad cpu";
  let m = Metrics.current () in
  let ln =
    {
      name;
      source;
      latch_depth;
      spl_blockable;
      cpu;
      handler;
      handler_work = Int.max handler_work_ns 0;
      in_flight = 0;
      works = Array.make latch_depth 0;
      oldest = 0;
      complete = ignore;
      deferred = false;
      raised = Metrics.cell m m_raised;
      lost = Metrics.cell m m_lost;
      delivered = Metrics.cell m m_delivered;
      a_save = Profile.intern [ "interrupt"; name; "save_restore" ];
      a_pollution = Profile.intern [ "interrupt"; name; "pollution" ];
      a_handler = Profile.intern [ "interrupt"; name; "handler" ];
    }
  in
  ln.complete <- (fun now -> complete t ln now);
  ln

(* Work stays in int ns and the completion callback is the line's, so a
   delivery allocates nothing beyond its quantum. *)
let[@hot] deliver t ln =
  let overhead = t.overhead_ns in
  let work = overhead + ln.handler_work in
  let slot = ln.oldest + ln.in_flight in
  ln.works.(if slot >= ln.latch_depth then slot - ln.latch_depth else slot) <- work;
  ln.in_flight <- ln.in_flight + 1;
  let attr =
    (* Split the delivery into save/restore, pollution refill and handler
       body.  The pollution share is [overhead - save] so the parts sum
       exactly to the charged overhead regardless of float rounding.
       ALLOC002: only while profiling. *)
    if Profile.enabled () then begin
      let overhead = Time_ns.of_ns overhead in
      let save = Time_ns.min t.save overhead in
      Some
        (Profile.seq
           [ (ln.a_save, save); (ln.a_pollution, Time_ns.(overhead - save)) ]
           ~tail:ln.a_handler)
      [@lint.allow "ALLOC002"]
    end
    else None
  in
  Cpu.submit t.cpus.(ln.cpu) ?attr ~prio:Cpu.prio_intr ~work ~trigger:None ln.complete

let lose ln ~at =
  incr ln.lost;
  Trace.irq_lost ~at ~line:ln.name

(* Doubling; the deferring line fills the fresh slots. *)
let grow_deferred t ln =
  let cap = Array.length t.spl_deferred in
  let a = Array.make (if cap = 0 then 4 else 2 * cap) ln in
  Array.blit t.spl_deferred 0 a 0 t.n_deferred;
  t.spl_deferred <- a

let[@hot] raise_irq t ln =
  incr ln.raised;
  let now_i = Engine.now_i t.engine in
  if Trace.on () then Trace.irq_raised ~at:now_i ~line:ln.name;
  if ln.spl_blockable && now_i < t.spl_until then begin
    (* Interrupts disabled: latch one tick; further ticks are gone. *)
    if ln.deferred then begin
      lose ln ~at:now_i;
      false
    end
    else begin
      ln.deferred <- true;
      if t.n_deferred = Array.length t.spl_deferred then grow_deferred t ln;
      t.spl_deferred.(t.n_deferred) <- ln;
      t.n_deferred <- t.n_deferred + 1;
      true
    end
  end
  else if ln.in_flight >= ln.latch_depth then begin
    lose ln ~at:now_i;
    false
  end
  else begin
    deliver t ln;
    true
  end

(* Deliver the deferred ticks, oldest first. *)
let[@hot] flush_spl t =
  let n = t.n_deferred in
  t.n_deferred <- 0;
  for i = 0 to n - 1 do
    let ln = t.spl_deferred.(i) in
    ln.deferred <- false;
    if ln.in_flight >= ln.latch_depth then lose ln ~at:(Engine.now_i t.engine)
    else deliver t ln
  done

(* Disabled windows: one engine kind whose payload says which edge is
   due, 0 for a window opening after its gap, 1 for its end. *)
let[@hot] spl_edge t ~rng ~gap ~duration kind code =
  if code = 0 then begin
    let d = Dist.draw_ns duration rng in
    t.spl_until <- Engine.now_i t.engine + d;
    Engine.post_after_i t.engine d kind 1
  end
  else begin
    flush_spl t;
    Engine.post_after_i t.engine (Dist.draw_ns gap rng) kind 0
  end

let start_spl_sections t ~rng ?(rate_per_sec = 1_300.0)
    ?(duration_us = Dist.Uniform (40.0, 180.0)) () =
  let gap = Dist.Exponential (1e6 /. rate_per_sec) in
  let kind = ref Engine.null_kind in
  kind :=
    Engine.register t.engine ~name:"irq.spl" (fun code ->
        spl_edge t ~rng ~gap ~duration:duration_us !kind code);
  Engine.post_after_i t.engine (Dist.draw_ns gap rng) !kind 0

let raised ln = !(ln.raised)
let lost ln = !(ln.lost)
let delivered ln = !(ln.delivered)
