let kind_index : Trigger.kind -> int = function
  | Trigger.Syscall -> 0
  | Trigger.Trap -> 1
  | Trigger.Ip_intr -> 2
  | Trigger.Ip_output -> 3
  | Trigger.Tcpip_other -> 4
  | Trigger.Dev_intr -> 5
  | Trigger.Clock_tick -> 6
  | Trigger.Idle -> 7

let m_triggers = Metrics.counter "machine.triggers"

type t = {
  engine : Engine.t;
  profile : Costs.profile;
  cpus : Cpu.t array;
  idle : bool array;  (* per-CPU idle state *)
  mutable checker : int;  (* the one idle CPU checking (§5.2); -1 if none *)
  mutable intc : Interrupt.t option;  (* set right after creation *)
  mutable locality : Cache.locality;
  mutable check_hook : (Trigger.kind -> int -> unit) option;
  (* Observers in registration order in [observers.(0 .. n_observers-1)];
     a growable array keeps registration O(1) amortised and notification
     an indexed loop (this runs at every trigger state). *)
  mutable observers : (Trigger.kind -> int -> unit) array;
  mutable n_observers : int;
  counts : int ref array;  (* per trigger kind; all are [machine.triggers] cells *)
  mutable clock_running : bool;
  mutable idle_poll : Time_ns.span option;
  mutable idle_deadline_fn : (unit -> int) option;  (* ns; [max_int] for none *)
  mutable idle_epoch : int;  (* bumped on checker changes; invalidates stale pokes *)
  mutable k_idle_poll : Engine.kind;
  mutable k_idle_deadline : Engine.kind;
}

let engine t = t.engine
let cpu t = t.cpus.(0)
let cpu_count t = Array.length t.cpus

let nth_cpu t i =
  if i < 0 || i >= Array.length t.cpus then invalid_arg "Machine.nth_cpu: bad index";
  t.cpus.(i)

let any_cpu_idle t = Array.exists Fun.id t.idle

let total_busy_ns t =
  Array.fold_left (fun acc c -> Time_ns.(acc + Cpu.busy_ns c)) 0L t.cpus

let checking_cpu t = if t.checker < 0 then None else Some t.checker
let profile t = t.profile

let interrupts t =
  match t.intc with Some i -> i | None -> assert false

let set_locality t l =
  t.locality <- l;
  Interrupt.set_locality (interrupts t) l

let locality t = t.locality

let fire_trigger t kind =
  let now = Engine.now_i t.engine in
  incr t.counts.(kind_index kind);
  Trace.trigger ~at:now (Trigger.name kind);
  for i = 0 to t.n_observers - 1 do
    t.observers.(i) kind now
  done;
  match t.check_hook with Some f -> f kind now | None -> ()

let add_observer t f =
  let cap = Array.length t.observers in
  if t.n_observers = cap then begin
    let grown = Array.make (Stdlib.max 4 (2 * cap)) f in
    Array.blit t.observers 0 grown 0 t.n_observers;
    t.observers <- grown
  end;
  t.observers.(t.n_observers) <- f;
  t.n_observers <- t.n_observers + 1
let set_check_hook t hook = t.check_hook <- hook
let check_hook_attached t = t.check_hook <> None
let trigger_count t kind = !(t.counts.(kind_index kind))
let trigger_total t = Array.fold_left (fun acc c -> acc + !c) 0 t.counts

let check_attr = Profile.intern [ "softtimer"; "check" ]

(* Microseconds of work to integer nanoseconds, as [Time_ns.of_us] of
   the work clamped at zero.  NaN and infinity have no conversion, so
   they are rejected before it. *)
let[@inline] ns_of_work_us ~what us =
  if not (Float.is_finite us) then invalid_arg what;
  Float.to_int (Float.round ((if us > 0.0 then us else 0.0) *. 1e3))

let[@hot] submit_quantum t ?(cpu = 0) ?attr ?klass ~prio ~work_us ~trigger cb =
  if cpu < 0 || cpu >= Array.length t.cpus then
    invalid_arg "Machine.submit_quantum: bad cpu";
  let checked = Option.is_some trigger && Option.is_some t.check_hook in
  let work_us =
    if checked then work_us +. t.profile.Costs.softtimer_check_us else work_us
  in
  let attr =
    (* Split the trigger-state check surcharge out of the quantum so it
       shows up under softtimer;check rather than inflating the work's
       own category.  Only allocate the seq when profiling is live. *)
    if checked && Profile.enabled () then
      let base = match attr with Some a -> a | None -> Cpu.default_attr prio in
      Some
        (Profile.seq
           [ (check_attr, Time_ns.of_us t.profile.Costs.softtimer_check_us) ]
           ~tail:base)
      [@lint.allow "ALLOC002"]
    else attr
  in
  let work = ns_of_work_us ~what:"Machine.submit_quantum: non-finite work" work_us in
  Cpu.submit t.cpus.(cpu) ?attr ?klass ~prio ~work ~trigger cb

let interrupt_line t ~name ~source ?latch_depth ?spl_blockable ?cpu ~handler () =
  Interrupt.line (interrupts t) ~name ~source ?latch_depth ?spl_blockable ?cpu ~handler ()

let start_spl_sections t ?rate_per_sec ?duration_us ~seed () =
  Interrupt.start_spl_sections (interrupts t) ~rng:(Prng.create ~seed) ?rate_per_sec
    ?duration_us ()

let raise_irq t ln ?(handler_work_us = 0.0) () =
  Interrupt.raise_irq (interrupts t) ln
    ~handler_work_ns:(ns_of_work_us ~what:"Machine.raise_irq: non-finite work" handler_work_us)

(* Idle-loop machinery.  At most one idle CPU -- the checker (§5.2) --
   polls for soft-timer events and runs the idle measurement poll; the
   other idle CPUs halt.  Both the poll and the facility's deadline poke
   are one-shot events re-armed while that CPU stays the checker; their
   payload is the epoch they were armed in, and the epoch counter
   discards events armed before the last checker change (only an
   election changes the checker, and it bumps the epoch). *)

let checker_still t epoch =
  t.idle_epoch = epoch && t.checker >= 0 && Cpu.is_idle t.cpus.(t.checker)

let arm_idle_poll t epoch =
  match t.idle_poll with
  | None -> ()
  | Some dt ->
    Engine.post_after_i t.engine (Time_ns.to_int dt) t.k_idle_poll epoch

let[@hot] idle_poll_event t epoch =
  if checker_still t epoch then begin
    fire_trigger t Trigger.Idle;
    if checker_still t epoch then arm_idle_poll t epoch
  end

let arm_idle_deadline t epoch =
  match t.idle_deadline_fn with
  | None -> ()
  | Some next_deadline ->
    let earliest = next_deadline () in
    if earliest < max_int then
      Engine.post_at_i t.engine earliest t.k_idle_deadline epoch

let[@hot] idle_deadline_event t epoch =
  if checker_still t epoch then begin
    (* The check hook fires the due event; if the handler spawned no CPU
       work we are still idle and must re-arm for the next deadline
       ourselves. *)
    fire_trigger t Trigger.Idle;
    if checker_still t epoch then arm_idle_deadline t epoch
  end

let rec first_idle t i =
  if i >= Array.length t.idle then -1 else if t.idle.(i) then i else first_idle t (i + 1)

(* Elect an idle CPU as the checker.  Bumping the epoch kills any chain
   armed for a previous election, so re-entry can never double-arm. *)
let assign_checker t =
  t.idle_epoch <- t.idle_epoch + 1;
  let epoch = t.idle_epoch in
  let i = first_idle t 0 in
  t.checker <- i;
  if i >= 0 then begin
    arm_idle_poll t epoch;
    arm_idle_deadline t epoch
  end

let on_idle t i _now =
  t.idle.(i) <- true;
  (* A newly idle CPU only matters if nobody is checking yet. *)
  if t.checker < 0 then assign_checker t

let on_resume t i _now =
  t.idle.(i) <- false;
  if t.checker = i then assign_checker t

let create ?(profile = Costs.pentium_ii_300) ?(cpus = 1) engine =
  if cpus < 1 then invalid_arg "Machine.create: need at least one cpu";
  let cpu_arr = Array.init cpus (fun i -> Cpu.create ~id:i engine) in
  Trace.sim_start ~at:(Engine.now_i engine);
  let m = Metrics.current () in
  let t =
    {
      engine;
      profile;
      cpus = cpu_arr;
      idle = Array.make cpus true;
      checker = -1;
      intc = None;
      locality = Cache.neutral;
      check_hook = None;
      observers = [||];
      n_observers = 0;
      counts = Array.init 8 (fun _ -> Metrics.cell m m_triggers);
      clock_running = false;
      idle_poll = None;
      idle_deadline_fn = None;
      idle_epoch = 0;
      k_idle_poll = Engine.null_kind;
      k_idle_deadline = Engine.null_kind;
    }
  in
  t.k_idle_poll <- Engine.register engine ~name:"machine.idle_poll" (idle_poll_event t);
  t.k_idle_deadline <-
    Engine.register engine ~name:"machine.idle_deadline" (idle_deadline_event t);
  let intc =
    Interrupt.create ~engine ~cpus:cpu_arr ~profile
      ~on_trigger:(fun kind now ->
        ignore now;
        fire_trigger t kind)
      ()
  in
  t.intc <- Some intc;
  let on_trigger kind = fire_trigger t kind in
  Array.iteri
    (fun i cpu ->
      Cpu.set_trigger_hook cpu on_trigger;
      Cpu.set_idle_hook cpu (on_idle t i);
      Cpu.set_resume_hook cpu (on_resume t i))
    cpu_arr;
  t

let[@hot] periodic_tick t ln ~handler_work_ns ~period_i kind =
  ignore (Interrupt.raise_irq (interrupts t) ln ~handler_work_ns : bool);
  Engine.post_after_i t.engine period_i kind 0

let add_periodic_timer t ~hz ?(handler_work_us = 0.0) handler =
  if hz <= 0.0 then invalid_arg "Machine.add_periodic_timer: hz must be positive";
  let period = Time_ns.of_sec (1.0 /. hz) in
  if not (Float.is_finite handler_work_us) then
    invalid_arg "Machine.add_periodic_timer: non-finite work";
  let handler_work_ns = Time_ns.to_int (Time_ns.of_us handler_work_us) in
  let ln =
    (* A fast-interrupt handler: serviced even inside spl sections, like
       the paper's null-handler measurement timer (Â§5.1). *)
    interrupt_line t ~name:(Printf.sprintf "timer-%.0fHz" hz) ~source:Trigger.Clock_tick
      ~latch_depth:1 ~handler ()
  in
  let period_i = Time_ns.to_int period in
  let kind = ref Engine.null_kind in
  kind :=
    Engine.register t.engine ~name:"machine.periodic_tick" (fun _ ->
        periodic_tick t ln ~handler_work_ns ~period_i !kind);
  Engine.post_after_i t.engine period_i !kind 0;
  ln

let start_interrupt_clock t =
  if not t.clock_running then begin
    t.clock_running <- true;
    (* hardclock: bump ticks, run due callouts — a small constant cost. *)
    ignore
      (add_periodic_timer t ~hz:t.profile.Costs.interrupt_clock_hz ~handler_work_us:0.6
         (fun _now -> ())
        : Interrupt.line)
  end

let interrupt_clock_running t = t.clock_running

let notify_deadline_changed t = if t.checker >= 0 then assign_checker t

let set_idle_poll t poll =
  t.idle_poll <- poll;
  if any_cpu_idle t then assign_checker t

let set_idle_deadline_fn t fn =
  t.idle_deadline_fn <- fn;
  if any_cpu_idle t then assign_checker t
