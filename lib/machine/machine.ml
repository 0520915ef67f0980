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
  check_span : Time_ns.span;  (* the profile's [softtimer_check_us] *)
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
(* DEAD001 here and below: per-CPU accounting the tests check. *)
let[@lint.allow "DEAD001"] cpu t = t.cpus.(0)
let[@lint.allow "DEAD001"] cpu_count t = Array.length t.cpus

let[@lint.allow "DEAD001"] nth_cpu t i =
  if i < 0 || i >= Array.length t.cpus then invalid_arg "Machine.nth_cpu: bad index";
  t.cpus.(i)

let any_cpu_idle t = Array.exists Fun.id t.idle

let[@lint.allow "DEAD001"] total_busy_ns t =
  Array.fold_left (fun acc c -> Time_ns.(acc + Cpu.busy_ns c)) 0L t.cpus

let checking_cpu t = if t.checker < 0 then None else Some t.checker
let profile t = t.profile

let interrupts t =
  match t.intc with Some i -> i | None -> assert false

let set_locality t l =
  t.locality <- l;
  Interrupt.set_locality (interrupts t) l

let fire_trigger t kind =
  let now = Engine.now_i t.engine in
  incr t.counts.(kind_index kind);
  if Trace.on () then Trace.trigger ~at:now (Trigger.name kind);
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
   they are rejected before it.  HOT002: fixed work comes here once,
   where it is defined; per quantum, only work given as a float does
   (drawn work, and [submit_quantum]'s callers). *)
let[@inline] [@lint.allow "HOT002"] ns_of_work_us ~what us =
  if not (Float.is_finite us) then invalid_arg what;
  Float.to_int (Float.round ((if us > 0.0 then us else 0.0) *. 1e3))

(* A quantum's work in int ns: [work_us], plus the trigger-state check
   surcharge when [checked], rounded once.  Each branch converts on its
   own: joined into one float, the sum would be boxed to match
   [work_us]. *)
let[@inline] quantum_ns t ~what ~checked work_us =
  if checked then ns_of_work_us ~what (work_us +. t.profile.Costs.softtimer_check_us)
  else ns_of_work_us ~what work_us

let work_ns t ~checked work_us =
  quantum_ns t ~what:"Machine.work_ns: non-finite work" ~checked work_us

let submit_what = "Machine.submit_quantum: non-finite work"

(* Whether the quantum ends in a trigger state that runs the check hook. *)
let[@inline] wants_check t trigger = Option.is_some trigger && Option.is_some t.check_hook

let submit_ns t ~cpu ~attr ~klass ~prio ~checked ~work ~trigger cb =
  let attr =
    (* Split the trigger-state check surcharge out of the quantum so it
       shows up under softtimer;check rather than inflating the work's
       own category.  Only allocate the seq when profiling is live. *)
    if checked && Profile.enabled () then
      let base = match attr with Some a -> a | None -> Cpu.default_attr prio in
      Some (Profile.seq [ (check_attr, t.check_span) ] ~tail:base) [@lint.allow "ALLOC002"]
    else attr
  in
  Cpu.submit t.cpus.(cpu) ?attr ?klass ~prio ~work ~trigger cb

(* A quantum that ends in no trigger state is never checked. *)
let[@hot] submit_work_ns t ?(cpu = 0) ?attr ?klass ~prio ~work_ns cb =
  if cpu < 0 || cpu >= Array.length t.cpus then invalid_arg "Machine.submit_quantum: bad cpu";
  Cpu.submit t.cpus.(cpu) ?attr ?klass ~prio ~work:work_ns ~trigger:None cb

let[@hot] submit_quantum t ?(cpu = 0) ?attr ?klass ~prio ~work_us ~trigger cb =
  let checked = wants_check t trigger in
  let work = quantum_ns t ~what:submit_what ~checked work_us in
  if Option.is_none trigger then submit_work_ns t ~cpu ?attr ?klass ~prio ~work_ns:work cb
  else if cpu < 0 || cpu >= Array.length t.cpus then
    invalid_arg "Machine.submit_quantum: bad cpu"
  else submit_ns t ~cpu ~attr ~klass ~prio ~checked ~work ~trigger cb

(* Fixed work, converted where it was defined: the hook attached now
   picks which of the two roundings the quantum charges. *)
let[@hot] submit_fixed_ns t ?attr ~prio ~work_ns ~checked_ns ~trigger cb =
  let checked = wants_check t trigger in
  submit_ns t ~cpu:0 ~attr ~klass:None ~prio ~checked
    ~work:(if checked then checked_ns else work_ns)
    ~trigger cb

(* The work is read from the array here, so no float crosses a call. *)
let[@hot] submit_quantum_at t ?attr ~prio works i ~trigger cb =
  let checked = wants_check t trigger in
  submit_ns t ~cpu:0 ~attr ~klass:None ~prio ~checked
    ~work:(quantum_ns t ~what:submit_what ~checked works.(i))
    ~trigger cb

let interrupt_line t ~name ~source ?latch_depth ?spl_blockable ?cpu ?(handler_work_us = 0.0)
    ~handler () =
  Interrupt.line (interrupts t) ~name ~source ?latch_depth ?spl_blockable ?cpu ~handler
    ~handler_work_ns:
      (ns_of_work_us ~what:"Machine.interrupt_line: non-finite work" handler_work_us)
    ()

let start_spl_sections t ?rate_per_sec ?duration_us ~seed () =
  Interrupt.start_spl_sections (interrupts t) ~rng:(Prng.create ~seed) ?rate_per_sec
    ?duration_us ()

let raise_irq t ln = Interrupt.raise_irq (interrupts t) ln

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
      check_span = Time_ns.of_us profile.Costs.softtimer_check_us;
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

let[@hot] periodic_tick t ln ~period_i kind =
  ignore (Interrupt.raise_irq (interrupts t) ln : bool);
  Engine.post_after_i t.engine period_i kind 0

let add_periodic_timer t ~hz ?(handler_work_us = 0.0) handler =
  if hz <= 0.0 then invalid_arg "Machine.add_periodic_timer: hz must be positive";
  if not (Float.is_finite handler_work_us) then
    invalid_arg "Machine.add_periodic_timer: non-finite work";
  let ln =
    (* A fast-interrupt handler: serviced even inside spl sections, like
       the paper's null-handler measurement timer (Â§5.1). *)
    interrupt_line t ~name:(Printf.sprintf "timer-%.0fHz" hz) ~source:Trigger.Clock_tick
      ~latch_depth:1 ~handler_work_us ~handler ()
  in
  let period_i = Time_ns.to_int (Time_ns.of_sec (1.0 /. hz)) in
  let kind = ref Engine.null_kind in
  kind :=
    Engine.register t.engine ~name:"machine.periodic_tick" (fun _ ->
        periodic_tick t ln ~period_i !kind);
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

let[@lint.allow "DEAD001"] interrupt_clock_running t = t.clock_running

let notify_deadline_changed t ~due =
  if t.checker >= 0 then
    match t.idle_deadline_fn with
    | Some next_deadline when Int.equal (next_deadline ()) due -> assign_checker t
    | _ -> ()

let set_idle_poll t poll =
  t.idle_poll <- poll;
  if any_cpu_idle t then assign_checker t

let set_idle_deadline_fn t fn =
  t.idle_deadline_fn <- fn;
  if any_cpu_idle t then assign_checker t
