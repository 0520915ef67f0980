let m_checks = Metrics.counter "softtimer.checks"
let m_fired = Metrics.counter "softtimer.fired"
let m_scheduled = Metrics.counter "softtimer.scheduled"
let m_cancelled = Metrics.counter "softtimer.cancelled"
let h_fire_delay = Metrics.histogram "softtimer.fire_delay_us"

(* A pending event is one row of the facility's slab: three ints (the
   trace identity, the kind, the payload) and, in the slab's value
   array, the store's own handle for it.  The store holds the row as
   its payload, and the facility's handle is the slab's handle of the
   row, so the schedule/check/fire cycle allocates no record and no
   handle box. *)
let o_id = 0
let o_kind = 1
let o_payload = 2
let stride = 6  (* the slab's generation and location sit at 4 and 5 *)
let live = 0  (* the location of a pending row: anything but [Slab.loc_free] *)

type kind = int
type handle = int

let null_kind = -1
let no_handle = -1

(* One store instance at payload [int] (a slab row): the chosen
   [Timer_store.S] together with the state [attach] created and the slab
   whose value array holds the store's handles, the handle type left
   abstract.  Operations go straight to the store's own functions, so
   nothing is allocated per call to pack them. *)
module type STORE = sig
  type s
  type h

  val s : s
  val slab : h Slab.t
  val name : string
  val schedule : s -> at:int -> int -> h
  val cancel : s -> h -> unit
  val rearm : s -> h -> at:int -> bool
  val pending : s -> int
  val resident : s -> int
  val next_deadline : s -> int
  val handle_deadline : s -> h -> int

  val fire_due :
    s -> ?prefetch:(int -> unit) -> now:int -> limit:int -> (int -> int -> unit) -> Fire_outcome.t
end

type store = Store : (module STORE with type h = 'h) -> store

let instance (module M : Timer_store.S) ~tick =
  let module I = struct
    include M

    type s = int M.t
    type h = int M.handle

    let s : s = M.create ~tick ()
    let slab : h Slab.t = Slab.create ~stride
  end in
  Store (module I : STORE with type h = I.h)

type t = {
  machine : Machine.t;
  store : store;
  store_slots : int;  (* slot figure reported to the sanitizer *)
  measure_hz : int64;
  intr_hz : int64;
  ns_per_tick : float;
  check_budget : int;  (* max handler dispatches per trigger-state check *)
  fire_work_us : float;  (* dispatch cost charged per fire (boxed once, here) *)
  mutable fire_now : int;  (* [now] of the check in progress, ns *)
  mutable fire_kind : Trigger.kind;  (* its trigger state, an immediate *)
  mutable on_fire : int -> int -> unit;  (* [fire t slab], built once *)
  mutable next_id : int;  (* timer identity carried by the trace events *)
  mutable handlers : (int -> int -> unit) array;  (* indexed by kind *)
  mutable names : string array;
  mutable kind_fired : int array;
  mutable n_kinds : int;
  fired : int ref;
  checks : int ref;
  scheduled : int ref;
  cancelled : int ref;
  fire_delays : Hdr.t;  (* µs; the context's [softtimer.fire_delay_us] *)
  mutable attached : bool;
  mutable record_delays : bool;
  delays : Stats.Sample.t;
}

let next_deadline t =
  match t.store with
  | Store inst ->
    let module S = (val inst) in
    S.next_deadline S.s

let pending t =
  match t.store with
  | Store inst ->
    let module S = (val inst) in
    S.pending S.s

let resident t =
  match t.store with
  | Store inst ->
    let module S = (val inst) in
    S.resident S.s

(* Process-wide default store, consulted when [attach] is not given an
   explicit one.  Lets the CLI (or a test) swap the facility's pending
   set without threading a parameter through every experiment.
   RACE002: written only from the main domain before any parallel
   fan-out (CLI argument parsing); experiment workers read it at
   attach time and never write it. *)
let default_store : (module Timer_store.S) option ref =
  ref None
[@@lint.allow "RACE002"]

let set_default_store s = default_store := s

(* Process-wide check budget (paper §4.2 batching discussion): at most
   this many handlers dispatch per trigger-state check; the remainder of
   a due batch waits for the next trigger state or the backup interrupt.
   [Atomic] rather than [ref]: workers of a parallel sweep may attach
   while the main domain still holds the CLI value — a plain ref would
   be a data race under the lint's RACE rules. *)
let default_check_budget = Atomic.make max_int

let set_default_check_budget n =
  if n < 1 then invalid_arg "Softtimer.set_default_check_budget: budget must be >= 1";
  Atomic.set default_check_budget n

let machine t = t.machine
let measure_resolution t = t.measure_hz
let interrupt_clock_resolution t = t.intr_hz
let x_ratio t = Int64.div t.measure_hz t.intr_hz

(* Measurement-clock arithmetic stays in unboxed floats and Int64
   temporaries; the deadline handed to the store is an int. *)
let[@inline] measure_time t =
  Int64.of_float (float_of_int (Engine.now_i (Machine.engine t.machine)) /. t.ns_per_tick)

(* The instant of the first measurement tick at least [ticks + 1] ticks
   after now, in int ns; a tick boundary maps to the first instant at
   or after it (round up).  Both steps saturate: the tick at
   [Int64.max_int], the instant at [max_int] (0x1p62 is [max_int + 1]),
   so a huge [ticks] lands at the end of time, never wrapped into the
   past. *)
let[@inline] due_after t ticks =
  let now_tick = measure_time t in
  let tick =
    if Int64.compare ticks (Int64.sub Int64.max_int (Int64.succ now_tick)) > 0 then Int64.max_int
    else Int64.add now_tick (Int64.succ ticks)
  in
  let due_f = Float.ceil (Int64.to_float tick *. t.ns_per_tick) in
  if due_f >= 0x1p62 then max_int else Float.to_int due_f

let a_fire = Profile.intern [ "softtimer"; "fire" ]
let fire_attr = Some a_fire
let klass_timer = Some Cpu.klass_timer

(* One dispatch of a check's batch: read the event's row and free it,
   so that its handle is stale and the row reusable inside its own
   handler, charge the dispatch cost (a procedure call) to the CPU and
   run the kind's handler inline.  The check in progress left its [now]
   and trigger source in [t].  The delay is one int subtraction, recorded
   without boxing; the profiler sees it boxed (ALLOC003) only when
   enabled. *)
let[@hot] fire t slab due row =
  let b = row * stride in
  let id = slab.Slab.rows.(b + o_id)
  and kind = slab.Slab.rows.(b + o_kind)
  and payload = slab.Slab.rows.(b + o_payload) in
  Slab.free slab row;
  let now = t.fire_now in
  let delay = now - due in
  incr t.fired;
  t.kind_fired.(kind) <- t.kind_fired.(kind) + 1;
  Trace.soft_fire ~at:now ~id ~due;
  if Profile.enabled () then
    Profile.dispatch ~source:(Trigger.name t.fire_kind)
      ~delay:(Int64.of_int delay [@lint.allow "ALLOC003"]);
  if t.record_delays then Stats.Sample.add t.delays (float_of_int delay /. 1e3);
  Hdr.record_us_of_ns t.fire_delays delay;
  Machine.submit_quantum t.machine
    ?attr:(if Profile.enabled () then fire_attr else None)
    ~prio:Cpu.prio_intr ?klass:klass_timer ~work_us:t.fire_work_us ~trigger:None ignore;
  t.handlers.(kind) now payload

(* The per-trigger-state check: compare the cached earliest deadline with
   now and fire anything due.  [kind] is the trigger state that performed
   this check — the profiler's per-trigger dispatch breakdown (paper
   Table 1) records which state fired each event and at what latency.  A
   handler may reach a trigger state of its own, so a nested check saves
   and restores the outer one's [fire_now]/[fire_kind].  Time is int
   ns throughout, so a check allocates nothing for its [now] or for the
   deadlines it fires. *)
let[@hot] check t kind now_i =
  incr t.checks;
  let earliest = next_deadline t in
  if earliest <= now_i then begin
    let outer_now = t.fire_now and outer_kind = t.fire_kind in
    t.fire_now <- now_i;
    t.fire_kind <- kind;
    let outcome =
      match t.store with
      | Store inst -> (
        let module S = (val inst) in
        match S.fire_due S.s ~now:now_i ~limit:t.check_budget t.on_fire with
        | o -> o
        | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          t.fire_now <- outer_now;
          t.fire_kind <- outer_kind;
          Printexc.raise_with_backtrace exn bt)
    in
    t.fire_now <- outer_now;
    t.fire_kind <- outer_kind;
    (* One record per check that found work: the audit uses
       [scanned > fired] to see that a check reached the store but a
       budget kept it from this timer.  Emitted after the batch's
       [Soft_fire]s — same timestamp, dispatch order. *)
    let scanned = Fire_outcome.scanned outcome in
    if scanned > 0 then
      Trace.soft_check ~at:now_i ~src:(Trigger.name kind) ~scanned
        ~fired:(Fire_outcome.fired outcome)
  end

let attach ?store ?(wheel_tick = Time_ns.of_us 10.0) ?(wheel_slots = 512) machine =
  if Machine.check_hook_attached machine then
    invalid_arg "Softtimer.attach: a facility is already attached to this machine";
  let profile = Machine.profile machine in
  let store_mod =
    match store with
    | Some s -> s
    | None -> (
      match !default_store with
      | Some s -> s
      | None -> Timer_store.wheel ~slots:wheel_slots ())
  in
  let m = Metrics.current () in
  let t =
    {
      machine;
      store = instance store_mod ~tick:(Time_ns.to_int wheel_tick);
      store_slots = wheel_slots;
      measure_hz = Int64.of_float (profile.Costs.cpu_mhz *. 1e6);
      intr_hz = Int64.of_float profile.Costs.interrupt_clock_hz;
      ns_per_tick = 1e9 /. (profile.Costs.cpu_mhz *. 1e6);
      check_budget = Atomic.get default_check_budget;
      fire_work_us = profile.Costs.softtimer_fire_us;
      fire_now = 0;
      fire_kind = Trigger.Idle;
      on_fire = (fun _ _ -> ());
      next_id = 0;
      handlers = [||];
      names = [||];
      kind_fired = [||];
      n_kinds = 0;
      fired = Metrics.cell m m_fired;
      checks = Metrics.cell m m_checks;
      scheduled = Metrics.cell m m_scheduled;
      cancelled = Metrics.cell m m_cancelled;
      fire_delays = Metrics.hdr m h_fire_delay;
      attached = true;
      record_delays = false;
      delays = Stats.Sample.create ();
    }
  in
  (t.on_fire <-
     match t.store with
     | Store inst ->
       let module S = (val inst) in
       fun due row -> fire t S.slab due row);
  Machine.set_check_hook machine (Some (check t));
  Machine.set_idle_deadline_fn machine (Some (fun () -> next_deadline t));
  Machine.start_interrupt_clock machine;
  (* Pull-style store stats of the last facility attached in this
     context: the sanitizer (lib/check) reads these to assert the
     residency bound during runs.  The slots figure is the configured
     wheel size; every store's compaction floor is at or below it, so
     the sanitizer's [resident <= 2 * max pending slots] invariant is
     store-independent. *)
  Metrics.probe m "softtimer.wheel_resident" (fun () -> float_of_int (resident t));
  Metrics.probe m "softtimer.wheel_pending" (fun () -> float_of_int (pending t));
  Metrics.probe m "softtimer.wheel_slots" (fun () -> float_of_int t.store_slots);
  t

let detach t =
  if t.attached then begin
    t.attached <- false;
    Machine.set_check_hook t.machine None;
    Machine.set_idle_deadline_fn t.machine None
  end

let store_name t =
  match t.store with
  | Store inst ->
    let module S = (val inst) in
    S.name

(* If this event became the earliest, an idle checking CPU may be armed
   for a later (or no) deadline: wake it up for this one. *)
let notify_if_earliest t due =
  if t.attached && Int.equal (next_deadline t) due then Machine.notify_deadline_changed t.machine

let grown a n fill =
  let b = Array.make (if n = 0 then 8 else 2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let register t ~name handler =
  let k = t.n_kinds in
  if k = Array.length t.handlers then begin
    t.handlers <- grown t.handlers k handler;
    t.names <- grown t.names k name;
    t.kind_fired <- grown t.kind_fired k 0
  end;
  t.handlers.(k) <- handler;
  t.names.(k) <- name;
  t.n_kinds <- k + 1;
  k

let kind_fires t = List.init t.n_kinds (fun k -> (t.names.(k), t.kind_fired.(k)))

(* Take a row for the event and hand it to the store as the payload.
   The store schedules first, so a store that fails leaves the slab
   untouched; the row is the one [Slab.next_row] announced. *)
let schedule_due t due kind payload =
  if kind < 0 || kind >= t.n_kinds then invalid_arg "Softtimer.schedule_soft_event: unknown kind";
  let id = t.next_id in
  t.next_id <- id + 1;
  incr t.scheduled;
  Trace.soft_sched ~at:(Engine.now_i (Machine.engine t.machine)) ~id ~due;
  match t.store with
  | Store inst ->
    let module S = (val inst) in
    let slab = S.slab in
    let sh = S.schedule S.s ~at:due (Slab.next_row slab) in
    let row = Slab.alloc slab sh in
    let b = row * stride in
    slab.Slab.rows.(b + o_id) <- id;
    slab.Slab.rows.(b + o_kind) <- kind;
    slab.Slab.rows.(b + o_payload) <- payload;
    slab.Slab.rows.(b + Slab.loc) <- live;
    notify_if_earliest t due;
    Slab.handle slab row

let schedule_soft_event t ~ticks kind payload =
  if Int64.compare ticks 0L < 0 then
    invalid_arg "Softtimer.schedule_soft_event: negative ticks";
  (* Fires once measure_time > sched + ticks, i.e. at tick sched+ticks+1. *)
  schedule_due t (due_after t ticks) kind payload

(* Whole measurement ticks covering [span], saturating at
   [Int64.max_int] (0x1p63) rather than wrapping negative. *)
let schedule_after t span kind payload =
  let ticks_f = Float.ceil (Int64.to_float (Time_ns.max span 0L) /. t.ns_per_tick) in
  let ticks = if ticks_f >= 0x1p63 then Int64.max_int else Int64.of_float ticks_f in
  schedule_due t (due_after t ticks) kind payload

(* A stale handle (fired, cancelled, or [no_handle]) names no live
   row: [Slab.valid] checks the generation the handle was issued
   with. *)
let cancel t h =
  match t.store with
  | Store inst ->
    let module S = (val inst) in
    let slab = S.slab in
    if Slab.valid slab h then begin
      let row = Slab.row_of h in
      let sh = slab.Slab.vals.(row) in
      incr t.cancelled;
      Trace.soft_cancel
        ~at:(Engine.now_i (Machine.engine t.machine))
        ~id:slab.Slab.rows.((row * stride) + o_id)
        ~due:(S.handle_deadline S.s sh);
      S.cancel S.s sh;
      Slab.free slab row
    end

let rearm t h ~ticks =
  if Int64.compare ticks 0L < 0 then invalid_arg "Softtimer.rearm: negative ticks";
  match t.store with
  | Store inst ->
    let module S = (val inst) in
    let slab = S.slab in
    if not (Slab.valid slab h) then false
    else begin
      let row = Slab.row_of h in
      let sh = slab.Slab.vals.(row) in
      let id = slab.Slab.rows.((row * stride) + o_id) in
      let at = Engine.now_i (Machine.engine t.machine) in
      Trace.soft_cancel ~at ~id ~due:(S.handle_deadline S.s sh);
      let due = due_after t ticks in
      (* A re-arm is cancel + schedule with the handle kept; the trace
         records it as exactly that pair — same id, so the audit keeps
         one causal chain per handle — and digests are independent of
         whether a client re-arms or reschedules. *)
      Trace.soft_sched ~at ~id ~due;
      incr t.scheduled;
      let moved = S.rearm S.s sh ~at:due in
      if moved then notify_if_earliest t due;
      moved
    end

let wheel_stats t = (resident t, pending t, t.store_slots)
let fired t = !(t.fired)
let checks t = !(t.checks)
let set_record_delays t b = t.record_delays <- b
let delays t = t.delays
