(* DEAD001: safety code; test_check drives these checks directly. *)
[@@@lint.allow "DEAD001"]

type rule = Causality | Early_fire | Overdue | Residency | Counter_monotone

let rule_name = function
  | Causality -> "CAUSALITY"
  | Early_fire -> "EARLY_FIRE"
  | Overdue -> "OVERDUE"
  | Residency -> "WHEEL_RESIDENCY"
  | Counter_monotone -> "COUNTER_MONOTONE"

type violation = { at : Time_ns.t; rule : rule; detail : string }

exception Violation of violation

type t = {
  fail_fast : bool;
  period : Time_ns.span;  (* backup hard-clock period *)
  overdue_periods : float;
  counter_check_every : int;
  max_reported : int;
  registry : Metrics.t option;  (* [None]: the scanning domain's context *)
  mutable last_at : Time_ns.t;
  mutable max_irq : Time_ns.span;  (* longest interrupt dispatch seen *)
  mutable events_seen : int;
  mutable installed : bool;
  counters : (string, int) Hashtbl.t;  (* last snapshot, per counter name *)
  mutable violations_rev : violation list;  (* newest first, bounded *)
  mutable stored : int;
  mutable count : int;
}

let create ?(fail_fast = false) ?(hard_clock_hz = 1000.0) ?(overdue_periods = 2.0)
    ?(counter_check_every = 4096) ?(max_reported = 32) ?registry () =
  if hard_clock_hz <= 0.0 then invalid_arg "Sanitizer.create: hard_clock_hz must be positive";
  if overdue_periods <= 0.0 then
    invalid_arg "Sanitizer.create: overdue_periods must be positive";
  if counter_check_every <= 0 then
    invalid_arg "Sanitizer.create: counter_check_every must be positive";
  if max_reported <= 0 then invalid_arg "Sanitizer.create: max_reported must be positive";
  {
    fail_fast;
    period = Time_ns.of_sec (1.0 /. hard_clock_hz);
    overdue_periods;
    counter_check_every;
    max_reported;
    registry;
    last_at = Time_ns.zero;
    max_irq = 0L;
    events_seen = 0;
    installed = false;
    counters = Hashtbl.create 64;
    violations_rev = [];
    stored = 0;
    count = 0;
  }

let violation_count t = t.count
let ok t = t.count = 0
let events_seen t = t.events_seen
let violations t = List.rev t.violations_rev

let violate t ~at rule detail =
  let v = { at; rule; detail } in
  t.count <- t.count + 1;
  if t.stored < t.max_reported then begin
    t.violations_rev <- v :: t.violations_rev;
    t.stored <- t.stored + 1
  end;
  if t.fail_fast then raise (Violation v)

let check_wheel t ~at ~resident ~pending ~slots =
  let bound = 2 * Stdlib.max pending slots in
  if resident > bound then
    violate t ~at Residency
      (Printf.sprintf "wheel resident=%d exceeds 2*max(pending=%d, slots=%d)=%d" resident
         pending slots bound)

(* Counter / probe scan.  Metrics.iter visits in sorted name order and
   evaluates probes; we piggyback the wheel-residency check on the
   softtimer.wheel_* probes Softtimer registers. *)
let scan_registry t ~at =
  let resident = ref None and pending = ref None and slots = ref None in
  let registry = match t.registry with Some r -> r | None -> Metrics.current () in
  Metrics.iter registry (fun name v ->
      match v with
      | Metrics.Counter c ->
        if c < 0 then
          violate t ~at Counter_monotone (Printf.sprintf "counter %s is negative (%d)" name c);
        (match Hashtbl.find_opt t.counters name with
        | Some prev when c < prev ->
          violate t ~at Counter_monotone
            (Printf.sprintf "counter %s decreased (%d -> %d)" name prev c)
        | _ -> ());
        Hashtbl.replace t.counters name c
      | Metrics.Probe p -> (
        match name with
        | "softtimer.wheel_resident" -> resident := Some (int_of_float p)
        | "softtimer.wheel_pending" -> pending := Some (int_of_float p)
        | "softtimer.wheel_slots" -> slots := Some (int_of_float p)
        | _ -> ())
      | Metrics.Histogram _ -> ());
  match (!resident, !pending, !slots) with
  | Some r, Some p, Some s -> check_wheel t ~at ~resident:r ~pending:p ~slots:s
  | _ -> ()

let overdue_bound t = Time_ns.(Time_ns.scale t.period t.overdue_periods + t.max_irq)

let observe t ~at ev =
  t.events_seen <- t.events_seen + 1;
  (match ev with
  | Trace.Mark m when String.equal m Trace.sim_start_mark ->
    (* A fresh simulation: its clock legitimately restarts. *)
    t.last_at <- at
  | _ ->
    if Time_ns.(at < t.last_at) then
      violate t ~at Causality
        (Printf.sprintf "time moved backwards: %s after %s (no %s mark)"
           (Time_ns.to_string at) (Time_ns.to_string t.last_at) Trace.sim_start_mark)
    else t.last_at <- at);
  (match ev with
  | Trace.Soft_fire { due; delay; _ } ->
    if Time_ns.(at < due) then
      violate t ~at Early_fire
        (Printf.sprintf "soft timer fired %s before its deadline %s"
           (Time_ns.to_string Time_ns.(due - at))
           (Time_ns.to_string due))
    else begin
      let bound = overdue_bound t in
      if Time_ns.(delay > bound) then
        violate t ~at Overdue
          (Printf.sprintf
             "soft timer fired %s after its deadline (bound: %.1f hard-clock periods + max \
              irq = %s)"
             (Time_ns.to_string delay) t.overdue_periods (Time_ns.to_string bound))
    end
  | Trace.Irq { dur; _ } -> t.max_irq <- Time_ns.max t.max_irq dur
  | _ -> ());
  if t.events_seen mod t.counter_check_every = 0 then scan_registry t ~at

let install t =
  t.installed <- true;
  Trace.set_tap (Some (fun ~at ev -> observe t ~at ev))

let uninstall t =
  if t.installed then begin
    t.installed <- false;
    Trace.set_tap None;
    scan_registry t ~at:t.last_at
  end

let report t =
  let b = Buffer.create 256 in
  if ok t then
    Buffer.add_string b
      (Printf.sprintf "sanitizer: OK — %d events checked, 0 violations\n" t.events_seen)
  else begin
    Buffer.add_string b
      (Printf.sprintf "sanitizer: %d violation(s) in %d events%s\n" t.count t.events_seen
         (if t.count > t.stored then Printf.sprintf " (first %d shown)" t.stored else ""));
    List.iter
      (fun v ->
        Buffer.add_string b
          (Printf.sprintf "  [%s] at %s: %s\n" (rule_name v.rule) (Time_ns.to_string v.at)
             v.detail))
      (violations t)
  end;
  Buffer.contents b
