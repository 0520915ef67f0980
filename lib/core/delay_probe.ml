module Gap_recorder = struct
  type t = {
    machine : Machine.t;
    included : Trigger.kind -> bool;
    record_series : bool;
    sample : Stats.Sample.t;
    series : Series.t;
    counts : (Trigger.kind * int ref) list;
    mutable last : Time_ns.t option;
    mutable total : int;
  }

  let attach ?include_kinds ?(exclude_kinds = []) ?(record_series = false) machine =
    let included kind =
      (match include_kinds with
      | None -> true
      | Some kinds -> List.exists (Trigger.equal kind) kinds)
      && not (List.exists (Trigger.equal kind) exclude_kinds)
    in
    let t =
      {
        machine;
        included;
        record_series;
        sample = Stats.Sample.create ();
        series = Series.create ();
        counts = List.map (fun k -> (k, ref 0)) Trigger.all;
        last = None;
        total = 0;
      }
    in
    Machine.add_observer machine (fun kind now ->
        if t.included kind then begin
          let now = Time_ns.of_ns now in
          incr (List.assq kind t.counts);
          t.total <- t.total + 1;
          (match t.last with
          | Some prev ->
            let gap_us = Time_ns.to_us Time_ns.(now - prev) in
            Stats.Sample.add t.sample gap_us;
            if t.record_series then Series.add t.series now gap_us
          | None -> ());
          t.last <- Some now
        end);
    t

  let sample t = t.sample
  let series t = t.series
  let count t kind = !(List.assq kind t.counts)
  let total t = t.total

  let source_fractions t =
    let counted = List.fold_left (fun acc k -> acc + count t k) 0 Trigger.table2_sources in
    List.map
      (fun k ->
        let f = if counted = 0 then 0.0 else float_of_int (count t k) /. float_of_int counted in
        (k, f))
      Trigger.table2_sources

  let reset_clock t = t.last <- None
end

module Event_delay = struct
  type t = {
    st : Softtimer.t;
    ticks : int64;
    delays : Stats.Sample.t;
    inter : Stats.Sample.t;
    mutable kind : Softtimer.kind;
    mutable last_fire : Time_ns.t option;
    mutable running : bool;
    mutable fired : int;
  }

  (* The event's payload is its due instant in ns, computed at schedule
     time from the same measurement tick the facility uses. *)
  let arm t =
    if t.running then begin
      let st = t.st in
      let sched_tick = Softtimer.measure_time st in
      let due_tick = Int64.add sched_tick (Int64.add t.ticks 1L) in
      let tick_ns = 1e9 /. Int64.to_float (Softtimer.measure_resolution st) in
      let due_ns = Float.to_int (Float.ceil (Int64.to_float due_tick *. tick_ns)) in
      ignore (Softtimer.schedule_soft_event st ~ticks:t.ticks t.kind due_ns : Softtimer.handle)
    end

  let on_fire t now_i due_ns =
    let now = Time_ns.of_ns now_i in
    t.fired <- t.fired + 1;
    Stats.Sample.add t.delays (Time_ns.to_us (Time_ns.of_ns (now_i - due_ns)));
    (match t.last_fire with
    | Some prev -> Stats.Sample.add t.inter (Time_ns.to_us Time_ns.(now - prev))
    | None -> ());
    t.last_fire <- Some now;
    arm t

  let start_periodic st ~ticks =
    let t =
      {
        st;
        ticks;
        delays = Stats.Sample.create ();
        inter = Stats.Sample.create ();
        kind = Softtimer.null_kind;
        last_fire = None;
        running = true;
        fired = 0;
      }
    in
    t.kind <- Softtimer.register st ~name:"delay_probe" (on_fire t);
    arm t;
    t

  let stop t = t.running <- false
  let delays t = t.delays
  let inter_firing t = t.inter
  let fired t = t.fired
end
