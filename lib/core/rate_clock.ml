let m_sends = Metrics.counter "rate_clock.sends"
let m_trains = Metrics.counter "rate_clock.trains"
let interval_metric = Metrics.histogram "rate_clock.interval_us"

(* A catch-up send: soft-timer dispatch latency pushed us past the ideal
   send time, so the next interval was clamped to min_interval — the
   burstiness the paper's Figure 5 jitter discussion is about. *)
let e_catch_up = Profile.intern [ "rate_clock"; "catch_up_send" ]

(* The default interval histogram is shared by every clock that does not
   opt into its own: an Hdr costs ~a KB of buckets, and a million paced
   flows must not carry a million of them (the per-flow copy used to
   cost GBs at that scale).  Clocks whose statistics must be read in
   isolation pass [~intervals:(Hdr.create ~lowest:0.01 ())]. *)
(* RACE002: every default clock in the process records here, including
   clocks inside parallel jobs ([Paced_sender]'s default clock under
   [all --jobs N]), so concurrent records can be lost.  No table,
   digest or metric reads it: what reaches output is a private
   [~intervals] or the [rate_clock.interval_us] metric, whose Hdr
   belongs to the creating domain's (or job's) metrics context. *)
let cohort_intervals = Hdr.create ~lowest:0.01 () [@@lint.allow "RACE002"]

(* Times are integer nanoseconds throughout, so a send boxes nothing. *)
type t = {
  st : Softtimer.t;
  target : int;
  min_interval : int;
  send : int -> bool;
  mutable active : bool;
  mutable train_start : int;
  mutable sent_in_train : int;
  mutable last_send : int;
  sends : int ref;
  trains : int ref;
  mutable kind : Softtimer.kind;  (* this clock's soft event *)
  mutable outstanding : Softtimer.handle;
  intervals : Hdr.t;
      (* Constant-memory: a clock sends once per interval for the whole
         run, so retaining every gap (the old [Stats.Sample.t]) grew
         without bound — one float per packet, forever.  Shared with
         the cohort by default; see [cohort_intervals]. *)
  interval_us : Hdr.t;  (* the context's [rate_clock.interval_us] *)
}

let rec on_event t now =
  if t.active then begin
    if t.send now then begin
      if t.sent_in_train > 0 then begin
        let gap = now - t.last_send in
        Hdr.record_us_of_ns t.intervals gap;
        Hdr.record_us_of_ns t.interval_us gap
      end;
      t.last_send <- now;
      t.sent_in_train <- t.sent_in_train + 1;
      incr t.sends;
      Trace.rbc_send ~at:now;
      schedule_next t now
    end
    else
      (* Nothing pending: the train ends; a later [kick] starts a new
         train with a fresh rate average. *)
      t.active <- false
  end

(* The next packet's ideal send time is train_start + n * target; when we
   are already past it (soft-timer delays accumulated), catch up at the
   maximal allowable burst rate. *)
and schedule_next t now =
  let ideal = t.train_start + (t.target * t.sent_in_train) in
  let delay = ideal - now in
  if delay < t.min_interval then Profile.event e_catch_up;
  let delay = Int.max delay t.min_interval in
  t.outstanding <- Softtimer.schedule_after_ns t.st delay t.kind 0

let create ?(intervals = cohort_intervals) st ~target_interval ~min_interval ~send () =
  if Time_ns.(min_interval <= 0L) || Time_ns.(min_interval > target_interval) then
    invalid_arg "Rate_clock.create: need 0 < min_interval <= target_interval";
  let m = Metrics.current () in
  let t =
    {
      st;
      target = Time_ns.to_int target_interval;
      min_interval = Time_ns.to_int min_interval;
      send;
      active = false;
      train_start = 0;
      sent_in_train = 0;
      last_send = 0;
      sends = Metrics.cell m m_sends;
      trains = Metrics.cell m m_trains;
      kind = Softtimer.null_kind;
      outstanding = Softtimer.no_handle;
      intervals;
      interval_us = Metrics.hdr m interval_metric;
    }
  in
  t.kind <- Softtimer.register st ~name:"rate_clock" (fun now _ -> on_event t now);
  t

let begin_train t =
  incr t.trains;
  t.active <- true;
  t.train_start <- Engine.now_i (Machine.engine (Softtimer.machine t.st));
  t.sent_in_train <- 0;
  (* First transmission at the first trigger state from now. *)
  t.outstanding <- Softtimer.schedule_soft_event t.st ~ticks:0L t.kind 0

let start t = if not t.active then begin_train t
(* DEAD001 here and below: clock control the pacing tests drive. *)
let[@lint.allow "DEAD001"] kick t = if not t.active then begin_train t

(* The handle of a fired event is stale, so cancelling it is a no-op. *)
let[@lint.allow "DEAD001"] stop t =
  t.active <- false;
  Softtimer.cancel t.st t.outstanding;
  t.outstanding <- Softtimer.no_handle

let[@lint.allow "DEAD001"] active t = t.active
let sends t = !(t.sends)
let intervals t = t.intervals

(* ------------------------------------------------------------------ *)
(* Million-flow pacing: flow-id-indexed rate clocks over one shared
   timer store.

   The closure-per-flow shape above is right for a handful of paced
   senders but wrong at datacenter-egress scale: a boxed record, a
   [send] closure, an optional handle and (formerly) a private Hdr per
   flow is hundreds of bytes of pointer-chased state, and a binary heap
   store underneath makes every send O(log n).  The pool keeps all flow
   state in parallel unboxed int arrays (struct-of-arrays, nanoseconds
   as native ints), drives whichever [Timer_store.S] it is built over
   with int deadlines, and uses the flow id itself as the timer
   payload, so with the pacing wheel's int handles the steady send →
   re-schedule cycle allocates nothing at all.

   Histograms are cohort-shared and sampled: one interval Hdr and one
   fire-delay Hdr serve the whole pool, fed every [stat_every]-th send
   per pool, keeping floats off the per-send path. *)

module Pool (M : Timer_store.S) = struct
  (* Per-flow state is one stride-8 row of a flat int array — eight
     fields, 64 bytes, exactly one cache line — rather than eight
     parallel arrays.  At a million flows the fire path is
     memory-latency-bound, and one line per flow instead of eight is
     the difference between flat and 4x per-send cost. *)
  let o_target = 0  (* ns *)
  let o_min_iv = 1  (* ns *)
  let o_train_start = 2  (* ns *)
  let o_sent = 3  (* sends in the current train; -1 = inactive *)
  let o_sends = 4  (* lifetime sends *)
  let o_last_send = 5  (* ns *)
  let o_next_at = 6  (* requested deadline of the pending send, ns *)
  let o_user = 7  (* caller scratch word, see [user] *)

  type pool = {
    store : int M.t;
    send : int -> bool;  (* flow id -> keep pacing? *)
    intervals : Hdr.t;
    interval_us : Hdr.t;  (* the context's [rate_clock.interval_us] *)
    delays : Hdr.t;  (* fire delay vs the requested (unquantized) deadline, µs *)
    stat_every : int;
    mutable stat_ctr : int;
    mutable cap : int;
    mutable n : int;
    mutable f : int array;  (* stride-8 rows, indexed [fid lsl 3 + o_*] *)
    mutable handles : int M.handle array;  (* seeded from the first schedule *)
    mutable total_sends : int;
    mutable catch_ups : int;
    mutable active_n : int;
    mutable now_cache : int;  (* ns, set by [check] for the fire callback *)
    mutable on_fire : int -> int -> unit;  (* preallocated, reused every check *)
    mutable on_pf : int -> unit;  (* prefetch hint handed to the store, see [check] *)
  }

  type t = pool

  let grow_to a len fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let reserve p =
    if p.n = p.cap then begin
      let cap = if p.cap = 0 then 64 else p.cap * 2 in
      p.f <- grow_to p.f (cap * 8) 0;
      if Array.length p.handles > 0 then p.handles <- grow_to p.handles cap p.handles.(0);
      p.cap <- cap
    end

  let set_handle p fid h =
    if Array.length p.handles = 0 then p.handles <- Array.make p.cap h;
    p.handles.(fid) <- h

  (* Record the sampled statistics for one fire.  Floats and Hdr bucket
     arithmetic live here, behind the [stat_every] gate, off the
     per-send int path.  [base] is the flow's row offset. *)
  let record_stats p base now_i =
    let last = p.f.(base + o_last_send) in
    if p.f.(base + o_sent) > 0 then begin
      let gap_us = float_of_int (now_i - last) /. 1_000.0 in
      Hdr.record p.intervals gap_us;
      Hdr.record p.interval_us gap_us
    end;
    let delay_us = float_of_int (now_i - p.f.(base + o_next_at)) /. 1_000.0 in
    Hdr.record p.delays delay_us

  (* Memory-warming hint for the store's batch dispatcher (the pacing
     wheel calls it a chunk ahead of the real callbacks): touch the
     flow's packed row so [fire]'s otherwise-serial DRAM miss at
     million-flow scale overlaps with its neighbours', and the handle
     slot so [fire]'s store to it upgrades a present line instead of
     filing an RFO miss in the store buffer.  May be called with a flow
     whose entry is then cancelled — pure loads, no observable
     effect. *)
  let[@inline] prefetch_flow p fid =
    ignore (Sys.opaque_identity p.f.(fid lsl 3));
    if Array.length p.handles > 0 then ignore (Sys.opaque_identity p.handles.(fid))

  (* One send for flow [fid]: the paper's rate-based clocking loop over
     packed SoA state.  The ideal time of send k is
     train_start + k * target; when dispatch latency has pushed us past
     it, catch up at the maximal burst rate (min_interval). *)
  let[@hot] fire p _at fid =
    let base = fid lsl 3 in
    if p.f.(base + o_sent) >= 0 then begin
      let now_i = p.now_cache in
      if p.send fid then begin
        p.stat_ctr <- p.stat_ctr + 1;
        if p.stat_ctr >= p.stat_every then begin
          p.stat_ctr <- 0;
          record_stats p base now_i
        end;
        p.f.(base + o_last_send) <- now_i;
        let sent = p.f.(base + o_sent) + 1 in
        p.f.(base + o_sent) <- sent;
        p.f.(base + o_sends) <- p.f.(base + o_sends) + 1;
        p.total_sends <- p.total_sends + 1;
        let ideal = p.f.(base + o_train_start) + (p.f.(base + o_target) * sent) in
        let floor = now_i + p.f.(base + o_min_iv) in
        let next_at =
          if ideal < floor then begin
            p.catch_ups <- p.catch_ups + 1;
            floor
          end
          else ideal
        in
        p.f.(base + o_next_at) <- next_at;
        set_handle p fid (M.schedule p.store ~at:next_at fid)
      end
      else begin
        (* Train over: idle until [kick]. *)
        p.f.(base + o_sent) <- -1;
        p.active_n <- p.active_n - 1
      end
    end

  let create ?(stat_every = 1) ?(intervals = cohort_intervals)
      ?(delays = Hdr.create ~lowest:0.01 ()) ~tick ~send () =
    if stat_every < 1 then invalid_arg "Rate_clock.Pool.create: stat_every < 1";
    let rec p =
      {
        store = M.create ~tick ();
        send;
        intervals;
        interval_us = Metrics.hdr (Metrics.current ()) interval_metric;
        delays;
        stat_every;
        stat_ctr = 0;
        cap = 0;
        n = 0;
        f = [||];
        handles = [||];
        total_sends = 0;
        catch_ups = 0;
        active_n = 0;
        now_cache = 0;
        on_fire = (fun at fid -> fire p at fid);
        on_pf = (fun fid -> prefetch_flow p fid);
      }
    in
    p

  let add p ~target_interval ~min_interval =
    if min_interval <= 0 || min_interval > target_interval then
      invalid_arg "Rate_clock.Pool.add: need 0 < min_interval <= target_interval";
    reserve p;
    let fid = p.n in
    p.n <- fid + 1;
    let base = fid lsl 3 in
    p.f.(base + o_target) <- target_interval;
    p.f.(base + o_min_iv) <- min_interval;
    p.f.(base + o_sent) <- -1;
    fid

  let[@lint.allow "DEAD001"] kick p fid ~now:now_i =
    let base = fid lsl 3 in
    if p.f.(base + o_sent) < 0 then begin
      p.active_n <- p.active_n + 1;
      p.f.(base + o_train_start) <- now_i;
      p.f.(base + o_sent) <- 0;
      p.f.(base + o_next_at) <- now_i;
      (* First transmission due immediately: it fires on the next check,
         the pool's trigger state. *)
      set_handle p fid (M.schedule p.store ~at:now_i fid)
    end

  let start = kick

  let[@lint.allow "DEAD001"] stop p fid =
    let base = fid lsl 3 in
    if p.f.(base + o_sent) >= 0 then begin
      p.f.(base + o_sent) <- -1;
      p.active_n <- p.active_n - 1;
      M.cancel p.store p.handles.(fid)
    end

  (* The scratch word shares the flow's packed row — by the time the
     [send] callback reads it, [fire] has already pulled that cache
     line, so per-send caller state costs no extra memory traffic.
     {!Paced_sender.Fleet} keeps its remaining-segment count here. *)
  let user p fid = p.f.((fid lsl 3) + o_user)
  let set_user p fid v = p.f.((fid lsl 3) + o_user) <- v

  let[@hot] check p ~now ~limit =
    p.now_cache <- now;
    M.fire_due p.store ~prefetch:p.on_pf ~now ~limit p.on_fire

  let[@lint.allow "DEAD001"] active p = p.active_n
  let sends p = p.total_sends
  let catch_ups p = p.catch_ups
  let flow_sends p fid = p.f.((fid lsl 3) + o_sends)
  let[@lint.allow "DEAD001"] flow_active p fid = p.f.((fid lsl 3) + o_sent) >= 0
  let delays p = p.delays
  let[@lint.allow "DEAD001"] store_pending p = M.pending p.store
  let store_words p = M.words p.store

  (* Pool-owned flow state, excluding the store: record (16) + the
     stride-8 row array and handle array.  Handles are immediate ints
     for the arena stores; boxed handles are charged to the store's own
     accounting, not double-counted here. *)
  let words p =
    let arr n = if n = 0 then 0 else n + 1 in
    16 + arr (Array.length p.f) + arr (Array.length p.handles)
end
