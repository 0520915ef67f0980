let m_polls = Metrics.counter "net_poll.polls"
let m_packets = Metrics.counter "net_poll.packets"

(* Span-less profiler events: interval clamping shows why the adaptive
   poller stopped tracking its aggregation quota. *)
let e_empty_poll = Profile.intern [ "net_poll"; "empty_poll" ]
let e_clamp_min = Profile.intern [ "net_poll"; "interval_clamped_min" ]
let e_clamp_max = Profile.intern [ "net_poll"; "interval_clamped_max" ]

type t = {
  st : Softtimer.t;
  quota : float;
  poll : int -> int;  (* given the instant, ns *)
  min_interval : Time_ns.span;
  max_interval : Time_ns.span;
  mutable interval : Time_ns.span;
  mutable ewma_batch : float;
  mutable running : bool;
  mutable kind : Softtimer.kind;  (* this poller's soft event *)
  mutable outstanding : Softtimer.handle;
  polls : int ref;
  packets : int ref;
}

(* Multiplicative adaptation toward the aggregation quota, smoothed by
   an EWMA of the observed batch size and clamped to 2x per step so a
   single empty or bursty poll cannot destabilise the interval. *)
let adapt t found =
  let alpha = 0.2 in
  t.ewma_batch <- (alpha *. float_of_int found) +. ((1.0 -. alpha) *. t.ewma_batch);
  let ratio = t.quota /. Float.max t.ewma_batch 0.125 in
  let ratio = Float.min 2.0 (Float.max 0.5 ratio) in
  let next = Time_ns.scale t.interval ratio in
  if Time_ns.(next < t.min_interval) then Profile.event e_clamp_min
  else if Time_ns.(next > t.max_interval) then Profile.event e_clamp_max;
  t.interval <- Time_ns.min t.max_interval (Time_ns.max t.min_interval next)

let on_event t now =
  if t.running then begin
    let found = t.poll now in
    incr t.polls;
    t.packets := !(t.packets) + found;
    if found = 0 then Profile.event e_empty_poll;
    Trace.poll ~at:now ~found;
    adapt t found;
    t.outstanding <- Softtimer.schedule_after t.st t.interval t.kind 0
  end

let create st ~quota ~poll ?(min_interval = Time_ns.of_us 10.0)
    ?(max_interval = Time_ns.of_ms 1.0) ?(initial_interval = Time_ns.of_us 50.0) () =
  if quota <= 0.0 then invalid_arg "Net_poll.create: quota must be positive";
  let m = Metrics.current () in
  let t =
    {
      st;
      quota;
      poll;
      min_interval;
      max_interval;
      interval = initial_interval;
      ewma_batch = quota;
      running = false;
      kind = Softtimer.null_kind;
      outstanding = Softtimer.no_handle;
      polls = Metrics.cell m m_polls;
      packets = Metrics.cell m m_packets;
    }
  in
  t.kind <- Softtimer.register st ~name:"net_poll" (fun now _ -> on_event t now);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    t.outstanding <- Softtimer.schedule_after t.st t.interval t.kind 0
  end

(* The handle of a fired event is stale, so cancelling it is a no-op. *)
let stop t =
  t.running <- false;
  Softtimer.cancel t.st t.outstanding;
  t.outstanding <- Softtimer.no_handle

let current_interval t = t.interval
let polls t = !(t.polls)
let packets t = !(t.packets)

let mean_batch t =
  if !(t.polls) = 0 then 0.0 else float_of_int !(t.packets) /. float_of_int !(t.polls)
