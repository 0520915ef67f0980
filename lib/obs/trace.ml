type event =
  | Trigger of string
  | Soft_sched of { id : int; due : Time_ns.t }
  | Soft_fire of { id : int; due : Time_ns.t; delay : Time_ns.span }
  | Soft_cancel of { id : int; due : Time_ns.t }
  | Soft_check of { src : string; scanned : int; fired : int }
  | Cpu_run of { cpu : int; klass : int; dur : Time_ns.span }
  | Irq of { line : string; cpu : int; dur : Time_ns.span }
  | Irq_raised of { line : string }
  | Irq_lost of { line : string }
  | Cpu_busy of { cpu : int }
  | Cpu_idle of { cpu : int }
  | Pkt_enqueue of { nic : string; qlen : int }
  | Pkt_tx of { nic : string }
  | Pkt_rx of { nic : string; batch : int }
  | Pkt_drop of { nic : string }
  | Poll of { found : int }
  | Rbc_send
  | Mark of string

type record = { at : Time_ns.t; ev : event }

type t = {
  buf : record array;  (* ring; slot [head] is the oldest record *)
  mutable head : int;
  mutable len : int;
  dropped : int ref;
}

let dummy = { at = Time_ns.zero; ev = Mark "" }

(* Ring overflow is easy to miss (the trace still looks complete); the
   metric makes it visible in every metrics dump, and the exporters add
   a warning banner keyed off [dropped t]. *)
let m_dropped = Metrics.counter "trace.dropped"

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    buf = Array.make capacity dummy;
    head = 0;
    len = 0;
    dropped = Metrics.cell (Metrics.current ()) m_dropped;
  }

(* The installed sink.  Emitters read this once; [None] is the disabled
   fast path.  Both the sink and the tap are domain-local: a freshly
   spawned domain starts with neither, so parallel experiment workers
   (lib/parallel) never write into a ring installed by the main domain
   — each worker captures into its own ring, which the runner then
   {!absorb}s into the parent's in deterministic job order. *)
let sink : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* A synchronous tap (the runtime sanitizer, lib/check): sees every
   emitted event whether or not a ring buffer is installed. *)
let tap : (at:Time_ns.t -> event -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Process-wide count of installed sinks and taps, over all domains.
   While it is zero no domain can hold a consumer, so the emitters skip
   their two [Domain.DLS] lookups: one atomic load and a branch.  A
   nonzero count only sends the emitters on to the domain-local check,
   so which domain sees which consumer is unchanged. *)
let consumers = Atomic.make 0

(* Install or remove one domain-local consumer, keeping [consumers] in
   step with how many are present. *)
let set_consumer cell v =
  (match (!cell, v) with
  | None, Some _ -> Atomic.incr consumers
  | Some _, None -> Atomic.decr consumers
  | None, None | Some _, Some _ -> ());
  cell := v

let install t = set_consumer (Domain.DLS.get sink) (Some t)
let uninstall () = set_consumer (Domain.DLS.get sink) None
let set_tap f = set_consumer (Domain.DLS.get tap) f

let installed () = if Atomic.get consumers = 0 then None else !(Domain.DLS.get sink)
let[@inline] on () = Atomic.get consumers > 0
(* DEAD001 here and below: ring control the trace tests drive. *)
let[@lint.allow "DEAD001"] enabled () = Option.is_some (installed ())

let tap_installed () =
  Atomic.get consumers > 0 && Option.is_some !(Domain.DLS.get tap)

let capacity t = Array.length t.buf
let length t = t.len
let dropped t = !(t.dropped)
let total t = t.len + !(t.dropped)

let[@lint.allow "DEAD001"] clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped := 0

let push t r =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    (* Full: overwrite the oldest record. *)
    t.buf.(t.head) <- r;
    t.head <- (t.head + 1) mod cap;
    incr t.dropped
  end
  else begin
    t.buf.((t.head + t.len) mod cap) <- r;
    t.len <- t.len + 1
  end

let iter t f =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) mod cap)
  done

let[@lint.allow "DEAD001"] to_list t =
  let acc = ref [] in
  iter t (fun r -> acc := r :: !acc);
  List.rev !acc

(* Emitters.  Each one checks for consumers before constructing the
   record, so a disabled trace costs one atomic load and a branch.  The
   typed emitters take [at], spans and a soft event's [due] as int ns
   and box them ([ns]) only behind [armed ()].  ALLOC002 on [emit] and the emitters the [@hot]
   paths call, ALLOC003 on [ns]: records and boxes are built only then.
   HOT001 on [armed] and [emit]: their [Domain.DLS] lookups run only
   behind a nonzero [consumers], i.e. while some domain traces. *)

let[@inline] [@hot] armed () =
  Atomic.get consumers > 0
  && (Option.is_some !(Domain.DLS.get sink) || Option.is_some !(Domain.DLS.get tap))
[@@lint.allow "HOT001"]

let emit ~at ev =
  if Atomic.get consumers > 0 then begin
    (match !(Domain.DLS.get tap) with None -> () | Some f -> f ~at ev);
    match !(Domain.DLS.get sink) with None -> () | Some t -> push t { at; ev }
  end
[@@lint.allow "ALLOC002"] [@@lint.allow "HOT001"]

let ns n = Int64.of_int n [@@lint.allow "ALLOC003"]

let trigger ~at kind = if armed () then emit ~at:(ns at) (Trigger kind)
[@@lint.allow "ALLOC002"]

let soft_sched ~at ~id ~due =
  if armed () then emit ~at:(ns at) (Soft_sched { id; due = ns due })

let soft_fire ~at ~id ~due =
  if armed () then emit ~at:(ns at) (Soft_fire { id; due = ns due; delay = ns (at - due) })
[@@lint.allow "ALLOC002"]

let[@lint.allow "DEAD001"] soft_cancel ~at ~id ~due =
  if armed () then emit ~at:(ns at) (Soft_cancel { id; due = ns due })

let soft_check ~at ~src ~scanned ~fired =
  if armed () then emit ~at:(ns at) (Soft_check { src; scanned; fired })
[@@lint.allow "ALLOC002"]

let cpu_run ~at ~cpu ~klass ~dur =
  if armed () then emit ~at:(ns at) (Cpu_run { cpu; klass; dur = ns dur })
[@@lint.allow "ALLOC002"]

let irq ~at ~line ~cpu ~dur =
  if armed () then emit ~at:(ns at) (Irq { line; cpu; dur = ns dur })

let irq_raised ~at ~line = if armed () then emit ~at:(ns at) (Irq_raised { line })
[@@lint.allow "ALLOC002"]
let irq_lost ~at ~line = if armed () then emit ~at:(ns at) (Irq_lost { line })
[@@lint.allow "ALLOC002"]
let cpu_busy ~at ~cpu = if armed () then emit ~at:(ns at) (Cpu_busy { cpu })
[@@lint.allow "ALLOC002"]
let cpu_idle ~at ~cpu = if armed () then emit ~at:(ns at) (Cpu_idle { cpu })
[@@lint.allow "ALLOC002"]
let pkt_enqueue ~at ~nic ~qlen = if armed () then emit ~at:(ns at) (Pkt_enqueue { nic; qlen })
[@@lint.allow "ALLOC002"]
let pkt_tx ~at ~nic = if armed () then emit ~at:(ns at) (Pkt_tx { nic })
let pkt_rx ~at ~nic ~batch = if armed () then emit ~at:(ns at) (Pkt_rx { nic; batch })
[@@lint.allow "ALLOC002"]
let pkt_drop ~at ~nic = if armed () then emit ~at:(ns at) (Pkt_drop { nic })
[@@lint.allow "ALLOC002"]
let poll ~at ~found = if armed () then emit ~at:(ns at) (Poll { found })
let rbc_send ~at = if armed () then emit ~at:(ns at) Rbc_send
let[@lint.allow "DEAD001"] mark ~at s = if armed () then emit ~at:(ns at) (Mark s)

let sim_start_mark = "sim.start"
let sim_start ~at = mark ~at sim_start_mark

(* Replay a worker ring into this domain's consumers, oldest first,
   through [emit] so the tap and the installed ring both see the
   records; then move the worker's own overflow into the installed
   ring, so [dropped]/[total] — and the digest that folds them — match
   what one shared sequential ring would have reported, and the
   [trace.dropped] metric, which sums every ring, counts it once. *)
let absorb src =
  iter src (fun r -> emit ~at:r.at r.ev);
  let d = dropped src in
  if d > 0 then
    match !(Domain.DLS.get sink) with
    | None -> ()
    | Some dst ->
      dst.dropped := !(dst.dropped) + d;
      src.dropped := 0
