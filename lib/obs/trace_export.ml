let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* trace_event timestamps are in microseconds; keep ns as fractionals. *)
let us_of ns = Int64.to_float ns /. 1e3

type ev = {
  name : string;
  cat : string;
  ph : string;  (* "i" instant, "X" complete, "C" counter *)
  ts : float;
  tid : int;
  dur : float option;
  args : (string * string) list;  (* values are pre-rendered JSON *)
}

let json_of_ev e =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
       (escape e.name) (escape e.cat) e.ph e.ts e.tid);
  (match e.dur with Some d -> Buffer.add_string b (Printf.sprintf ",\"dur\":%.3f" d) | None -> ());
  if e.ph = "i" then Buffer.add_string b ",\"s\":\"t\"";
  if e.args <> [] then begin
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%s" (escape k) v))
      e.args;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let f v = Printf.sprintf "%g" v
let i v = string_of_int v
let str v = Printf.sprintf "\"%s\"" (escape v)

let ev_of_record { Trace.at; ev } =
  let ts = us_of at in
  let instant ?(tid = 0) ?(args = []) ~cat name =
    { name; cat; ph = "i"; ts; tid; dur = None; args }
  in
  match ev with
  | Trace.Trigger kind -> instant ~cat:"trigger" kind
  | Trace.Soft_sched { id; due } ->
    instant ~cat:"softtimer" "soft-sched"
      ~args:[ ("timer", i id); ("due_us", f (us_of due)) ]
  | Trace.Soft_fire { id; due; delay } ->
    instant ~cat:"softtimer" "soft-fire"
      ~args:[ ("timer", i id); ("due_us", f (us_of due)); ("delay_us", f (us_of delay)) ]
  | Trace.Soft_cancel { id; due } ->
    instant ~cat:"softtimer" "soft-cancel"
      ~args:[ ("timer", i id); ("due_us", f (us_of due)) ]
  | Trace.Soft_check { src; scanned; fired } ->
    instant ~cat:"softtimer" "soft-check"
      ~args:[ ("src", str src); ("scanned", i scanned); ("fired", i fired) ]
  | Trace.Cpu_run { cpu; klass; dur } ->
    (* Like Irq: stamped at quantum end; the slice starts at entry. *)
    {
      name = "run." ^ Delay_audit.klass_label klass;
      cat = "cpu";
      ph = "X";
      ts = us_of Time_ns.(at - dur);
      tid = cpu;
      dur = Some (us_of dur);
      args = [];
    }
  | Trace.Irq { line; cpu; dur } ->
    (* The record is stamped at handler exit; the slice starts at entry. *)
    {
      name = line;
      cat = "irq";
      ph = "X";
      ts = us_of Time_ns.(at - dur);
      tid = cpu;
      dur = Some (us_of dur);
      args = [];
    }
  | Trace.Irq_raised { line } -> instant ~cat:"irq" (line ^ "-raised")
  | Trace.Irq_lost { line } -> instant ~cat:"irq" (line ^ "-lost")
  | Trace.Cpu_busy { cpu } ->
    {
      name = Printf.sprintf "cpu%d.busy" cpu;
      cat = "cpu";
      ph = "C";
      ts;
      tid = cpu;
      dur = None;
      args = [ ("busy", "1") ];
    }
  | Trace.Cpu_idle { cpu } ->
    {
      name = Printf.sprintf "cpu%d.busy" cpu;
      cat = "cpu";
      ph = "C";
      ts;
      tid = cpu;
      dur = None;
      args = [ ("busy", "0") ];
    }
  | Trace.Pkt_enqueue { nic; qlen } ->
    instant ~cat:"net" "pkt-enqueue" ~args:[ ("nic", str nic); ("qlen", i qlen) ]
  | Trace.Pkt_tx { nic } -> instant ~cat:"net" "pkt-tx" ~args:[ ("nic", str nic) ]
  | Trace.Pkt_rx { nic; batch } ->
    instant ~cat:"net" "pkt-rx" ~args:[ ("nic", str nic); ("batch", i batch) ]
  | Trace.Pkt_drop { nic } -> instant ~cat:"net" "pkt-drop" ~args:[ ("nic", str nic) ]
  | Trace.Poll { found } -> instant ~cat:"softtimer" "net-poll" ~args:[ ("found", i found) ]
  | Trace.Rbc_send -> instant ~cat:"softtimer" "rbc-send"
  | Trace.Mark s -> instant ~cat:"mark" s

(* Per-window "C" counter tracks derived from a {!Timeseries}.  Each
   window contributes one sample per track, stamped at the window's
   start; viewers step the counter to the next sample, so the tracks
   read as rates-per-window. *)
let add_series_events b (ts : Timeseries.t) =
  List.iter
    (fun (s : Timeseries.snapshot) ->
      let counter name args =
        Buffer.add_char b ',';
        Buffer.add_string b
          (json_of_ev
             { name; cat = "timeseries"; ph = "C"; ts = s.Timeseries.s_start_us;
               tid = 0; dur = None; args })
      in
      counter "softtimer"
        [ ("sched", i s.s_sched); ("fired", i s.s_fired); ("cancelled", i s.s_cancelled) ];
      counter "net"
        [ ("tx", i s.s_pkt_tx); ("rx", i s.s_pkt_rx_pkts); ("drop", i s.s_pkt_drop) ];
      counter "polls" [ ("polls", i s.s_polls); ("found", i s.s_poll_found) ];
      if s.s_delay_count > 0 then
        counter "fire_delay_us"
          [ ("p50", f s.s_delay_p50_us); ("p99", f s.s_delay_p99_us) ])
    (Timeseries.snapshots ts)

(* Closed spans become paired async "b"/"e" events (cat "span"); spans
   still open at the end of the trace have no end and are skipped so
   every "b" is balanced by an "e". *)
let add_span_events b (sp : Span.t) =
  List.iter
    (fun (s : Span.span) ->
      match s.Span.finish with
      | None -> ()
      | Some fin ->
        let name, tid =
          match s.Span.kind with
          | Span.Timer -> ("timer", 0)
          | Span.Packet nic -> ("pkt-" ^ nic, 0)
        in
        let outcome =
          match s.Span.outcome with
          | Some Span.Fired -> "fired"
          | Some Span.Cancelled -> "cancelled"
          | Some Span.Delivered -> "delivered"
          | None -> "open"
        in
        let async ph ts args =
          Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"id\":%d%s}"
               (escape name) ph ts tid s.Span.id args)
        in
        async "b" (us_of s.Span.start)
          (Printf.sprintf ",\"args\":{\"outcome\":\"%s\"}" outcome);
        async "e" (us_of fin) "")
    (Span.spans sp)

(* Flow arrows linking each timer's schedule to its fire, keyed by the
   timer id the facility stamps on both events: the viewer draws an
   arrow from the point the timer was armed to the point it went off,
   making long-delayed fires visually obvious.  A re-arm emits another
   "s" with the same id, extending the chain; a cancelled timer's flow
   simply never terminates. *)
let add_flow_event b { Trace.at; ev } =
  let flow ph ~id ~extra =
    Buffer.add_char b ',';
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"timer-flow\",\"cat\":\"softtimer\",\"ph\":\"%s\",\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":0%s}"
         ph id (us_of at) extra)
  in
  match ev with
  | Trace.Soft_sched { id; _ } -> flow "s" ~id ~extra:""
  | Trace.Soft_fire { id; _ } -> flow "f" ~id ~extra:",\"bp\":\"e\""
  | _ -> ()

(* DEAD001 here and below: tested directly; the CLI calls write_*. *)
let[@lint.allow "DEAD001"] to_chrome_json ?series ?spans t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"softtimers-sim\"}}";
  (* Ring overflow: without a banner a truncated trace masquerades as a
     complete run.  The instant event is the first thing a viewer shows;
     the top-level field is for programmatic consumers. *)
  if Trace.dropped t > 0 then
    Buffer.add_string b
      (Printf.sprintf
         ",{\"name\":\"TRACE TRUNCATED: %d oldest events dropped (ring \
          overflow)\",\"cat\":\"warning\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":0,\"s\":\"g\"}"
         (Trace.dropped t));
  Trace.iter t (fun r ->
      Buffer.add_char b ',';
      Buffer.add_string b (json_of_ev (ev_of_record r));
      add_flow_event b r);
  (match series with Some ts -> add_series_events b ts | None -> ());
  (match spans with Some sp -> add_span_events b sp | None -> ());
  Buffer.add_string b "],\"displayTimeUnit\":\"ns\"";
  if Trace.dropped t > 0 then
    Buffer.add_string b (Printf.sprintf ",\"droppedEvents\":%d" (Trace.dropped t));
  Buffer.add_string b "}";
  Buffer.contents b

let csv_row { Trace.at; ev } =
  let detail =
    match ev with
    | Trace.Trigger kind -> [ "trigger"; "kind=" ^ kind ]
    | Trace.Soft_sched { id; due } ->
      [ "soft-sched"; Printf.sprintf "timer=%d;due_ns=%Ld" id due ]
    | Trace.Soft_fire { id; due; delay } ->
      [ "soft-fire"; Printf.sprintf "timer=%d;due_ns=%Ld;delay_ns=%Ld" id due delay ]
    | Trace.Soft_cancel { id; due } ->
      [ "soft-cancel"; Printf.sprintf "timer=%d;due_ns=%Ld" id due ]
    | Trace.Soft_check { src; scanned; fired } ->
      [ "soft-check"; Printf.sprintf "src=%s;scanned=%d;fired=%d" src scanned fired ]
    | Trace.Cpu_run { cpu; klass; dur } ->
      [ "cpu-run";
        Printf.sprintf "cpu=%d;klass=%s;dur_ns=%Ld" cpu (Delay_audit.klass_label klass) dur
      ]
    | Trace.Irq { line; cpu; dur } ->
      [ "irq"; Printf.sprintf "line=%s;cpu=%d;dur_ns=%Ld" line cpu dur ]
    | Trace.Irq_raised { line } -> [ "irq-raised"; "line=" ^ line ]
    | Trace.Irq_lost { line } -> [ "irq-lost"; "line=" ^ line ]
    | Trace.Cpu_busy { cpu } -> [ "cpu-busy"; Printf.sprintf "cpu=%d" cpu ]
    | Trace.Cpu_idle { cpu } -> [ "cpu-idle"; Printf.sprintf "cpu=%d" cpu ]
    | Trace.Pkt_enqueue { nic; qlen } ->
      [ "pkt-enqueue"; Printf.sprintf "nic=%s;qlen=%d" nic qlen ]
    | Trace.Pkt_tx { nic } -> [ "pkt-tx"; "nic=" ^ nic ]
    | Trace.Pkt_rx { nic; batch } -> [ "pkt-rx"; Printf.sprintf "nic=%s;batch=%d" nic batch ]
    | Trace.Pkt_drop { nic } -> [ "pkt-drop"; "nic=" ^ nic ]
    | Trace.Poll { found } -> [ "net-poll"; Printf.sprintf "found=%d" found ]
    | Trace.Rbc_send -> [ "rbc-send"; "" ]
    | Trace.Mark s -> [ "mark"; s ]
  in
  Printf.sprintf "%Ld,%s" at (String.concat "," detail)

let[@lint.allow "DEAD001"] to_csv t =
  let b = Buffer.create 4096 in
  if Trace.dropped t > 0 then
    Buffer.add_string b
      (Printf.sprintf "# WARNING: trace truncated, %d oldest events dropped (ring overflow)\n"
         (Trace.dropped t));
  Buffer.add_string b "time_ns,event,detail\n";
  Trace.iter t (fun r ->
      Buffer.add_string b (csv_row r);
      Buffer.add_char b '\n');
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_chrome_json ?series ?spans t path =
  write_file path (to_chrome_json ?series ?spans t)
let write_csv t path = write_file path (to_csv t)
