(* One run report: arm every observer, run the experiment once, and
   render the profile, stats, why-late and mem sections from that one
   execution (see run_report.mli). *)

type options = { buf : int; window_us : float; worst : int; check_budget : int option }

let default_options = { buf = 1_048_576; window_us = 1000.0; worst = 10; check_budget = None }

type t = {
  cfg : Exp_config.t;
  id : string;
  opts : options;
  trace_events : int;
  trace_dropped : int;
  profile : Profile.t;
  series : Timeseries.t;
  spans : Span.t;
  audit : Delay_audit.t;
  (* Rendered when the run ends: the metrics context and the census
     outlive the run, and the census is released right after. *)
  metrics_text : string;
  metrics_json : string;
  mem_text : string;
  mem_json : string;
  mem_ok : bool;
}

let jfloat v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v

let jstring s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let hdr_json h =
  Printf.sprintf "{\"count\":%d,\"mean\":%s,\"p50\":%s,\"p99\":%s,\"max\":%s}" (Hdr.count h)
    (jfloat (Hdr.mean h))
    (jfloat (Hdr.quantile h 0.5))
    (jfloat (Hdr.quantile h 0.99))
    (jfloat (Hdr.max h))

let metrics_json m =
  let parts = ref [] in
  Metrics.iter m (fun name v ->
      let rendered =
        match v with
        | Metrics.Counter c -> string_of_int c
        | Metrics.Probe g -> jfloat g
        | Metrics.Histogram h -> hdr_json h
      in
      parts := Printf.sprintf "%s:%s" (jstring name) rendered :: !parts);
  "{" ^ String.concat "," (List.rev !parts) ^ "}"

let spans_json sp =
  Printf.sprintf
    "{\"timers\":{\"total\":%d,\"fired\":%d,\"cancelled\":%d,\"open\":%d,\"latency_us\":%s},\"packets\":{\"total\":%d,\"delivered\":%d,\"open\":%d,\"latency_us\":%s}}"
    (Span.timers_total sp) (Span.timers_fired sp) (Span.timers_cancelled sp)
    (Span.timers_open sp)
    (hdr_json (Span.timer_latency sp))
    (Span.packets_total sp) (Span.packets_delivered sp) (Span.packets_open sp)
    (hdr_json (Span.packet_latency sp))

let validate o =
  if o.buf <= 0 then Error "--buf must be positive"
  else if o.window_us <= 0.0 then Error "--window must be positive"
  else if o.worst < 0 then Error "--worst must be non-negative"
  else if match o.check_budget with Some b -> b < 1 | None -> false then
    Error "--check-budget must be at least 1"
  else if Trace.tap_installed () then
    Error "the report needs the trace tap, which is already occupied"
  else Ok ()

let run cfg ~id f opts =
  match validate opts with
  | Error _ as e -> e
  | Ok () ->
    let metrics = Metrics.current () in
    Metrics.reset metrics;
    let tr = Trace.create ~capacity:opts.buf () in
    let p = Profile.create () in
    let ts = Timeseries.create ~window:(Time_ns.of_us opts.window_us) () in
    let da = Delay_audit.create ~worst:opts.worst () in
    Memstats.reset_census ();
    Memstats.reset_samples ();
    (* The observatory accounts for itself: the interned category
       registry is retained heap like any store's. *)
    Memstats.register ~path:[ "obs"; "profile-registry" ] Profile.registry_words;
    Option.iter Softtimer.set_default_check_budget opts.check_budget;
    Profile.install p;
    Trace.install tr;
    Trace.set_tap
      (Some
         (fun ~at ev ->
           Timeseries.on_event ts ~at ev;
           Delay_audit.on_event da ~at ev));
    Memstats.sample ~label:"start";
    let disarm () =
      Trace.set_tap None;
      Trace.uninstall ();
      Profile.uninstall ();
      Softtimer.set_default_check_budget max_int
    in
    (match
       if id = "pacer-scale" then ignore (Exp_pacer_scale.run_census cfg : Exp_pacer_scale.cell list)
       else ignore (f cfg : string)
     with
    | () -> disarm ()
    | exception e ->
      disarm ();
      Memstats.reset_census ();
      raise e);
    Memstats.sample ~label:"end";
    Timeseries.close ts;
    let report =
      {
        cfg;
        id;
        opts;
        trace_events = Trace.total tr;
        trace_dropped = Trace.dropped tr;
        profile = p;
        series = ts;
        spans = Span.collect tr;
        audit = da;
        metrics_text = Metrics.dump metrics;
        metrics_json = metrics_json metrics;
        mem_text = Memstats.report ();
        mem_json = Memstats.to_json ~gc:false ();
        mem_ok = Memstats.conservation_ok ();
      }
    in
    Memstats.reset_census ();
    Ok report

let dropped r = r.trace_dropped

let check r =
  let v = Delay_audit.violations r.audit in
  if v > 0 then Error (Printf.sprintf "why-late: %d conservation violation(s) — attribution bug" v)
  else if not r.mem_ok then
    Error
      "mem: conservation violated — attributed live words exceed GC live words \
       (double-counted or stale census provider)"
  else Ok ()

let to_collapsed r = Profile.to_collapsed r.profile

let stats_text r =
  let b = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let ts = r.series and sp = r.spans in
  addf "  events: %d across %d window(s), %d epoch(s)" (Timeseries.event_count ts)
    (List.length (Timeseries.snapshots ts))
    (Timeseries.epochs ts);
  if Timeseries.evicted_windows ts > 0 then
    addf " (%d oldest windows evicted)" (Timeseries.evicted_windows ts);
  addf "\n";
  let d = Timeseries.overall_delay ts in
  if Hdr.count d > 0 then
    addf "  fire delay us: n=%d p50=%.3f p99=%.3f max=%.3f\n" (Hdr.count d) (Hdr.quantile d 0.5)
      (Hdr.quantile d 0.99) (Hdr.max d);
  addf "  timer spans: %d scheduled, %d fired, %d cancelled, %d open\n" (Span.timers_total sp)
    (Span.timers_fired sp) (Span.timers_cancelled sp) (Span.timers_open sp);
  addf "  packet spans: %d enqueued, %d delivered, %d open\n" (Span.packets_total sp)
    (Span.packets_delivered sp) (Span.packets_open sp);
  let pl = Span.packet_latency sp in
  if Hdr.count pl > 0 then
    addf "  packet latency us: n=%d p50=%.3f p99=%.3f max=%.3f\n" (Hdr.count pl)
      (Hdr.quantile pl 0.5) (Hdr.quantile pl 0.99) (Hdr.max pl);
  addf "\n%s" r.metrics_text;
  Buffer.contents b

let to_text r =
  let b = Buffer.create 16384 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "report %s (seed %d%s%s)\n" r.id r.cfg.Exp_config.seed
    (if r.cfg.Exp_config.quick then ", quick" else "")
    (match r.opts.check_budget with Some n -> Printf.sprintf ", check budget %d" n | None -> "");
  addf "trace: %d events, %d dropped (ring capacity %d)\n" r.trace_events r.trace_dropped
    r.opts.buf;
  if r.trace_dropped > 0 then
    addf
      "WARNING: trace ring overflowed; the %d oldest events were dropped, so timer and packet \
       spans are built from a truncated ring (raise --buf to capture everything)\n"
      r.trace_dropped;
  addf "\n== profile ==\n%s" (Profile.report r.profile);
  addf "\n== stats (window %g us) ==\n%s" r.opts.window_us (stats_text r);
  addf "\n== why-late ==\n%s" (Delay_audit.to_text r.audit);
  addf "\n== mem ==\n%s" r.mem_text;
  Buffer.contents b

let to_json r =
  let ts = r.series in
  Printf.sprintf
    "{\"schema\":\"softtimers-report/1\",\"experiment\":%s,\"seed\":%d,\"quick\":%b,\"trace\":{\"events\":%d,\"dropped\":%d,\"capacity\":%d},\"profile\":%s,\"stats\":{\"window_us\":%s,\"events\":%d,\"epochs\":%d,\"windows_dropped\":%d,\"windows\":%s,\"spans\":%s,\"metrics\":%s},\"whylate\":%s,\"mem\":%s}\n"
    (jstring r.id) r.cfg.Exp_config.seed r.cfg.Exp_config.quick r.trace_events r.trace_dropped
    r.opts.buf (Profile.to_json r.profile) (jfloat r.opts.window_us)
    (Timeseries.event_count ts) (Timeseries.epochs ts) (Timeseries.evicted_windows ts)
    (Timeseries.to_json ts) (spans_json r.spans) r.metrics_json (Delay_audit.to_json r.audit)
    r.mem_json
