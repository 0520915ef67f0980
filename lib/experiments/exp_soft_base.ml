type result = {
  base_throughput : float;
  facility_throughput : float;
  max_rate_throughput : float;
  overhead_pct : float;
  mean_firing_interval_us : float;
  delay_mean_us : float;
  delay_median_us : float;
  delay_p99_us : float;
  fired : int;
  hw_equiv_overhead_pct : float;
}

let run_server (cfg : Exp_config.t) ~attach_facility ~extra_timer_hz f =
  let wcfg =
    {
      Webserver.default_config with
      Webserver.attach_facility;
      extra_timer_hz;
      seed = cfg.Exp_config.seed;
    }
  in
  let t = Webserver.create wcfg in
  let aux = f t in
  Webserver.run t ~warmup:(Exp_config.warmup cfg) ~measure:(Exp_config.measure cfg);
  (Webserver.requests_per_sec t, aux)

(* DEAD001: the rows the experiment tests check. *)
let[@lint.allow "DEAD001"] compute cfg =
  let base, () = run_server cfg ~attach_facility:false ~extra_timer_hz:None (fun _ -> ()) in
  let fac, () = run_server cfg ~attach_facility:true ~extra_timer_hz:None (fun _ -> ()) in
  let maxrate, probe =
    run_server cfg ~attach_facility:true ~extra_timer_hz:None (fun t ->
        match Webserver.facility t with
        | Some st -> Delay_probe.Event_delay.start_periodic st ~ticks:0L
        | None -> assert false)
  in
  let inter = Delay_probe.Event_delay.inter_firing probe in
  let delays = Delay_probe.Event_delay.delays probe in
  let mean_iv = Stats.Sample.mean inter in
  (* The hardware-timer equivalent: a timer at 1/mean_iv. *)
  let hw_hz = 1e6 /. mean_iv in
  let hw, () = run_server cfg ~attach_facility:false ~extra_timer_hz:(Some hw_hz) (fun _ -> ()) in
  {
    base_throughput = base;
    facility_throughput = fac;
    max_rate_throughput = maxrate;
    overhead_pct = 100.0 *. (1.0 -. (maxrate /. base));
    mean_firing_interval_us = mean_iv;
    delay_mean_us = Stats.Sample.mean delays;
    delay_median_us = Stats.Sample.median delays;
    delay_p99_us = Stats.Sample.percentile delays 99.0;
    fired = Delay_probe.Event_delay.fired probe;
    hw_equiv_overhead_pct = 100.0 *. (1.0 -. (hw /. base));
  }

let render _cfg r =
  Printf.sprintf
    "  Apache throughput, no soft timers:          %8.0f conn/s\n\
    \  ... facility attached, no events:           %8.0f conn/s\n\
    \  ... null soft event at every trigger state: %8.0f conn/s  (overhead %.1f%%)\n\
    \  handler invoked every %.1f us on average (%d firings)\n\
    \  firing delay d: mean %.1f us, median %.1f us, p99 %.0f us (skewed low)\n\
    \  a hardware timer at that rate costs %.1f%% throughput\n"
    r.base_throughput r.facility_throughput r.max_rate_throughput r.overhead_pct
    r.mean_firing_interval_us r.fired r.delay_mean_us r.delay_median_us r.delay_p99_us
    r.hw_equiv_overhead_pct
  ^ Exp_config.paper_note
      "no observable difference with soft timers; events every 31.5 us; worst-case delay \
       distribution: mean 31.6 us, median 18 us (section 3); a 33 kHz hardware timer would cost ~15%"

let run cfg = Exp_config.header "Section 5.2: base overhead of soft timers" ^ render cfg (compute cfg)
