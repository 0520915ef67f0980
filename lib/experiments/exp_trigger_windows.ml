type window_stats = {
  window_ms : float;
  windows : int;
  min_median : float;
  p5 : float;
  p95 : float;
  max_median : float;
  above_40us_pct : float;
}

type result = {
  one_ms : window_stats;
  ten_ms : window_stats;
  medians_1ms : (Time_ns.t * float) list;
}

let stats_of ~window_ms medians =
  let s = Stats.Sample.create () in
  List.iter (fun (_, m) -> Stats.Sample.add s m) medians;
  {
    window_ms;
    windows = Stats.Sample.count s;
    min_median = Stats.Sample.min s;
    p5 = Stats.Sample.percentile s 5.0;
    p95 = Stats.Sample.percentile s 95.0;
    max_median = Stats.Sample.max s;
    above_40us_pct = 100.0 *. Stats.Sample.fraction_above s 40.0;
  }

(* DEAD001: the rows the experiment tests check. *)
let[@lint.allow "DEAD001"] compute (cfg : Exp_config.t) =
  let wcfg =
    {
      Webserver.default_config with
      Webserver.background_compute = true;
      seed = cfg.Exp_config.seed;
    }
  in
  let t = Webserver.create wcfg in
  let rec_ = Delay_probe.Gap_recorder.attach ~record_series:true (Webserver.machine t) in
  let span = if cfg.Exp_config.quick then Time_ns.of_sec 2.0 else Time_ns.of_sec 10.0 in
  Webserver.run t ~warmup:(Exp_config.warmup cfg) ~measure:span;
  let series = Delay_probe.Gap_recorder.series rec_ in
  let m1 = Series.windowed_medians series ~window:(Time_ns.of_ms 1.0) in
  let m10 = Series.windowed_medians series ~window:(Time_ns.of_ms 10.0) in
  { one_ms = stats_of ~window_ms:1.0 m1; ten_ms = stats_of ~window_ms:10.0 m10; medians_1ms = m1 }

let render_sparkline medians =
  (* A coarse time-series strip: one character per bucket of windows. *)
  let arr = Array.of_list (List.map snd medians) in
  let n = Array.length arr in
  if n = 0 then ""
  else begin
    let cols = 72 in
    let glyphs = [| '_'; '.'; '-'; '='; '+'; '*'; '#' |] in
    let buf = Buffer.create 128 in
    for c = 0 to cols - 1 do
      let lo = c * n / cols and hi = max (((c + 1) * n / cols) - 1) (c * n / cols) in
      let acc = ref 0.0 and cnt = ref 0 in
      for i = lo to min hi (n - 1) do
        acc := !acc +. arr.(i);
        incr cnt
      done;
      let v = !acc /. float_of_int (max 1 !cnt) in
      let idx = int_of_float (v /. 8.0) in
      Buffer.add_char buf glyphs.(max 0 (min 6 idx))
    done;
    Buffer.contents buf
  end

let render _cfg r =
  let line s =
    Printf.sprintf
      "  %4.0f ms windows: %5d windows, medians %5.1f..%5.1f us (p5 %.1f, p95 %.1f), %.2f%% above 40 us\n"
      s.window_ms s.windows s.min_median s.max_median s.p5 s.p95 s.above_40us_pct
  in
  line r.one_ms ^ line r.ten_ms
  ^ "  1 ms-window medians over time (each char ~ 8 us per level):\n  "
  ^ render_sparkline r.medians_1ms ^ "\n"
  ^ Exp_config.paper_note
      "1 ms windows: bulk of medians in 14-26 us, <1.13% above 40 us; 10 ms windows: \
       almost all in 17-19 us"

let run cfg =
  Exp_config.header "Figure 5: windowed trigger-interval medians (ST-Apache-compute)"
  ^ render cfg (compute cfg)
