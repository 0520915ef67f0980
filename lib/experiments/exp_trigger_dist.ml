type workload =
  | ST_apache
  | ST_apache_compute
  | ST_flash
  | ST_realaudio
  | ST_nfs
  | ST_kernel_build
  | ST_apache_xeon

let workload_name = function
  | ST_apache -> "ST-Apache"
  | ST_apache_compute -> "ST-Apache-compute"
  | ST_flash -> "ST-Flash"
  | ST_realaudio -> "ST-real-audio"
  | ST_nfs -> "ST-nfs"
  | ST_kernel_build -> "ST-kernel-build"
  | ST_apache_xeon -> "ST-Apache (Xeon)"

let all_workloads =
  [ ST_apache; ST_apache_compute; ST_flash; ST_realaudio; ST_nfs; ST_kernel_build; ST_apache_xeon ]

type row = {
  workload : workload;
  samples : int;
  max_us : float;
  mean_us : float;
  median_us : float;
  stddev_us : float;
  above_100us_pct : float;
  above_150us_pct : float;
}

let webserver_gaps (cfg : Exp_config.t) ~kind ~background_compute ~profile =
  let wcfg =
    {
      Webserver.default_config with
      Webserver.kind;
      background_compute;
      profile;
      seed = cfg.Exp_config.seed;
    }
  in
  let t = Webserver.create wcfg in
  let rec_ = Delay_probe.Gap_recorder.attach (Webserver.machine t) in
  Webserver.run t ~warmup:(Exp_config.warmup cfg) ~measure:(Exp_config.dist_window cfg);
  Delay_probe.Gap_recorder.sample rec_

let synthetic_gaps (cfg : Exp_config.t) start =
  let engine = Engine.create () in
  let machine = Machine.create engine in
  start machine;
  let rec_ = Delay_probe.Gap_recorder.attach machine in
  (* Warm up, then reset the gap clock so partial gaps are dropped. *)
  Engine.run_until engine (Time_ns.of_sec 0.2);
  Delay_probe.Gap_recorder.reset_clock rec_;
  let extra = Exp_config.dist_window cfg in
  Engine.run_until engine Time_ns.(Engine.now engine + extra);
  Delay_probe.Gap_recorder.sample rec_

let gaps_of cfg = function
  | ST_apache ->
    webserver_gaps cfg ~kind:Webserver.Apache ~background_compute:false
      ~profile:Costs.pentium_ii_300
  | ST_apache_compute ->
    webserver_gaps cfg ~kind:Webserver.Apache ~background_compute:true
      ~profile:Costs.pentium_ii_300
  | ST_flash ->
    webserver_gaps cfg ~kind:Webserver.Flash ~background_compute:false
      ~profile:Costs.pentium_ii_300
  | ST_apache_xeon ->
    webserver_gaps cfg ~kind:Webserver.Apache ~background_compute:false
      ~profile:Costs.pentium_iii_500
  | ST_realaudio -> synthetic_gaps cfg (fun m -> Wl_realaudio.start m ~seed:cfg.Exp_config.seed)
  | ST_nfs -> synthetic_gaps cfg (fun m -> Wl_nfs.start m ~seed:cfg.Exp_config.seed)
  | ST_kernel_build ->
    synthetic_gaps cfg (fun m -> Wl_kernel_build.start m ~seed:cfg.Exp_config.seed)

(* DEAD001: the rows the experiment tests check. *)
let[@lint.allow "DEAD001"] measure cfg workload =
  let sample = gaps_of cfg workload in
  let hist = Histogram.create ~lo:0.0 ~hi:150.0 ~bins:150 in
  Array.iter (fun g -> Histogram.add hist g) (Stats.Sample.values sample);
  let row =
    {
      workload;
      samples = Stats.Sample.count sample;
      max_us = Stats.Sample.max sample;
      mean_us = Stats.Sample.mean sample;
      median_us = Stats.Sample.median sample;
      stddev_us = Stats.Sample.stddev sample;
      above_100us_pct = 100.0 *. Stats.Sample.fraction_above sample 100.0;
      above_150us_pct = 100.0 *. Stats.Sample.fraction_above sample 150.0;
    }
  in
  (row, hist)

let compute cfg = List.map (measure cfg) all_workloads

let paper_rows =
  [
    (ST_apache, (476., 31.52, 18., 32., 5.3, 0.39));
    (ST_apache_compute, (585., 31.59, 18., 32.1, 5.3, 0.43));
    (ST_flash, (1000., 22.53, 17., 20.8, 1.09, 0.013));
    (ST_realaudio, (1000., 8.47, 6., 13.2, 0.025, 0.013));
    (ST_nfs, (910., 2.13, 2., 3.3, 0.021, 0.011));
    (ST_kernel_build, (1000., 5.63, 2., 47.9, 0.038, 0.033));
    (ST_apache_xeon, (1000., 19.41, 11., 23., 0.44, 0.13));
  ]

let render _cfg results =
  let open Tablefmt in
  let t =
    create ~title:"Table 1 -- trigger state interval distribution (measured | paper)"
      ~columns:
        [
          ("workload", Left);
          ("samples", Right);
          ("max (us)", Right);
          ("mean (us)", Right);
          ("median", Right);
          ("stddev", Right);
          (">100us %", Right);
          (">150us %", Right);
        ]
  in
  List.iter
    (fun (r, _) ->
      add_row t
        [
          workload_name r.workload;
          cell_i r.samples;
          cell_f ~decimals:0 r.max_us;
          cell_f r.mean_us;
          cell_f ~decimals:1 r.median_us;
          cell_f ~decimals:1 r.stddev_us;
          cell_f ~decimals:3 r.above_100us_pct;
          cell_f ~decimals:3 r.above_150us_pct;
        ];
      let mx, mean, med, sd, a100, a150 = List.assoc r.workload paper_rows in
      add_row t
        [
          "  [paper]";
          "2000000";
          cell_f ~decimals:0 mx;
          cell_f mean;
          cell_f ~decimals:1 med;
          cell_f ~decimals:1 sd;
          cell_f ~decimals:3 a100;
          cell_f ~decimals:3 a150;
        ];
      add_rule t)
    results;
  let cdf_series =
    List.filter_map
      (fun (r, h) ->
        match r.workload with
        | ST_apache_xeon -> None  (* Figure 4 shows the six P-II workloads *)
        | _ -> Some (workload_name r.workload, h))
      results
  in
  render t ^ "\nFigure 4 -- trigger state interval CDFs\n"
  ^ Histogram.render_ascii ~series:cdf_series ()

let run cfg =
  Exp_config.header "Table 1 / Figure 4: trigger intervals by workload" ^ render cfg (compute cfg)
