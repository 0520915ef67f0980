type server_rows = {
  server : Webserver.server_kind;
  base_tput : float;
  hw_tput : float;
  hw_overhead_pct : float;
  hw_interval_us : float;
  soft_tput : float;
  soft_overhead_pct : float;
  soft_interval_us : float;
}

let run_cell (cfg : Exp_config.t) ~kind ~pacing =
  let wcfg =
    { Webserver.default_config with Webserver.kind; pacing; seed = cfg.Exp_config.seed }
  in
  let t = Webserver.create wcfg in
  Webserver.run t ~warmup:(Exp_config.warmup cfg) ~measure:(Exp_config.measure cfg);
  (* [Online.mean] is [nan] when nothing was paced. *)
  (Webserver.requests_per_sec t, Stats.Online.mean (Webserver.pacing_intervals t))

let compute cfg =
  let per_server kind =
    let base, _ = run_cell cfg ~kind ~pacing:Webserver.No_pacing in
    let hw, hw_iv = run_cell cfg ~kind ~pacing:(Webserver.Hw_pacing (Time_ns.of_us 20.0)) in
    let soft, soft_iv = run_cell cfg ~kind ~pacing:Webserver.Soft_pacing in
    {
      server = kind;
      base_tput = base;
      hw_tput = hw;
      hw_overhead_pct = 100.0 *. (1.0 -. (hw /. base));
      hw_interval_us = hw_iv;
      soft_tput = soft;
      soft_overhead_pct = 100.0 *. (1.0 -. (soft /. base));
      soft_interval_us = soft_iv;
    }
  in
  [ per_server Webserver.Apache; per_server Webserver.Flash ]

let render _cfg rows =
  let open Tablefmt in
  let t =
    create ~title:"Table 3 -- overhead of rate-based clocking (HW timer at 20 us vs soft timers)"
      ~columns:
        [
          ("", Left);
          ("Apache", Right);
          ("[paper]", Right);
          ("Flash", Right);
          ("[paper]", Right);
        ]
  in
  let a = List.nth rows 0 and f = List.nth rows 1 in
  add_row t [ "Base throughput (conn/s)"; cell_f ~decimals:0 a.base_tput; "774"; cell_f ~decimals:0 f.base_tput; "1303" ];
  add_row t [ "HW timer throughput (conn/s)"; cell_f ~decimals:0 a.hw_tput; "560"; cell_f ~decimals:0 f.hw_tput; "827" ];
  add_row t [ "HW timer overhead (%)"; cell_f ~decimals:1 a.hw_overhead_pct; "28"; cell_f ~decimals:1 f.hw_overhead_pct; "36" ];
  add_row t [ "HW timer avg xmit intvl (us)"; cell_f ~decimals:1 a.hw_interval_us; "31"; cell_f ~decimals:1 f.hw_interval_us; "35" ];
  add_row t [ "Soft timer throughput (conn/s)"; cell_f ~decimals:0 a.soft_tput; "756"; cell_f ~decimals:0 f.soft_tput; "1224" ];
  add_row t [ "Soft timer overhead (%)"; cell_f ~decimals:1 a.soft_overhead_pct; "2"; cell_f ~decimals:1 f.soft_overhead_pct; "6" ];
  add_row t [ "Soft timer avg xmit intvl (us)"; cell_f ~decimals:1 a.soft_interval_us; "34"; cell_f ~decimals:1 f.soft_interval_us; "24" ];
  render t

let run cfg =
  Exp_config.header "Table 3: rate-based clocking overhead" ^ render cfg (compute cfg)
