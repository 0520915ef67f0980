type row = {
  freq_khz : float;
  throughput : float;
  overhead_pct : float;
  us_per_interrupt : float;
}

type result = { rows : row list; per_intr_piii : float; per_intr_alpha : float }

let throughput_at (cfg : Exp_config.t) ~profile ~hz =
  let wcfg =
    {
      Webserver.default_config with
      Webserver.profile;
      extra_timer_hz = (if hz > 0.0 then Some hz else None);
      seed = cfg.Exp_config.seed;
    }
  in
  let t = Webserver.create wcfg in
  Webserver.run t ~warmup:(Exp_config.warmup cfg) ~measure:(Exp_config.measure cfg);
  Webserver.requests_per_sec t

let sweep_freqs (cfg : Exp_config.t) =
  if cfg.Exp_config.quick then [ 0.0; 20.0; 100.0 ]
  else [ 0.0; 10.0; 20.0; 30.0; 40.0; 50.0; 60.0; 70.0; 80.0; 90.0; 100.0 ]

let per_interrupt_cost ~base ~loaded ~hz =
  if hz <= 0.0 || base <= 0.0 then nan else (1.0 -. (loaded /. base)) /. hz *. 1e6

let single_point cfg profile =
  let hz = 50_000.0 in
  let base = throughput_at cfg ~profile ~hz:0.0 in
  let loaded = throughput_at cfg ~profile ~hz in
  per_interrupt_cost ~base ~loaded ~hz

(* DEAD001: the rows the experiment tests check. *)
let[@lint.allow "DEAD001"] compute cfg =
  let profile = Costs.pentium_ii_300 in
  let freqs = sweep_freqs cfg in
  let base = throughput_at cfg ~profile ~hz:0.0 in
  let rows =
    List.map
      (fun khz ->
        let hz = khz *. 1000.0 in
        let tput = if khz = 0.0 then base else throughput_at cfg ~profile ~hz in
        let overhead = if khz = 0.0 then 0.0 else 100.0 *. (1.0 -. (tput /. base)) in
        {
          freq_khz = khz;
          throughput = tput;
          overhead_pct = overhead;
          us_per_interrupt = per_interrupt_cost ~base ~loaded:tput ~hz;
        })
      freqs
  in
  {
    rows;
    per_intr_piii = single_point cfg Costs.pentium_iii_500;
    per_intr_alpha = single_point cfg Costs.alpha_21164_500;
  }

let render _cfg r =
  let open Tablefmt in
  let t =
    create ~title:"Figures 2/3 -- Apache throughput vs added hardware-timer frequency (P-II 300)"
      ~columns:
        [
          ("freq (kHz)", Right);
          ("throughput (conn/s)", Right);
          ("overhead (%)", Right);
          ("us/interrupt", Right);
        ]
  in
  List.iter
    (fun row ->
      add_row t
        [
          cell_f ~decimals:0 row.freq_khz;
          cell_f ~decimals:0 row.throughput;
          cell_f ~decimals:1 row.overhead_pct;
          cell_f ~decimals:2 row.us_per_interrupt;
        ])
    r.rows;
  render t
  ^ Printf.sprintf "  cross-platform (50 kHz point): P-III 500 = %.2f us/intr, Alpha 21164 = %.2f us/intr\n"
      r.per_intr_piii r.per_intr_alpha
  ^ Exp_config.paper_note
      "linear growth, ~45% overhead at 100 kHz; 4.45 us (P-II), 4.36 us (P-III), 8.64 us (Alpha)"

let run cfg =
  Exp_config.header "Figures 2/3: base overhead of hardware timers" ^ render cfg (compute cfg)
