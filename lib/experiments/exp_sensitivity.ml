type pacing_row = {
  intr_scale : float;
  hw_overhead_pct : float;
  soft_overhead_pct : float;
}

type polling_row = { sensitivity : float; polling_ratio : float }

type result = { pacing : pacing_row list; polling : polling_row list }

let scaled_profile scale =
  let p = Costs.pentium_ii_300 in
  {
    p with
    Costs.name = Printf.sprintf "P-II-300 (intr x%.2g)" scale;
    intr_save_restore_us = p.Costs.intr_save_restore_us *. scale;
    intr_cache_pollution_us = p.Costs.intr_cache_pollution_us *. scale;
  }

let throughput (cfg : Exp_config.t) wcfg =
  let t = Webserver.create wcfg in
  Webserver.run t ~warmup:(Exp_config.warmup cfg) ~measure:(Exp_config.measure cfg);
  Webserver.requests_per_sec t

let pacing_at cfg ~scale =
  let profile = scaled_profile scale in
  let base_cfg p =
    { Webserver.default_config with Webserver.profile; pacing = p; seed = cfg.Exp_config.seed }
  in
  let base = throughput cfg (base_cfg Webserver.No_pacing) in
  let hw = throughput cfg (base_cfg (Webserver.Hw_pacing (Time_ns.of_us 20.0))) in
  let soft = throughput cfg (base_cfg Webserver.Soft_pacing) in
  {
    intr_scale = scale;
    hw_overhead_pct = 100.0 *. (1.0 -. (hw /. base));
    soft_overhead_pct = 100.0 *. (1.0 -. (soft /. base));
  }

let polling_at cfg ~sensitivity =
  let locality = { Cache.flash with Cache.sensitivity } in
  let base_cfg net =
    {
      Webserver.default_config with
      Webserver.kind = Webserver.Flash;
      net;
      locality_override = Some locality;
      seed = cfg.Exp_config.seed;
    }
  in
  let intr = throughput cfg (base_cfg Webserver.Interrupts) in
  let polled = throughput cfg (base_cfg (Webserver.Soft_polling 5.0)) in
  { sensitivity; polling_ratio = polled /. intr }

let scales (cfg : Exp_config.t) =
  if cfg.Exp_config.quick then [ 0.5; 1.0; 2.0 ] else [ 0.25; 0.5; 1.0; 1.5; 2.0 ]

let sensitivities (cfg : Exp_config.t) =
  if cfg.Exp_config.quick then [ 0.0; 2.0 ] else [ 0.0; 0.5; 1.0; 2.0; 3.0 ]

(* Each cell is an independent simulation from an explicit seed, so
   the sweep fans out across domains; [Runner.map_sim] returns results
   in input order (and merges any captured traces in the same order),
   keeping the table and trace digest identical to a sequential run. *)
(* DEAD001: the rows the experiment tests check. *)
let[@lint.allow "DEAD001"] compute cfg =
  {
    pacing = Runner.map_sim (fun s -> pacing_at cfg ~scale:s) (scales cfg);
    polling = Runner.map_sim (fun s -> polling_at cfg ~sensitivity:s) (sensitivities cfg);
  }

let render _cfg r =
  let open Tablefmt in
  let t1 =
    create
      ~title:
        "Extension -- sensitivity: pacing overhead (Apache) vs per-interrupt cost (x4.45 us)"
      ~columns:
        [ ("interrupt cost scale", Right); ("HW-timer overhead", Right); ("soft overhead", Right) ]
  in
  List.iter
    (fun row ->
      add_row t1
        [
          Printf.sprintf "x%.2f" row.intr_scale;
          cell_f ~decimals:1 row.hw_overhead_pct ^ "%";
          cell_f ~decimals:1 row.soft_overhead_pct ^ "%";
        ])
    r.pacing;
  let t2 =
    create
      ~title:
        "Extension -- sensitivity: polling win (Flash, quota 5) vs cache-locality sensitivity"
      ~columns:[ ("sensitivity", Right); ("polled/interrupt throughput", Right) ]
  in
  List.iter
    (fun row ->
      add_row t2
        [ Printf.sprintf "%.1f" row.sensitivity; Printf.sprintf "%.3f" row.polling_ratio ])
    r.polling;
  render t1 ^ "\n" ^ render t2
  ^ "  expected: the hardware/soft pacing gap persists at half and double the measured\n\
    \  interrupt cost; polling keeps winning even with no pollution to avoid, and the\n\
    \  win grows with locality sensitivity (the paper's Flash-vs-Apache ordering).\n"

let run cfg =
  Exp_config.header "Extension: cost-model sensitivity" ^ render cfg (compute cfg)
