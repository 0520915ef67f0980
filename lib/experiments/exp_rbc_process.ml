type row = {
  min_interval_us : float;
  avg_interval_us : float;
  stddev_us : float;
  sends : int;
}

type table = {
  target_us : float;
  soft : row list;
  hw_avg_us : float;
  hw_stddev_us : float;
  hw_lost_pct : float;
}

let a_flow_send = Profile.intern [ "kernel"; "ip_output"; "rbc_flow" ]

(* Every transmission of the measured flow is a real trip through the IP
   output loop of the busy machine (the flow's own 1 Gbps interface). *)
let send_cost machine _now =
  Machine.submit_quantum machine ~attr:a_flow_send ~prio:Cpu.prio_kernel ~work_us:7.0
    ~trigger:(Some Trigger.Ip_output)
    (fun _ -> ());
  true

let soft_cell (cfg : Exp_config.t) ~target_us ~min_us =
  let wcfg =
    { Webserver.default_config with Webserver.attach_facility = true; seed = cfg.Exp_config.seed }
  in
  let t = Webserver.create wcfg in
  let st = match Webserver.facility t with Some s -> s | None -> assert false in
  let machine = Webserver.machine t in
  let clock =
    (* Each table cell reads its own clock's mean/stddev, so the clock
       opts out of the shared cohort histogram. *)
    Rate_clock.create st
      ~intervals:(Hdr.create ~lowest:0.01 ())
      ~target_interval:(Time_ns.of_us target_us)
      ~min_interval:(Time_ns.of_us min_us)
      ~send:(send_cost machine)
      ()
  in
  Engine.schedule_after (Webserver.engine t) (Exp_config.warmup cfg) (fun () ->
      Rate_clock.start clock);
  Webserver.run t ~warmup:(Exp_config.warmup cfg) ~measure:(Exp_config.measure cfg);
  let s = Rate_clock.intervals clock in
  {
    min_interval_us = min_us;
    avg_interval_us = Hdr.mean s;
    stddev_us = Hdr.stddev s;
    sends = Rate_clock.sends clock;
  }

let hw_cell (cfg : Exp_config.t) ~target_us =
  let wcfg = { Webserver.default_config with Webserver.seed = cfg.Exp_config.seed } in
  let t = Webserver.create wcfg in
  let machine = Webserver.machine t in
  let pacer =
    Hw_pacer.create machine ~interval:(Time_ns.of_us target_us) ~send:(send_cost machine) ()
  in
  Engine.schedule_after (Webserver.engine t) (Exp_config.warmup cfg) (fun () ->
      Hw_pacer.start pacer);
  Webserver.run t ~warmup:(Exp_config.warmup cfg) ~measure:(Exp_config.measure cfg);
  let s = Hw_pacer.intervals pacer in
  ( Hdr.mean s,
    Hdr.stddev s,
    100.0 *. float_of_int (Hw_pacer.ticks_lost pacer)
    /. float_of_int (max 1 (Hw_pacer.ticks_raised pacer)) )

let min_intervals (cfg : Exp_config.t) =
  if cfg.Exp_config.quick then [ 12.0; 20.0; 35.0 ] else [ 12.0; 15.0; 20.0; 25.0; 30.0; 35.0 ]

(* DEAD001: the rows the experiment tests check. *)
let[@lint.allow "DEAD001"] compute cfg =
  let per_target target_us =
    let soft = List.map (fun m -> soft_cell cfg ~target_us ~min_us:m) (min_intervals cfg) in
    let hw_avg, hw_std, hw_lost = hw_cell cfg ~target_us in
    { target_us; soft; hw_avg_us = hw_avg; hw_stddev_us = hw_std; hw_lost_pct = hw_lost }
  in
  [ per_target 40.0; per_target 60.0 ]

let paper_soft = function
  | 40.0, 12.0 -> Some (40.0, 34.5)
  | 40.0, 15.0 -> Some (48.0, 31.6)
  | 40.0, 20.0 -> Some (51.9, 30.9)
  | 40.0, 25.0 -> Some (57.5, 30.9)
  | 40.0, 30.0 -> Some (61.0, 30.5)
  | 40.0, 35.0 -> Some (65.9, 30.1)
  | 60.0, 12.0 -> Some (60.0, 35.9)
  | 60.0, 15.0 -> Some (60.0, 33.2)
  | 60.0, 20.0 -> Some (60.0, 32.3)
  | 60.0, 25.0 -> Some (60.0, 31.2)
  | 60.0, 30.0 -> Some (61.0, 30.5)
  | 60.0, 35.0 -> Some (65.9, 30.0)
  | _ -> None

let render _cfg tables =
  let open Tablefmt in
  String.concat "\n"
    (List.map
       (fun tab ->
         let t =
           create
             ~title:
               (Printf.sprintf
                  "Table %d -- rate-based clocking, target transmission interval = %.0f us"
                  (if tab.target_us = 40.0 then 4 else 5)
                  tab.target_us)
             ~columns:
               [
                 ("min intvl (us)", Right);
                 ("soft avg (us)", Right);
                 ("soft stddev", Right);
                 ("paper avg", Right);
                 ("paper stddev", Right);
               ]
         in
         List.iter
           (fun r ->
             let pa, ps =
               match paper_soft (tab.target_us, r.min_interval_us) with
               | Some (a, s) -> (cell_f ~decimals:1 a, cell_f ~decimals:1 s)
               | None -> ("-", "-")
             in
             add_row t
               [
                 cell_f ~decimals:0 r.min_interval_us;
                 cell_f ~decimals:1 r.avg_interval_us;
                 cell_f ~decimals:1 r.stddev_us;
                 pa;
                 ps;
               ])
           tab.soft;
         add_rule t;
         let paper_hw = if tab.target_us = 40.0 then (43.6, 26.8) else (63.0, 27.7) in
         add_row t
           [
             "hardware timer";
             cell_f ~decimals:1 tab.hw_avg_us;
             cell_f ~decimals:1 tab.hw_stddev_us;
             cell_f ~decimals:1 (fst paper_hw);
             cell_f ~decimals:1 (snd paper_hw);
           ];
         render t
         ^ Printf.sprintf "  hardware timer ticks lost to disabled sections: %.1f%%\n"
             tab.hw_lost_pct)
       tables)

let run cfg =
  Exp_config.header "Tables 4/5: rate-clocked transmission process" ^ render cfg (compute cfg)
