type row = {
  segments : int;
  regular_xput_mbps : float;
  regular_ms : float;
  paced_xput_mbps : float;
  paced_ms : float;
  reduction_pct : float;
}

type table = { bottleneck_mbps : float; rows : row list }

let sizes (cfg : Exp_config.t) =
  if cfg.Exp_config.quick then [ 5; 100; 1000 ] else [ 5; 100; 1_000; 10_000; 100_000 ]

let one_row ~bottleneck_bps segments =
  let delay = Time_ns.of_ms 50.0 in
  let r = Session.run_transfer ~bottleneck_bps ~one_way_delay:delay ~segments `Regular in
  let p = Session.run_transfer ~bottleneck_bps ~one_way_delay:delay ~segments `Paced in
  let rms = Time_ns.to_ms r.Session.response_time in
  let pms = Time_ns.to_ms p.Session.response_time in
  {
    segments;
    regular_xput_mbps = r.Session.throughput_bps /. 1e6;
    regular_ms = rms;
    paced_xput_mbps = p.Session.throughput_bps /. 1e6;
    paced_ms = pms;
    reduction_pct = 100.0 *. (1.0 -. (pms /. rms));
  }

(* DEAD001 here and below: the rows the experiment tests check. *)
let[@lint.allow "DEAD001"] compute cfg =
  List.map
    (fun mbps ->
      { bottleneck_mbps = mbps; rows = List.map (one_row ~bottleneck_bps:(mbps *. 1e6)) (sizes cfg) })
    [ 50.0; 100.0 ]

let paper =
  [
    ( 50.0,
      [
        (5, (0.12, 496., 0.57, 101.2, 79.));
        (100, (1.01, 1145., 9.36, 123.7, 89.));
        (1000, (6.75, 1714., 34.07, 340., 80.));
        (10000, (29.95, 3867., 46.33, 2500., 35.));
        (100000, (45.54, 25432., 46.60, 24863., 2.));
      ] );
    ( 100.0,
      [
        (5, (0.16, 350., 0.58, 100.6, 71.));
        (100, (1.09, 1056., 10.34, 112., 89.));
        (1000, (6.38, 1815., 51.94, 223., 87.));
        (10000, (38.46, 3012., 86.77, 1335., 55.));
        (100000, (81.37, 14235., 91.92, 12601., 11.));
      ] );
  ]

let[@lint.allow "DEAD001"] render _cfg tables =
  let open Tablefmt in
  String.concat "\n"
    (List.map
       (fun tab ->
         let t =
           create
             ~title:
               (Printf.sprintf
                  "Table %d -- rate-based clocking over the WAN (bottleneck %.0f Mbps, RTT 100 ms)"
                  (if tab.bottleneck_mbps = 50.0 then 6 else 7)
                  tab.bottleneck_mbps)
             ~columns:
               [
                 ("segments", Right);
                 ("TCP Mbps", Right);
                 ("TCP ms", Right);
                 ("paced Mbps", Right);
                 ("paced ms", Right);
                 ("reduction", Right);
               ]
         in
         let paper_rows = List.assoc tab.bottleneck_mbps paper in
         List.iter
           (fun r ->
             add_row t
               [
                 cell_i r.segments;
                 cell_f r.regular_xput_mbps;
                 cell_f ~decimals:1 r.regular_ms;
                 cell_f r.paced_xput_mbps;
                 cell_f ~decimals:1 r.paced_ms;
                 cell_pct ~decimals:0 (r.reduction_pct /. 100.0);
               ];
             match List.assoc_opt r.segments paper_rows with
             | Some (rx, rms, px, pms, red) ->
               add_row t
                 [
                   "  [paper]";
                   cell_f rx;
                   cell_f ~decimals:1 rms;
                   cell_f px;
                   cell_f ~decimals:1 pms;
                   Printf.sprintf "%.0f%%" red;
                 ];
               add_rule t
             | None -> add_rule t)
           tab.rows;
         render t)
       tables)

let run cfg =
  Exp_config.header "Tables 6/7: rate-based clocking over high-BDP paths" ^ render cfg (compute cfg)
