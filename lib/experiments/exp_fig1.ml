type row = {
  ticks : int64;
  events : int;
  min_delay_ticks : float;
  max_delay_ticks : float;
  bound_violations : int;
}

(* A deliberately hostile trigger process: long, irregular gaps so that
   events routinely miss their due time and must be caught by the backup
   interrupt clock. *)
let start_sparse_triggers machine rng =
  let gap = Dist.Mixture [ (0.6, Dist.Exponential 120.0); (0.4, Dist.Uniform (300.0, 2_500.0)) ] in
  let rec loop _now =
    let u = Dist.draw gap rng in
    Kernel.user machine ~work_us:u (fun _ -> Kernel.syscall machine ~work_us:2.0 loop)
  in
  loop 0

(* DEAD001: the rows the experiment tests check. *)
let[@lint.allow "DEAD001"] compute (cfg : Exp_config.t) =
  let trials = if cfg.Exp_config.quick then 300 else 3_000 in
  let per_t ticks =
    let engine = Engine.create () in
    let machine = Machine.create engine in
    let st = Softtimer.attach machine in
    let rng = Prng.create ~seed:cfg.Exp_config.seed in
    start_sparse_triggers machine rng;
    let x = Int64.to_float (Softtimer.x_ratio st) in
    let tick_hz = Int64.to_float (Softtimer.measure_resolution st) in
    let events = ref 0 in
    let min_d = ref infinity and max_d = ref neg_infinity in
    let violations = ref 0 in
    (* One event is outstanding at a time; [sched] is its schedule-time
       measurement tick. *)
    let kind = ref Softtimer.null_kind and sched = ref 0L in
    let arm () =
      if !events < trials then begin
        sched := Softtimer.measure_time st;
        ignore (Softtimer.schedule_soft_event st ~ticks !kind 0 : Softtimer.handle)
      end
    in
    kind :=
      Softtimer.register st ~name:"fig1" (fun now _ ->
          let actual_ticks = float_of_int now /. 1e9 *. tick_hz -. Int64.to_float !sched in
          incr events;
          if actual_ticks < !min_d then min_d := actual_ticks;
          if actual_ticks > !max_d then max_d := actual_ticks;
          if actual_ticks <= Int64.to_float ticks
             || actual_ticks >= Int64.to_float ticks +. x +. 1.0
          then incr violations;
          arm ());
    arm ();
    (* Generous horizon: each event takes at most ~1 ms (the backup). *)
    Engine.run_until engine (Time_ns.of_sec (float_of_int trials *. 0.004));
    {
      ticks;
      events = !events;
      min_delay_ticks = !min_d;
      max_delay_ticks = !max_d;
      bound_violations = !violations;
    }
  in
  List.map per_t [ 0L; 300L; 3_000L; 30_000L ]

let render _cfg rows =
  let open Tablefmt in
  let t =
    create ~title:"Figure 1 -- soft-timer firing window: T < actual < T + X + 1 (ticks)"
      ~columns:
        [
          ("T (ticks)", Right);
          ("events", Right);
          ("min actual-sched", Right);
          ("max actual-sched", Right);
          ("T+X+1", Right);
          ("violations", Right);
        ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          Int64.to_string r.ticks;
          cell_i r.events;
          cell_f ~decimals:0 r.min_delay_ticks;
          cell_f ~decimals:0 r.max_delay_ticks;
          Int64.to_string (Int64.add r.ticks 300_001L);
          cell_i r.bound_violations;
        ])
    rows;
  render t
  ^ Exp_config.paper_note
      "the window is (T, T + X + 1) with X = 300e6/1e3 = 300000 ticks on the P-II profile; \
       0 violations expected"

let run cfg = Exp_config.header "Figure 1: event scheduling bounds" ^ render cfg (compute cfg)
