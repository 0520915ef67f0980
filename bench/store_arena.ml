(* Head-to-head timer-store arena: every Timer_store backend under the
   same server-like workloads at large live-timer populations.

   dune exec bench/store_arena.exe -- [--n N] [--ops K] [--seed S] [--out FILE]

   Three workloads, each at a steady population of N live timers:

     schedule_fire  advance time, fire what is due, schedule a
                    replacement from each callback (steady-state
                    connection timers; stresses fire_due + schedule).
     rearm_churn    re-arm a random live timer per op (the rate-clock /
                    TCP-retransmit pattern; stresses rearm, which the
                    wheels serve by relinking the entry's own slab row
                    under a fresh tie position).
     cancel_churn   cancel a random live timer and schedule a fresh one
                    per op (stresses cancellation residency: lazy-cancel
                    stores must compact, physical stores must unlink).

   Durations are drawn from a small discrete set (fixed protocol
   timeouts, as in a real stack), so per-duration stores (lawn) see a
   realistic bucket count rather than a degenerate one-bucket-per-timer
   universe.

   The ns/op figures are wall-clock (allowlisted for lint DET001); the
   fired/rearm/resident counts are deterministic functions of (--seed,
   --n, --ops). *)

(* DET001: ns/op is wall-clock by definition here; every reproducible
   output (fired/rearm/resident counts) derives only from the seeded
   Prng, never from the clock. *)
[@@@lint.allow "DET001"]

(* Fixed timeout classes, 100 us .. 500 ms. *)
let durations_us =
  [| 100.0; 250.0; 500.0; 1_000.0; 2_500.0; 5_000.0; 10_000.0;
     25_000.0; 50_000.0; 100_000.0; 250_000.0; 500_000.0 |]

let ns_of_us us = Time_ns.to_int (Time_ns.of_us us)
let pick_duration rng = ns_of_us durations_us.(Prng.int rng (Array.length durations_us))

type metrics = {
  ns_per_op : float;
  fired : int;
  rearms : int;
  max_resident : int;
  final_pending : int;
  major_mb : float;  (* major-heap size after the workload, MiB *)
  store_words : int;  (* analytic store footprint after the workload *)
  words_per_timer : float;  (* store_words / final resident population *)
}

type workload = Schedule_fire | Rearm_churn | Cancel_churn

let workload_name = function
  | Schedule_fire -> "schedule_fire"
  | Rearm_churn -> "rearm_churn"
  | Cancel_churn -> "cancel_churn"

let run_cell (module M : Timer_store.S) ~which ~n ~ops ~seed =
  let rng = Prng.create ~seed in
  let t = M.create ~tick:(ns_of_us 10.0) () in
  let clock = ref 0 in
  let fired = ref 0 and rearms = ref 0 and max_resident = ref 0 in
  let handles = Array.make (max 1 n) None in
  for i = 0 to n - 1 do
    let at = !clock + pick_duration rng in
    handles.(i) <- Some (M.schedule t ~at i)
  done;
  let note_resident () =
    let r = M.resident t in
    if r > !max_resident then max_resident := r
  in
  note_resident ();
  (* Steady-state fire rate is N / mean-duration; scale the per-op time
     advance so each fire_step expires a few timers regardless of N
     (otherwise large arenas drown in expiry volume and measure nothing
     else). *)
  let adv_us = 156_000.0 /. float_of_int (max 1 n) in
  let fire_step advance_us =
    clock := !clock + ns_of_us advance_us;
    let earliest = M.next_deadline t in
    if earliest <= !clock then
      fired :=
        !fired
        + Fire_outcome.fired
            (M.fire_due t ~now:!clock ~limit:max_int (fun _ i ->
                 (* Replace the fired timer so the population holds at N. *)
                 let at = !clock + pick_duration rng in
                 handles.(i) <- Some (M.schedule t ~at i)))
  in
  (* Wall-clock read (lint DET001): allowlisted — the measurand here is
     real elapsed time per operation; no simulated result depends on
     it. *)
  let t0 = Unix.gettimeofday () in
  let (), gc =
    Bench_mem.measure (fun () ->
        match which with
        | Schedule_fire ->
          for k = 1 to ops do
            fire_step (adv_us *. Dist.draw (Dist.Uniform (0.5, 1.5)) rng);
            if k land 1023 = 0 then note_resident ()
          done
        | Rearm_churn ->
          for k = 1 to ops do
            (if n > 0 then
               let i = Prng.int rng n in
               match handles.(i) with
               | Some h ->
                 let at = !clock + pick_duration rng in
                 if M.rearm t h ~at then incr rearms
               | None -> ());
            (* Let time move so re-arms race real expiries, not a frozen clock. *)
            if k land 63 = 0 then fire_step (64.0 *. adv_us);
            if k land 1023 = 0 then note_resident ()
          done
        | Cancel_churn ->
          for k = 1 to ops do
            (if n > 0 then begin
               let i = Prng.int rng n in
               (match handles.(i) with Some h -> M.cancel t h | None -> ());
               let at = !clock + pick_duration rng in
               handles.(i) <- Some (M.schedule t ~at i)
             end);
            if k land 63 = 0 then fire_step (64.0 *. adv_us);
            if k land 1023 = 0 then note_resident ()
          done)
  in
  let dt = Unix.gettimeofday () -. t0 in
  note_resident ();
  let store_words = M.words t in
  let resident = max 1 (M.resident t) in
  {
    ns_per_op = dt /. float_of_int (max 1 ops) *. 1e9;
    fired = !fired;
    rearms = !rearms;
    max_resident = !max_resident;
    final_pending = M.pending t;
    major_mb = float_of_int gc.Bench_mem.d_heap_words *. 8.0 /. (1024.0 *. 1024.0);
    store_words;
    words_per_timer = float_of_int store_words /. float_of_int resident;
  }

let run_store (module M : Timer_store.S) ~n ~ops ~seed =
  List.map
    (fun which -> (which, n, ops, run_cell (module M) ~which ~n ~ops ~seed))
    [ Schedule_fire; Rearm_churn; Cancel_churn ]

let () =
  let n = ref 1_000_000 in
  let ops = ref 200_000 in
  let seed = ref 7 in
  let out = ref None in
  let usage () =
    prerr_endline "usage: store_arena.exe [--n LIVE_TIMERS] [--ops K] [--seed S] [--out FILE]";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--n" :: v :: rest ->
      (match int_of_string_opt v with Some x when x > 0 -> n := x | _ -> usage ());
      parse rest
    | "--ops" :: v :: rest ->
      (match int_of_string_opt v with Some x when x > 0 -> ops := x | _ -> usage ());
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some x -> seed := x | _ -> usage ());
      parse rest
    | "--out" :: v :: rest ->
      out := Some v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "Timer-store arena: %d live timers, %d ops per workload, seed %d" !n !ops !seed;
  line "(ns/op is wall-clock; counts are deterministic per seed)";
  line "";
  line
    "| store | workload | live N | ops | ns/op | fired | rearms | max resident | final \
     pending | major MiB | words/timer |";
  line "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|";
  List.iter
    (fun (module M : Timer_store.S) ->
      List.iter
        (fun (which, live, ops, m) ->
          line "| %s | %s | %d | %d | %.0f | %d | %d | %d | %d | %.1f | %.1f |" M.name
            (workload_name which) live ops m.ns_per_op m.fired m.rearms m.max_resident
            m.final_pending m.major_mb m.words_per_timer)
        (run_store (module M) ~n:!n ~ops:!ops ~seed:!seed);
      (* One store's arena at a time: drop its millions of nodes before
         building the next store's. *)
      Gc.compact ())
    Store_registry.all;
  print_string (Buffer.contents buf);
  match !out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf));
    Printf.printf "wrote %s\n" path
