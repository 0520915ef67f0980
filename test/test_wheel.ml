(* Tests for the hashed timing wheel, including a property-based
   equivalence check against a sorted reference model that covers
   re-arm on a small wheel, where entries of different rotations share
   slots across wrap-around. *)

let us x = Time_ns.to_int (Time_ns.of_us x)

let collect_fired wheel ~now =
  let fired = ref [] in
  let o = Timing_wheel.fire_due wheel ~now ~limit:max_int (fun due v -> fired := (due, v) :: !fired) in
  (Fire_outcome.fired o, List.rev !fired)

let test_basic_fire () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  Alcotest.(check int) "empty" 0 (Timing_wheel.pending w);
  Alcotest.(check int) "no deadline" max_int (Timing_wheel.next_deadline w);
  ignore (Timing_wheel.schedule w ~at:(us 25.0) "a" : _ Timing_wheel.handle);
  ignore (Timing_wheel.schedule w ~at:(us 55.0) "b" : _ Timing_wheel.handle);
  Alcotest.(check int) "pending 2" 2 (Timing_wheel.pending w);
  Alcotest.(check int) "earliest" (us 25.0) (Timing_wheel.next_deadline w);
  let n, fired = collect_fired w ~now:(us 30.0) in
  Alcotest.(check int) "one fired" 1 n;
  Alcotest.(check (list string)) "a fired" [ "a" ] (List.map snd fired);
  Alcotest.(check int) "next is b" (us 55.0) (Timing_wheel.next_deadline w);
  let n, fired = collect_fired w ~now:(us 100.0) in
  Alcotest.(check int) "b fired" 1 n;
  Alcotest.(check (list string)) "b" [ "b" ] (List.map snd fired);
  Alcotest.(check int) "drained" 0 (Timing_wheel.pending w)

let test_fire_order_and_ties () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  ignore (Timing_wheel.schedule w ~at:(us 40.0) "second" : _ Timing_wheel.handle);
  ignore (Timing_wheel.schedule w ~at:(us 20.0) "first" : _ Timing_wheel.handle);
  ignore (Timing_wheel.schedule w ~at:(us 40.0) "third" : _ Timing_wheel.handle);
  let _, fired = collect_fired w ~now:(us 50.0) in
  Alcotest.(check (list string)) "deadline then insertion order" [ "first"; "second"; "third" ]
    (List.map snd fired)

let test_cancel () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  let h = Timing_wheel.schedule w ~at:(us 20.0) "x" in
  ignore (Timing_wheel.schedule w ~at:(us 30.0) "y" : _ Timing_wheel.handle);
  Timing_wheel.cancel w h;
  Alcotest.(check int) "pending after cancel" 1 (Timing_wheel.pending w);
  Alcotest.(check int) "min recomputed" (us 30.0) (Timing_wheel.next_deadline w);
  Timing_wheel.cancel w h;  (* double cancel: no-op *)
  Alcotest.(check int) "still 1" 1 (Timing_wheel.pending w);
  let _, fired = collect_fired w ~now:(us 100.0) in
  Alcotest.(check (list string)) "only y fires" [ "y" ] (List.map snd fired)

let test_far_future_rotations () =
  (* An entry many rotations ahead must not fire early. *)
  let w = Timing_wheel.create_sized ~slots:8 ~tick:(us 10.0) () in
  ignore (Timing_wheel.schedule w ~at:(us 25.0) "near" : _ Timing_wheel.handle);
  (* 8 slots x 10 us = one rotation is 80 us; 1000 us is 12 rotations out
     and hashes to the same region of the wheel. *)
  ignore (Timing_wheel.schedule w ~at:(us 1_005.0) "far" : _ Timing_wheel.handle);
  let _, fired = collect_fired w ~now:(us 100.0) in
  Alcotest.(check (list string)) "only near fires" [ "near" ] (List.map snd fired);
  let _, fired = collect_fired w ~now:(us 2_000.0) in
  Alcotest.(check (list string)) "far fires later" [ "far" ] (List.map snd fired)

let test_overdue_schedule_fires () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  ignore (collect_fired w ~now:(us 500.0));
  (* Deadline in the past relative to the sweep horizon. *)
  ignore (Timing_wheel.schedule w ~at:(us 100.0) "late" : _ Timing_wheel.handle);
  let _, fired = collect_fired w ~now:(us 500.0) in
  Alcotest.(check (list string)) "overdue entry still fires" [ "late" ] (List.map snd fired)

let test_schedule_during_fire () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  ignore (Timing_wheel.schedule w ~at:(us 20.0) "a" : _ Timing_wheel.handle);
  let rescheduled = ref false in
  let n =
    Timing_wheel.fire_due w ~now:(us 30.0) ~limit:max_int (fun _ _ ->
        if not !rescheduled then begin
          rescheduled := true;
          ignore (Timing_wheel.schedule w ~at:(us 25.0) "b" : _ Timing_wheel.handle)
        end)
  in
  Alcotest.(check int) "one fired this round" 1 (Fire_outcome.fired n);
  Alcotest.(check int) "b pending" 1 (Timing_wheel.pending w);
  let n2, fired = collect_fired w ~now:(us 30.0) in
  Alcotest.(check int) "b fires next round" 1 n2;
  Alcotest.(check (list string)) "b" [ "b" ] (List.map snd fired)

(* A deadline at the end of time with 1 ns ticks, so its tick index is
   [max_int] itself, keeps its exact deadline: the minimum reports it
   and it fires once due, after the nearer entry. *)
let test_extreme_deadline () =
  let w = Timing_wheel.create_sized ~slots:8 ~tick:1 () in
  ignore (Timing_wheel.schedule w ~at:max_int "far" : _ Timing_wheel.handle);
  ignore (Timing_wheel.schedule w ~at:10 "near" : _ Timing_wheel.handle);
  let fire now =
    let fired = ref [] in
    ignore
      (Timing_wheel.fire_due w ~now ~limit:max_int (fun _ v -> fired := v :: !fired)
        : Fire_outcome.t);
    !fired
  in
  Alcotest.(check (list string)) "near first" [ "near" ] (fire 10);
  Alcotest.(check int) "far is the minimum" max_int (Timing_wheel.next_deadline w);
  Alcotest.(check (list string)) "not before its time" [] (fire (max_int - 1));
  Alcotest.(check (list string)) "far fires when due" [ "far" ] (fire max_int);
  Alcotest.(check int) "empty" 0 (Timing_wheel.pending w)

let test_invalid_args () =
  Alcotest.check_raises "tick<=0" (Invalid_argument "Timing_wheel.create: tick must be positive")
    (fun () -> ignore (Timing_wheel.create ~tick:0 () : unit Timing_wheel.t));
  Alcotest.check_raises "slots<=0" (Invalid_argument "Timing_wheel.create: slots must be positive")
    (fun () -> ignore (Timing_wheel.create_sized ~slots:0 ~tick:1 () : unit Timing_wheel.t))

(* Regression (cancel-leak): a schedule/cancel churn loop far ahead of
   the sweep horizon — a rate clock retiming its one outstanding event,
   say — once grew bucket lists without bound.  Cancel unlinks
   physically, so the resident count stays at the pending count no
   matter how many entries churn. *)
let test_cancel_churn_bounded () =
  let slots = 64 in
  let w = Timing_wheel.create_sized ~slots ~tick:(us 10.0) () in
  (* A long-lived entry keeps the wheel non-empty throughout. *)
  ignore (Timing_wheel.schedule w ~at:(us 1e9) "keeper" : _ Timing_wheel.handle);
  let worst = ref 0 in
  for i = 1 to 50_000 do
    let h = Timing_wheel.schedule w ~at:(us (100_000.0 +. float_of_int i)) "churn" in
    Timing_wheel.cancel w h;
    if Timing_wheel.resident w > !worst then worst := Timing_wheel.resident w
  done;
  Alcotest.(check bool)
    (Printf.sprintf "resident bounded (worst %d)" !worst)
    true
    (!worst <= (2 * slots) + 2);
  Alcotest.(check int) "only the keeper is pending" 1 (Timing_wheel.pending w);
  Alcotest.(check int) "only the keeper is resident" 1 (Timing_wheel.resident w);
  Alcotest.(check int) "min survives the churn" (us 1e9)
    (Timing_wheel.next_deadline w);
  let _, fired = collect_fired w ~now:(us 2e9) in
  Alcotest.(check (list string)) "keeper fires" [ "keeper" ] (List.map snd fired)

(* Re-arm across slot wrap-around: on an 8-slot wheel (one rotation =
   80 us) a re-arm one rotation later lands in the same slot as the old
   deadline, which must not fire.  Re-arm unlinks, so resident = pending
   throughout. *)
let test_rearm_wraparound () =
  let w = Timing_wheel.create_sized ~slots:8 ~tick:(us 10.0) () in
  let h = Timing_wheel.schedule w ~at:(us 25.0) "x" in
  Alcotest.(check bool) "rearm ok" true (Timing_wheel.rearm w h ~at:(us 105.0));
  Alcotest.(check int) "resident = pending" (Timing_wheel.pending w) (Timing_wheel.resident w);
  Alcotest.(check int) "one entry resident" 1 (Timing_wheel.resident w);
  Alcotest.(check int) "min moved" (us 105.0) (Timing_wheel.next_deadline w);
  let n, _ = collect_fired w ~now:(us 30.0) in
  Alcotest.(check int) "old deadline does not fire" 0 n;
  let n, fired = collect_fired w ~now:(us 110.0) in
  Alcotest.(check int) "fires once at the new deadline" 1 n;
  Alcotest.(check (list (pair int string))) "at 105 us" [ (us 105.0, "x") ] fired;
  Alcotest.(check int) "nothing resident" 0 (Timing_wheel.resident w);
  Alcotest.(check bool) "rearm after fire refused" false (Timing_wheel.rearm w h ~at:(us 500.0))

(* A stale handle — its entry fired or was cancelled, and its row now
   holds another entry — is a no-op for cancel and re-arm, reports not
   pending, and its deadline reads as zero. *)
let test_stale_handle () =
  let w = Timing_wheel.create_sized ~slots:8 ~tick:(us 10.0) () in
  let fired_h = Timing_wheel.schedule_i w ~at_i:20_000 "fired" in
  ignore (collect_fired w ~now:(us 30.0) : int * (int * string) list);
  let cancelled_h = Timing_wheel.schedule_i w ~at_i:40_000 "cancelled" in
  Timing_wheel.cancel w cancelled_h;
  (* Both rows are free again: these two reuse them. *)
  let a = Timing_wheel.schedule_i w ~at_i:50_000 "a" in
  let b = Timing_wheel.schedule_i w ~at_i:60_000 "b" in
  List.iter
    (fun (what, h) ->
      Alcotest.(check bool) (what ^ ": not pending") false (Timing_wheel.handle_pending w h);
      Alcotest.(check int) (what ^ ": deadline zero") 0
        (Timing_wheel.handle_deadline w h);
      Alcotest.(check bool) (what ^ ": rearm refused") false
        (Timing_wheel.rearm w h ~at:(us 500.0));
      Timing_wheel.cancel w h)
    [ ("fired", fired_h); ("cancelled", cancelled_h) ];
  Alcotest.(check int) "reusers still pending" 2 (Timing_wheel.pending w);
  Alcotest.(check bool) "a pending" true (Timing_wheel.handle_pending w a);
  Alcotest.(check int) "b keeps its deadline" (us 60.0) (Timing_wheel.handle_deadline w b);
  let _, fired = collect_fired w ~now:(us 100.0) in
  Alcotest.(check (list string)) "reusers fire in order" [ "a"; "b" ] (List.map snd fired)

(* A budget-withheld entry rejoins the minimum: here the first
   callback's [next_deadline] caches a later entry's deadline while the
   withheld one is out of its slot. *)
let test_withheld_rejoins_minimum () =
  let w = Timing_wheel.create_sized ~slots:8 ~tick:10 () in
  ignore (Timing_wheel.schedule w ~at:10 "a" : _ Timing_wheel.handle);
  ignore (Timing_wheel.schedule w ~at:20 "b" : _ Timing_wheel.handle);
  let o =
    Timing_wheel.fire_due w ~now:30 ~limit:1 (fun _ v ->
        if v = "a" then begin
          ignore (Timing_wheel.schedule w ~at:100 "c" : _ Timing_wheel.handle);
          ignore (Timing_wheel.next_deadline w : int)
        end)
  in
  Alcotest.(check int) "one fired" 1 (Fire_outcome.fired o);
  Alcotest.(check int) "b is the minimum" 20 (Timing_wheel.next_deadline w);
  let _, fired = collect_fired w ~now:30 in
  Alcotest.(check (list string)) "b fires next" [ "b" ] (List.map snd fired)

(* Deadlines at the ends of the int range through [schedule_i]: 0 fires
   at once, and [max_int] and [max_int - 1] keep their exact values and
   order. *)
let test_schedule_i_extremes () =
  let w = Timing_wheel.create_sized ~slots:8 ~tick:(us 10.0) () in
  ignore (Timing_wheel.schedule_i w ~at_i:max_int "max" : _ Timing_wheel.handle);
  let h = Timing_wheel.schedule_i w ~at_i:(max_int - 1) "max-1" in
  ignore (Timing_wheel.schedule_i w ~at_i:0 "zero" : _ Timing_wheel.handle);
  Alcotest.(check int) "exact near max_int" ((max_int - 1))
    (Timing_wheel.handle_deadline w h);
  Alcotest.(check int) "zero is the minimum" 0 (Timing_wheel.next_deadline w);
  let _, fired = collect_fired w ~now:0 in
  Alcotest.(check (list (pair int string))) "zero fires at 0" [ (0, "zero") ] fired;
  Alcotest.(check int) "then max_int - 1" (max_int - 1)
    (Timing_wheel.next_deadline w);
  let _, fired = collect_fired w ~now:((max_int - 1)) in
  Alcotest.(check (list string)) "max_int - 1 alone" [ "max-1" ] (List.map snd fired);
  let _, fired = collect_fired w ~now:max_int in
  Alcotest.(check (list (pair int string))) "max_int last" [ (max_int, "max") ]
    fired;
  Alcotest.(check int) "empty" 0 (Timing_wheel.pending w)

(* The batch of one: a due minimum that is the only pending row fires
   without the snapshot batch, and leaves what the batch would.  A
   raising callback finds its row already freed: the handle is stale,
   nothing is pending, and the wheel takes the next schedule. *)
exception Boom

let test_lone_row_raises () =
  let w = Timing_wheel.create_sized ~slots:8 ~tick:(us 10.0) () in
  let h = Timing_wheel.schedule w ~at:(us 20.0) "a" in
  let raised =
    match Timing_wheel.fire_due w ~now:(us 30.0) ~limit:max_int (fun _ _ -> raise Boom) with
    | _ -> false
    | exception Boom -> true
  in
  Alcotest.(check bool) "the raise propagates" true raised;
  Alcotest.(check bool) "the handle is stale" false (Timing_wheel.handle_pending w h);
  Alcotest.(check bool) "rearm refused" false (Timing_wheel.rearm w h ~at:(us 500.0));
  Alcotest.(check int) "nothing pending" 0 (Timing_wheel.pending w);
  Alcotest.(check int) "nothing resident" 0 (Timing_wheel.resident w);
  Alcotest.(check int) "no deadline" max_int (Timing_wheel.next_deadline w);
  let b = Timing_wheel.schedule w ~at:(us 40.0) "b" in
  Alcotest.(check bool) "the old handle stays stale" false (Timing_wheel.handle_pending w h);
  Alcotest.(check int) "b is the minimum" (us 40.0) (Timing_wheel.next_deadline w);
  let n, fired = collect_fired w ~now:(us 50.0) in
  Alcotest.(check int) "b fires" 1 n;
  Alcotest.(check (list string)) "only b" [ "b" ] (List.map snd fired);
  Alcotest.(check bool) "b's handle is stale" false (Timing_wheel.handle_pending w b)

(* A budget of zero withholds the lone due row with its deadline. *)
let test_lone_row_limit_zero () =
  let w = Timing_wheel.create_sized ~slots:8 ~tick:(us 10.0) () in
  let h = Timing_wheel.schedule w ~at:(us 20.0) "a" in
  let o = Timing_wheel.fire_due w ~now:(us 30.0) ~limit:0 (fun _ _ -> Alcotest.fail "fired") in
  Alcotest.(check (pair int int)) "scanned 1, fired 0" (1, 0)
    (Fire_outcome.scanned o, Fire_outcome.fired o);
  Alcotest.(check bool) "still pending" true (Timing_wheel.handle_pending w h);
  Alcotest.(check int) "deadline kept" (us 20.0) (Timing_wheel.next_deadline w);
  let _, fired = collect_fired w ~now:(us 30.0) in
  Alcotest.(check (list (pair int string))) "fires next call" [ (us 20.0, "a") ] fired;
  Alcotest.(check int) "drained" 0 (Timing_wheel.pending w)

(* A lone row at [max_int - 1] fires at [now = max_int - 1], on a
   1 ns tick (its tick index is [max_int - 1] itself) and a 10 us one. *)
let test_lone_row_end_of_time () =
  List.iter
    (fun tick ->
      let w = Timing_wheel.create_sized ~slots:8 ~tick () in
      ignore (collect_fired w ~now:(max_int - 2) : int * (int * string) list);
      ignore (Timing_wheel.schedule w ~at:(max_int - 1) "last" : _ Timing_wheel.handle);
      let n, fired = collect_fired w ~now:(max_int - 2) in
      Alcotest.(check int) "not before its time" 0 n;
      Alcotest.(check (list string)) "nothing early" [] (List.map snd fired);
      let _, fired = collect_fired w ~now:(max_int - 1) in
      Alcotest.(check (list (pair int string))) "fires at max_int - 1"
        [ (max_int - 1, "last") ] fired;
      Alcotest.(check int) "empty" max_int (Timing_wheel.next_deadline w);
      let n, _ = collect_fired w ~now:max_int in
      Alcotest.(check int) "nothing at max_int" 0 n)
    [ 1; us 10.0 ]

(* One schedule plus a [fire_due] that fires it allocates nothing: the
   deadline handed to the callback is an int.  It was 3 words while that
   deadline was a boxed int64, and 19 with the list-bucket wheel's
   handle, placement, cons and batch cells. *)
let test_cycle_alloc () =
  let w = Timing_wheel.create_sized ~slots:512 ~tick:(us 10.0) () in
  let cb _ _ = () in
  let now = ref 0 in
  let cycle () =
    now := !now + 20_000;
    ignore (Timing_wheel.schedule w ~at:!now () : unit Timing_wheel.handle);
    ignore (Timing_wheel.fire_due w ~now:!now ~limit:max_int cb : Fire_outcome.t)
  in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    cycle ()
  done;
  let per = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "schedule + fire_due allocates %.1f minor words (bound 0)" per)
    true (per <= 0.0)

(* Property: against a sorted model, under a random schedule of
   operations (schedule / cancel / re-arm / advance) on a 16-slot
   wheel, fire_due produces exactly the same (deadline, id) sequence in
   (deadline, tie) order, re-arm succeeds exactly when the entry is
   live, and pending count and next_deadline agree. *)

type op = Schedule of int | Cancel of int | Rearm of int * int | Advance of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun d -> Schedule d) (int_range 0 2_000));
        (2, map (fun i -> Cancel i) (int_range 0 50));
        (2, map2 (fun i d -> Rearm (i, d)) (int_range 0 50) (int_range 0 2_000));
        (3, map (fun d -> Advance d) (int_range 1 500));
      ])

(* A phase that keeps at most one row pending, so that its fires take
   the batch of one: an advance past every deadline (offsets are at
   most 2,000 us) drains the wheel, then each schedule is fired by one
   or two advances before the next, perhaps re-armed on the way. *)
let lone_phase_gen =
  QCheck.Gen.(
    let one =
      map3
        (fun d early rearm ->
          let fire = [ Advance (d + 1 + early) ] in
          match rearm with
          | Some (i, d') -> Schedule d :: Advance (1 + early) :: Rearm (i, d') :: Advance 2_001 :: []
          | None -> if early mod 2 = 0 then Schedule d :: fire else Schedule d :: Advance 1 :: fire)
        (int_range 0 300) (int_range 0 100)
        (opt ~ratio:0.2 (pair (int_range 0 50) (int_range 0 1_000)))
    in
    map (fun l -> Advance 2_001 :: List.concat l) (list_size (int_range 1 15) one))

let ops_gen =
  QCheck.Gen.(
    map List.concat
      (list_size (int_range 1 6)
         (frequency [ (1, list_size (int_range 1 30) op_gen); (2, lone_phase_gen) ])))

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Schedule d -> Printf.sprintf "S%d" d
             | Cancel i -> Printf.sprintf "C%d" i
             | Rearm (i, d) -> Printf.sprintf "R%d,%d" i d
             | Advance d -> Printf.sprintf "A%d" d)
           ops))
    ops_gen

type model = {
  id : int;
  h : int Timing_wheel.handle;
  mutable at : int;
  mutable tie : int;  (* bumped on schedule and re-arm *)
  mutable alive : bool;
}

(* Drive [ops] against a 16-slot wheel and the sorted model; with
   [each_op], next_deadline is compared after every operation rather
   than only at the end. *)
let agrees_with_oracle ~each_op ops =
  let w = Timing_wheel.create_sized ~slots:16 ~tick:(us 10.0) () in
  let entries = ref [] in
  let now = ref 0 in
  let ties = ref 0 in
  let ok = ref true in
  let fresh_tie () =
    incr ties;
    !ties
  in
  let pick idx = List.nth_opt !entries (idx mod max 1 (List.length !entries)) in
  let expected_min () =
    List.fold_left (fun acc e -> if e.alive then Int.min acc e.at else acc) max_int !entries
  in
  List.iter
    (fun op ->
      (match op with
      | Schedule offset_us ->
        let at = !now + us (float_of_int offset_us) in
        let id = List.length !entries in
        let h = Timing_wheel.schedule w ~at id in
        entries := { id; h; at; tie = fresh_tie (); alive = true } :: !entries
      | Cancel idx ->
        Option.iter
          (fun e ->
            Timing_wheel.cancel w e.h;
            e.alive <- false)
          (pick idx)
      | Rearm (idx, offset_us) ->
        Option.iter
          (fun e ->
            let at = !now + us (float_of_int offset_us) in
            let moved = Timing_wheel.rearm w e.h ~at in
            if moved <> e.alive then ok := false;
            if moved then begin
              e.at <- at;
              e.tie <- fresh_tie ()
            end)
          (pick idx)
      | Advance d ->
        now := !now + us (float_of_int d);
        let fired = ref [] in
        ignore
          (Timing_wheel.fire_due w ~now:!now ~limit:max_int (fun due id ->
               fired := (due, id) :: !fired)
            : Fire_outcome.t);
        let due =
          List.filter (fun e -> e.alive && e.at <= !now) !entries
          |> List.sort (fun a b -> compare (a.at, a.tie) (b.at, b.tie))
        in
        List.iter (fun e -> e.alive <- false) due;
        if List.rev !fired <> List.map (fun e -> (e.at, e.id)) due then ok := false);
      if each_op && Timing_wheel.next_deadline w <> expected_min () then ok := false)
    ops;
  !ok
  && Timing_wheel.pending w = List.length (List.filter (fun e -> e.alive) !entries)
  && Timing_wheel.next_deadline w = expected_min ()

let test_oracle_equivalence =
  QCheck.Test.make ~name:"wheel = sorted model" ~count:300 ops_arbitrary
    (agrees_with_oracle ~each_op:false)

(* [next_deadline] equals the true minimum pending deadline after every
   operation, including the lazy min-cache invalidation paths exercised
   by cancel- or re-arm-of-minimum and by firing. *)
let test_next_deadline_always_min =
  QCheck.Test.make ~name:"next_deadline = true min after every op" ~count:300 ops_arbitrary
    (agrees_with_oracle ~each_op:true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "timing_wheel"
    [
      ( "unit",
        [
          Alcotest.test_case "basic scheduling and firing" `Quick test_basic_fire;
          Alcotest.test_case "fire order and ties" `Quick test_fire_order_and_ties;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "far-future rotations" `Quick test_far_future_rotations;
          Alcotest.test_case "overdue schedule fires" `Quick test_overdue_schedule_fires;
          Alcotest.test_case "schedule during fire" `Quick test_schedule_during_fire;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "deadline beyond the int tick range" `Quick test_extreme_deadline;
          Alcotest.test_case "cancel churn stays bounded" `Quick test_cancel_churn_bounded;
          Alcotest.test_case "rearm across slot wrap-around" `Quick test_rearm_wraparound;
          Alcotest.test_case "stale handle after row reuse" `Quick test_stale_handle;
          Alcotest.test_case "schedule_i at the int range's ends" `Quick test_schedule_i_extremes;
          Alcotest.test_case "withheld entry rejoins the minimum" `Quick test_withheld_rejoins_minimum;
          Alcotest.test_case "lone due row raises" `Quick test_lone_row_raises;
          Alcotest.test_case "lone due row under limit 0" `Quick test_lone_row_limit_zero;
          Alcotest.test_case "lone row at the end of time" `Quick test_lone_row_end_of_time;
          Alcotest.test_case "schedule + fire allocation" `Quick test_cycle_alloc;
        ] );
      ("property", [ qc test_oracle_equivalence; qc test_next_deadline_always_min ]);
    ]
