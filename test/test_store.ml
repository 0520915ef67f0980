(* Cross-backend equivalence for every Timer_store implementation:
   each store is driven through random schedule / cancel / re-arm /
   advance interleavings — including callbacks that schedule, cancel and
   re-arm during fire_due — and must produce a trace identical to the
   naive Reference model's, observation for observation. *)

let us x = Time_ns.to_int (Time_ns.of_us x)

(* What a timer's callback does when it fires. *)
type cb_action =
  | Cb_noop
  | Cb_schedule of int  (* schedule a fresh timer [off] us after now *)
  | Cb_cancel of int  (* cancel timer (idx mod ids-so-far) *)
  | Cb_rearm of int * int  (* re-arm that timer to now + off *)

type op =
  | Schedule of int * cb_action  (* offset us from now *)
  | Cancel of int  (* idx mod ids-so-far *)
  | Rearm of int * int
  | Advance of int

(* Drive [ops] against one store, emitting every observable into a
   trace string: fired (id, deadline) sequences, fire_due return
   values, rearm results, and pending/next_deadline after each op. *)
let run_store (module M : Timer_store.S) (ops : op list) : string =
  let buf = Buffer.create 512 in
  let t = M.create ~tick:(us 10.0) () in
  let handles : (int, int M.handle) Hashtbl.t = Hashtbl.create 64 in
  let actions : (int, cb_action) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  let now = ref 0 in
  let sched at action =
    let id = !next_id in
    incr next_id;
    let h = M.schedule t ~at id in
    Hashtbl.replace handles id h;
    Hashtbl.replace actions id action;
    id
  in
  let target idx =
    if !next_id = 0 then None
    else begin
      let id = idx mod !next_id in
      match Hashtbl.find_opt handles id with Some h -> Some (id, h) | None -> None
    end
  in
  let do_cancel idx =
    match target idx with
    | Some (id, h) ->
      M.cancel t h;
      Printf.sprintf "C%d:%b" id (M.handle_pending t h)
    | None -> "C-"
  in
  let do_rearm idx off =
    match target idx with
    | Some (id, h) ->
      let at = !now + us (float_of_int off) in
      let r = M.rearm t h ~at in
      Printf.sprintf "R%d@%d:%b" id at r
    | None -> "R-"
  in
  let obs () =
    Buffer.add_string buf
      (Printf.sprintf "|p=%d,nd=%d\n" (M.pending t)
         (M.next_deadline t))
  in
  List.iter
    (fun op ->
      (match op with
      | Schedule (off, action) ->
        let at = !now + us (float_of_int off) in
        let id = sched at action in
        Buffer.add_string buf (Printf.sprintf "S%d@%d" id at)
      | Cancel idx -> Buffer.add_string buf (do_cancel idx)
      | Rearm (idx, off) -> Buffer.add_string buf (do_rearm idx off)
      | Advance d ->
        now := !now + us (float_of_int d);
        Buffer.add_string buf (Printf.sprintf "A@%d[" !now);
        let n =
          M.fire_due t ~now:!now ~limit:max_int (fun dl id ->
              Buffer.add_string buf (Printf.sprintf "%d@%d " id dl);
              match Hashtbl.find_opt actions id with
              | Some Cb_noop | None -> ()
              | Some (Cb_schedule off) ->
                let at = !now + us (float_of_int off) in
                let id' = sched at Cb_noop in
                Buffer.add_string buf (Printf.sprintf "s%d " id')
              | Some (Cb_cancel idx) -> Buffer.add_string buf (do_cancel idx ^ " ")
              | Some (Cb_rearm (idx, off)) -> Buffer.add_string buf (do_rearm idx off ^ " "))
        in
        Buffer.add_string buf
          (Printf.sprintf "]=%d/%d" (Fire_outcome.fired n) (Fire_outcome.scanned n)));
      obs ())
    ops;
  Buffer.contents buf

let pp_action = function
  | Cb_noop -> ""
  | Cb_schedule o -> Printf.sprintf "!s%d" o
  | Cb_cancel i -> Printf.sprintf "!c%d" i
  | Cb_rearm (i, o) -> Printf.sprintf "!r%d,%d" i o

let pp_ops ops =
  String.concat ";"
    (List.map
       (function
         | Schedule (o, a) -> Printf.sprintf "S%d%s" o (pp_action a)
         | Cancel i -> Printf.sprintf "C%d" i
         | Rearm (i, o) -> Printf.sprintf "R%d,%d" i o
         | Advance d -> Printf.sprintf "A%d" d)
       ops)

let cb_action_gen =
  QCheck.Gen.(
    frequency
      [
        (5, return Cb_noop);
        (2, map (fun o -> Cb_schedule o) (int_range 0 1_000));
        (2, map (fun i -> Cb_cancel i) (int_range 0 999));
        (2, map (fun (i, o) -> Cb_rearm (i, o)) (pair (int_range 0 999) (int_range 0 1_500)));
      ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun o a -> Schedule (o, a)) (int_range 0 2_000) cb_action_gen);
        (2, map (fun i -> Cancel i) (int_range 0 999));
        (3, map (fun (i, o) -> Rearm (i, o)) (pair (int_range 0 999) (int_range 0 2_000)));
        (3, map (fun d -> Advance d) (int_range 1 500));
      ])

let ops_arbitrary =
  QCheck.make ~print:pp_ops QCheck.Gen.(list_size (int_range 1 120) op_gen)

(* The registry's exact stores plus an 8-slot wheel: with a one-rotation
   horizon of 80 us, re-arm corpses and live entries share slots across
   wrap-around, which the 512-slot default rarely reaches. *)
let exact_inputs =
  List.map (fun (module M : Timer_store.S) -> (M.name, (module M : Timer_store.S))) Store_registry.exact
  @ [ ("wheel[8]", Timer_store.wheel ~slots:8 ()) ]

let equivalence_tests =
  List.map
    (fun (label, (module M : Timer_store.S)) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s = reference model" label)
        ~count:200 ops_arbitrary
        (fun ops ->
          let got = run_store (module M) ops in
          let want = run_store (module Timer_store.Reference) ops in
          if String.equal got want then true
          else QCheck.Test.fail_reportf "%s diverged:\n--- %s\n%s\n--- reference\n%s" label
              label got want))
    exact_inputs

(* The approximate store fires at bucket-rounded deadlines, so its
   oracle is the reference model behind the same quantization
   ([Timer_store.Quantize]): trace equality then checks the full §7.1
   contract plus the rounding clause in one shot.  The granularity is
   the 10 µs tick [run_store] creates every store with; the generator's
   whole-µs offsets make most deadlines land off-grid, so rounding is
   genuinely exercised.  Small sized instances force level-1 epoch
   turnover, level-2 cascades, bucket-index reuse and far-list
   re-routing inside the generator's 2 ms deadline range. *)
module Quantized_reference = Timer_store.Quantize (Timer_store.Reference)

module Pacing_wheel_8 = struct
  include Pacing_wheel

  let create ~tick () = create_sized ~buckets:8 ~tick ()
end

module Pacing_wheel_32 = struct
  include Pacing_wheel

  let create ~tick () = create_sized ~buckets:32 ~tick ()
end

let approx_equivalence_tests =
  List.map
    (fun (label, (module M : Timer_store.S)) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s = quantized reference" label)
        ~count:200 ops_arbitrary
        (fun ops ->
          let got = run_store (module M) ops in
          let want = run_store (module Quantized_reference) ops in
          if String.equal got want then true
          else QCheck.Test.fail_reportf "%s diverged:\n--- %s\n%s\n--- quantized reference\n%s"
              label label got want))
    [
      ("pacing-wheel", (module Pacing_wheel : Timer_store.S));
      ("pacing-wheel[8]", (module Pacing_wheel_8));
      ("pacing-wheel[32]", (module Pacing_wheel_32));
    ]

(* Residency must stay O(live) for every store under every random
   workload — the generalisation of the cancel-leak regression. *)
let residency_tests =
  List.map
    (fun (label, (module M : Timer_store.S)) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s residency O(live)" label)
        ~count:100 ops_arbitrary
        (fun ops ->
          let t = M.create ~tick:(us 10.0) () in
          let handles = ref [] in
          let now = ref 0 in
          let ok = ref true in
          let check () =
            if M.resident t > 2 * max (M.pending t) 512 then ok := false
          in
          List.iter
            (fun op ->
              (match op with
              | Schedule (off, _) ->
                let at = !now + us (float_of_int off) in
                handles := M.schedule t ~at 0 :: !handles
              | Cancel idx -> begin
                match List.nth_opt !handles (idx mod max 1 (List.length !handles)) with
                | Some h -> M.cancel t h
                | None -> ()
              end
              | Rearm (idx, off) -> begin
                match List.nth_opt !handles (idx mod max 1 (List.length !handles)) with
                | Some h ->
                  ignore (M.rearm t h ~at:(!now + us (float_of_int off)) : bool)
                | None -> ()
              end
              | Advance d ->
                now := !now + us (float_of_int d);
                ignore (M.fire_due t ~now:!now ~limit:max_int (fun _ _ -> ()) : Fire_outcome.t));
              check ())
            ops;
          !ok))
    (exact_inputs
    @ List.map
        (fun (module M : Timer_store.S) -> (M.name, (module M : Timer_store.S)))
        Store_registry.approximate)

(* ------------------------------------------------------------------ *)
(* Deterministic unit regressions.                                     *)

let all_stores f =
  List.iter (fun (module M : Timer_store.S) -> f (module M : Timer_store.S)) Store_registry.all

(* Satellite bugfix: a callback that cancels a later same-batch timer
   must suppress that timer's dispatch (fire_sorted used to mark the
   whole batch Fired up front, making the cancel a silent no-op). *)
let test_in_batch_cancel_honored () =
  all_stores (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      let fired = ref [] in
      let victim = ref None in
      let _a =
        M.schedule t ~at:(us 10.0) `Canceller
      in
      victim := Some (M.schedule t ~at:(us 20.0) `Victim);
      let n =
        M.fire_due t ~now:(us 30.0) ~limit:max_int (fun _ v ->
            fired := v :: !fired;
            match (v, !victim) with
            | `Canceller, Some h -> M.cancel t h
            | _ -> ())
      in
      Alcotest.(check int) (M.name ^ ": only the canceller fires") 1 (Fire_outcome.fired n);
      Alcotest.(check int) (M.name ^ ": both were scanned") 2 (Fire_outcome.scanned n);
      Alcotest.(check bool) (M.name ^ ": victim did not fire") false
        (List.exists (fun v -> v = `Victim) !fired);
      Alcotest.(check int) (M.name ^ ": nothing pending") 0 (M.pending t))

(* Re-arm acts as cancel + schedule: new deadline, fresh tie position,
   surviving handle. *)
let test_rearm_semantics () =
  all_stores (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      let a = M.schedule t ~at:(us 20.0) "a" in
      let _b = M.schedule t ~at:(us 30.0) "b" in
      Alcotest.(check bool) (M.name ^ ": rearm pending") true (M.rearm t a ~at:(us 50.0));
      Alcotest.(check bool) (M.name ^ ": still pending after rearm") true (M.handle_pending t a);
      Alcotest.(check int) (M.name ^ ": deadline updated") (us 50.0) (M.handle_deadline t a);
      let fired = ref [] in
      ignore (M.fire_due t ~now:(us 35.0) ~limit:max_int (fun _ v -> fired := v :: !fired) : Fire_outcome.t);
      Alcotest.(check (list string)) (M.name ^ ": only b at 35") [ "b" ] (List.rev !fired);
      ignore (M.fire_due t ~now:(us 60.0) ~limit:max_int (fun _ v -> fired := v :: !fired) : Fire_outcome.t);
      Alcotest.(check (list string)) (M.name ^ ": a after rearm") [ "b"; "a" ] (List.rev !fired);
      Alcotest.(check bool) (M.name ^ ": rearm after fire refused") false
        (M.rearm t a ~at:(us 99.0)))

let test_rearm_tie_position () =
  all_stores (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      let x = M.schedule t ~at:(us 50.0) "x" in
      let _y = M.schedule t ~at:(us 50.0) "y" in
      (* Re-arming x to the same deadline demotes it behind y. *)
      Alcotest.(check bool) (M.name ^ ": rearm ok") true (M.rearm t x ~at:(us 50.0));
      let fired = ref [] in
      ignore (M.fire_due t ~now:(us 60.0) ~limit:max_int (fun _ v -> fired := v :: !fired) : Fire_outcome.t);
      Alcotest.(check (list string)) (M.name ^ ": fresh tie position") [ "y"; "x" ]
        (List.rev !fired))

(* The ~limit budget: at most [limit] callbacks per call; withheld
   entries keep their deadline and tie position and fire, in order, on
   a later call.  [scanned] always counts the whole due batch, so
   [fired < scanned] is the observable "budget bit" signature. *)
let test_fire_budget_withholds () =
  all_stores (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      List.iteri
        (fun i v ->
          let _ = M.schedule t ~at:(us (10.0 *. float_of_int (i + 1))) v in
          ())
        [ "a"; "b"; "c"; "d"; "e" ];
      let order = ref [] in
      let o1 = M.fire_due t ~now:(us 100.0) ~limit:2 (fun _ v -> order := v :: !order) in
      Alcotest.(check int) (M.name ^ ": budget fired 2") 2 (Fire_outcome.fired o1);
      Alcotest.(check int) (M.name ^ ": scanned whole batch") 5 (Fire_outcome.scanned o1);
      Alcotest.(check (list string)) (M.name ^ ": earliest two first") [ "a"; "b" ]
        (List.rev !order);
      Alcotest.(check int) (M.name ^ ": three withheld") 3 (M.pending t);
      let o2 = M.fire_due t ~now:(us 100.0) ~limit:max_int (fun _ v -> order := v :: !order) in
      Alcotest.(check int) (M.name ^ ": rest fired") 3 (Fire_outcome.fired o2);
      Alcotest.(check int) (M.name ^ ": rest scanned") 3 (Fire_outcome.scanned o2);
      Alcotest.(check (list string)) (M.name ^ ": order preserved across calls")
        [ "a"; "b"; "c"; "d"; "e" ] (List.rev !order);
      Alcotest.(check int) (M.name ^ ": drained") 0 (M.pending t))

let test_fire_budget_tie_order () =
  all_stores (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      let _ = M.schedule t ~at:(us 50.0) "x" in
      let _ = M.schedule t ~at:(us 50.0) "y" in
      let fired = ref [] in
      ignore
        (M.fire_due t ~now:(us 60.0) ~limit:1 (fun _ v -> fired := v :: !fired)
          : Fire_outcome.t);
      ignore
        (M.fire_due t ~now:(us 60.0) ~limit:1 (fun _ v -> fired := v :: !fired)
          : Fire_outcome.t);
      Alcotest.(check (list string)) (M.name ^ ": tie order survives withholding") [ "x"; "y" ]
        (List.rev !fired))

(* Regression: a callback that queries [next_deadline] while a budget
   withholds the rest of its batch must not leave that answer cached:
   the withheld entry (20 us) is the minimum again once it is back,
   not the callback's fresh entry (100 us).  [lawn] used to answer
   100. *)
let test_withheld_minimum () =
  List.iter
    (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      let _ = M.schedule t ~at:(us 10.0) "a" in
      let _ = M.schedule t ~at:(us 20.0) "b" in
      ignore
        (M.fire_due t ~now:(us 30.0) ~limit:1 (fun _ _ ->
             let _ = M.schedule t ~at:(us 100.0) "c" in
             ignore (M.next_deadline t : int))
          : Fire_outcome.t);
      Alcotest.(check int) (M.name ^ ": withheld entry is the minimum") (us 20.0)
        (M.next_deadline t))
    Store_registry.exact

(* A stale handle stays stale once its row holds another entry: both
   wheels hand [a]'s freed row to [b], under a bumped generation. *)
let test_stale_handle_after_reuse () =
  all_stores (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      let a = M.schedule t ~at:(us 20.0) "a" in
      M.cancel t a;
      let b = M.schedule t ~at:(us 30.0) "b" in
      M.cancel t a;
      Alcotest.(check bool) (M.name ^ ": stale rearm refused") false (M.rearm t a ~at:(us 10.0));
      Alcotest.(check bool) (M.name ^ ": stale handle not pending") false (M.handle_pending t a);
      Alcotest.(check bool) (M.name ^ ": b still pending") true (M.handle_pending t b);
      Alcotest.(check int) (M.name ^ ": b keeps its deadline") (us 30.0) (M.handle_deadline t b);
      let fired = ref [] in
      let fire now =
        ignore
          (M.fire_due t ~now ~limit:max_int (fun at v -> fired := (at, v) :: !fired)
            : Fire_outcome.t)
      in
      fire (us 29.0);
      Alcotest.(check (list (pair int string))) (M.name ^ ": nothing early") [] !fired;
      fire (us 30.0);
      Alcotest.(check (list (pair int string))) (M.name ^ ": b fires at its deadline")
        [ (us 30.0, "b") ] !fired;
      Alcotest.(check int) (M.name ^ ": drained") 0 (M.pending t))

(* Regression (cancel-leak, store-wide): schedule/cancel churn of
   far-future timers must not grow residency past the compaction bound.
   This is the Sorted_list leak the issue names, checked on every
   store. *)
let test_cancel_churn_bounded () =
  all_stores (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      let keeper = M.schedule t ~at:(us 1e9) "keeper" in
      let worst = ref 0 in
      for i = 1 to 50_000 do
        let h = M.schedule t ~at:(us (100_000.0 +. float_of_int i)) "churn" in
        M.cancel t h;
        if M.resident t > !worst then worst := M.resident t
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: resident bounded under cancel churn (worst %d)" M.name !worst)
        true
        (!worst <= (2 * 512) + 2);
      Alcotest.(check int) (M.name ^ ": only keeper pending") 1 (M.pending t);
      Alcotest.(check bool) (M.name ^ ": keeper survives") true (M.handle_pending t keeper))

(* Same bound under re-arm churn: re-arming one timer 50k times must not
   accumulate stale entries (each re-arm leaves a corpse in the lazy
   stores). *)
let test_rearm_churn_bounded () =
  all_stores (fun (module M : Timer_store.S) ->
      let t = M.create ~tick:(us 10.0) () in
      let h = M.schedule t ~at:(us 100.0) "rearmer" in
      let worst = ref 0 in
      for i = 1 to 50_000 do
        ignore (M.rearm t h ~at:(us (100.0 +. float_of_int i)) : bool);
        if M.resident t > !worst then worst := M.resident t
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: resident bounded under rearm churn (worst %d)" M.name !worst)
        true
        (!worst <= (2 * 512) + 2);
      Alcotest.(check int) (M.name ^ ": one pending") 1 (M.pending t);
      let fired = ref 0 in
      ignore (M.fire_due t ~now:(us 1e9) ~limit:max_int (fun _ _ -> incr fired) : Fire_outcome.t);
      Alcotest.(check int) (M.name ^ ": fires exactly once") 1 !fired)

(* ------------------------------------------------------------------ *)
(* Pacing-wheel contract tests: the approximate-firing clauses that the
   quantized qcheck oracle covers statistically, pinned down
   deterministically on a tiny 8-bucket geometry (level-1 horizon
   80 µs, level-2 horizon 640 µs at the 10 µs tick). *)

(* Never-early quantization: deadlines round up to the tick. *)
let test_pw_quantization () =
  let module M = Pacing_wheel in
  let t = M.create ~tick:(us 10.0) () in
  let h = M.schedule t ~at:(us 15.0) "x" in
  Alcotest.(check int) "deadline rounded up" (us 20.0) (M.handle_deadline t h);
  Alcotest.(check int) "next_deadline rounded up" (us 20.0) (M.next_deadline t);
  let fired = ref [] in
  ignore
    (M.fire_due t ~now:(us 19.9) ~limit:max_int (fun dl v -> fired := (dl, v) :: !fired)
      : Fire_outcome.t);
  Alcotest.(check int) "nothing before the bucket boundary" 0 (List.length !fired);
  ignore
    (M.fire_due t ~now:(us 20.0) ~limit:max_int (fun dl v -> fired := (dl, v) :: !fired)
      : Fire_outcome.t);
  Alcotest.(check (list (pair int string))) "fires at the rounded deadline"
    [ (us 20.0, "x") ] !fired

(* Bucket-index reuse across epochs: ticks 3 and 11 share level-1
   bucket 3 on an 8-bucket wheel; tick 11 must wait in level 2 until
   the epoch advances, and the FFS scan of the reused index must not
   resurrect the drained lap.  The far entry crosses both cascade
   levels before firing. *)
let test_pw_epoch_wraparound () =
  let module M = Pacing_wheel_8 in
  let t = M.create ~tick:(us 10.0) () in
  let fired = ref [] in
  let fire now =
    fired := [];
    ignore
      (M.fire_due t ~now ~limit:max_int (fun dl v -> fired := (dl, v) :: !fired)
        : Fire_outcome.t);
    List.rev !fired
  in
  let _a = M.schedule t ~at:(us 30.0) "a" in
  let _b = M.schedule t ~at:(us 110.0) "b" in
  let _c = M.schedule t ~at:(us 700.0) "c" in
  Alcotest.(check (list (pair int string))) "tick 3 fires alone" [ (us 30.0, "a") ]
    (fire (us 30.0));
  (* Same level-1 index as b (11 mod 8 = 3), scheduled after the epoch
     holding tick 3 was partially drained. *)
  let _d = M.schedule t ~at:(us 110.0) "d" in
  Alcotest.(check (list (pair int string))) "reused index drains in tie order"
    [ (us 110.0, "b"); (us 110.0, "d") ]
    (fire (us 200.0));
  Alcotest.(check (list (pair int string))) "far entry cascades through both levels"
    [ (us 700.0, "c") ]
    (fire (us 1000.0));
  Alcotest.(check int) "drained" 0 (M.pending t)

(* In-callback re-arm, both directions: re-armed into the future the
   entry leaves the batch; re-armed to an already-due deadline it still
   must not fire in the same call (fresh tie position = not in the
   snapshot), and the next call dispatches it at the re-armed, rounded
   deadline even though the wheel has retired past that tick. *)
let test_pw_in_callback_rearm () =
  let module M = Pacing_wheel_8 in
  (* Future re-arm. *)
  let t = M.create ~tick:(us 10.0) () in
  let b = ref None in
  let _a =
    M.schedule t ~at:(us 10.0) `Rearmer
  in
  b := Some (M.schedule t ~at:(us 20.0) `Victim);
  let fired = ref 0 in
  let o1 =
    M.fire_due t ~now:(us 50.0) ~limit:max_int (fun _ v ->
        incr fired;
        match (v, !b) with
        | `Rearmer, Some h -> ignore (M.rearm t h ~at:(us 100.0) : bool)
        | _ -> ())
  in
  Alcotest.(check int) "only the rearmer fires" 1 (Fire_outcome.fired o1);
  Alcotest.(check int) "victim still scanned" 2 (Fire_outcome.scanned o1);
  let o2 = M.fire_due t ~now:(us 100.0) ~limit:max_int (fun _ _ -> incr fired) in
  Alcotest.(check int) "victim fires at the re-armed deadline" 1 (Fire_outcome.fired o2);
  Alcotest.(check int) "two callbacks total" 2 !fired;
  (* Already-due re-arm: lands below the retired range (the past list). *)
  let t = M.create ~tick:(us 10.0) () in
  let b = ref None in
  let _a =
    M.schedule t ~at:(us 10.0) `Rearmer
  in
  b := Some (M.schedule t ~at:(us 20.0) `Victim);
  let seen = ref [] in
  let o3 =
    M.fire_due t ~now:(us 50.0) ~limit:max_int (fun dl v ->
        seen := (dl, v) :: !seen;
        match (v, !b) with
        | `Rearmer, Some h -> ignore (M.rearm t h ~at:(us 30.0) : bool)
        | _ -> ())
  in
  Alcotest.(check int) "due re-arm leaves the snapshot" 1 (Fire_outcome.fired o3);
  let o4 = M.fire_due t ~now:(us 50.0) ~limit:max_int (fun dl v -> seen := (dl, v) :: !seen) in
  Alcotest.(check int) "due re-arm fires next call" 1 (Fire_outcome.fired o4);
  Alcotest.(check bool) "at the re-armed deadline" true
    (match !seen with (dl, `Victim) :: _ -> Int.equal dl (us 30.0) | _ -> false);
  Alcotest.(check int) "nothing left" 0 (M.pending t)

(* Edge deadlines (the int clause of the contract): 0, [max_int - 1]
   and [max_int] (2^62 - 1, the end of time).  Nothing fires early, an
   exact store reports each deadline as scheduled, and an approximate
   one never reports a deadline below the one requested, saturating at
   [max_int].  An entry at [max_int] reports what an empty store does. *)
let edge_deadlines = [ 0; max_int - 1; max_int ]

let test_edge_deadlines () =
  List.iter
    (fun (exact, (module M : Timer_store.S)) ->
      let reports what d got =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s of %d reports %d" M.name what d got)
          true
          (if exact then Int.equal got d else got >= d)
      in
      List.iter
        (fun d ->
          let t = M.create ~tick:(us 10.0) () in
          let h = M.schedule t ~at:d d in
          reports "handle_deadline" d (M.handle_deadline t h);
          reports "next_deadline" d (M.next_deadline t))
        edge_deadlines;
      let t = M.create ~tick:(us 10.0) () in
      List.iter (fun d -> ignore (M.schedule t ~at:d d : int M.handle)) edge_deadlines;
      let fired = ref [] in
      List.iter
        (fun now ->
          ignore
            (M.fire_due t ~now ~limit:max_int (fun at d ->
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: %d not fired at %d" M.name d now)
                   true (d <= now);
                 reports "fire" d at;
                 fired := d :: !fired)
              : Fire_outcome.t))
        [ us 100.0; max_int - 1_000_000_000 ];
      Alcotest.(check (list int)) (M.name ^ ": only deadline 0 fired") [ 0 ] !fired;
      reports "next_deadline" (max_int - 1) (M.next_deadline t);
      ignore (M.fire_due t ~now:max_int ~limit:max_int (fun _ d -> fired := d :: !fired)
              : Fire_outcome.t);
      Alcotest.(check (list int)) (M.name ^ ": all fired at the end of time")
        [ max_int; max_int - 1; 0 ] !fired;
      Alcotest.(check int) (M.name ^ ": empty reports the end of time") max_int
        (M.next_deadline t))
    (((true, (module Timer_store.Reference : Timer_store.S))
     :: (false, (module Quantized_reference : Timer_store.S))
     :: List.map (fun m -> (true, m)) Store_registry.exact)
    @ List.map (fun m -> (false, m)) Store_registry.approximate)

(* Determinism: the facility's observable behaviour — the full trace of
   soft_sched/soft_cancel/soft_fire events, digested — must not depend
   on which store backs it.  Runs a trigger-driven machine with a
   re-arm-heavy timer client under every store and compares digests. *)
let digest_with (module M : Timer_store.S) =
  let e = Engine.create () in
  let m = Machine.create e in
  let st = Softtimer.attach ~store:(module M) m in
  let tr = Trace.create ~capacity:65536 () in
  Trace.install tr;
  (* Steady synthetic trigger source (syscall every ~20 us). *)
  let rng = Prng.create ~seed:42 in
  let rec triggers _now =
    let u = Dist.draw (Dist.Exponential 20.0) rng in
    Kernel.user m ~work_us:u (fun _ -> Kernel.syscall m ~work_us:1.0 triggers)
  in
  triggers 0;
  (* Timer client: a 50 us heartbeat that each round schedules two
     timers, cancels one and pushes the other out by ~100 us. *)
  let noop = Softtimer.register st ~name:"noop" (fun _ _ -> ()) in
  let beat = ref Softtimer.null_kind in
  let heartbeat _now n =
    if n < 200 then begin
      let doomed = Softtimer.schedule_after st (Time_ns.of_us 500.0) noop 0 in
      let pushed = Softtimer.schedule_after st (Time_ns.of_us 700.0) noop 0 in
      Softtimer.cancel st doomed;
      ignore (Softtimer.rearm st pushed ~ticks:30_000L : bool);
      ignore (Softtimer.schedule_after st (Time_ns.of_us 50.0) !beat (n + 1) : Softtimer.handle)
    end
  in
  beat := Softtimer.register st ~name:"heartbeat" heartbeat;
  heartbeat 0 0;
  Engine.run_until e (Time_ns.of_ms 50.0);
  Trace.uninstall ();
  (Trace_digest.digest tr, Trace.total tr, Softtimer.fired st, Softtimer.store_name st)

(* A raising callback must not strand the rest of its batch: the
   exception propagates, and the undispatched entries stay pending and
   fire on the next call in (deadline, tie) order. *)
exception Boom

let test_raising_callback_requeues () =
  List.iter
    (fun (label, (module M : Timer_store.S)) ->
      let t = M.create ~tick:(us 10.0) () in
      List.iter
        (fun (at, v) -> ignore (M.schedule t ~at:(us at) v : string M.handle))
        [ (30.0, "c"); (10.0, "a"); (20.0, "b"); (20.0, "b2") ];
      let order = ref [] in
      let raised =
        try
          ignore
            (M.fire_due t ~now:(us 40.0) ~limit:max_int (fun _ v ->
                 order := v :: !order;
                 if v = "a" then raise Boom)
              : Fire_outcome.t);
          false
        with Boom -> true
      in
      Alcotest.(check bool) (label ^ ": exception propagates") true raised;
      Alcotest.(check (list string)) (label ^ ": stopped at the raiser") [ "a" ] !order;
      Alcotest.(check int) (label ^ ": remainder still pending") 3 (M.pending t);
      Alcotest.(check bool) (label ^ ": remainder resident") true (M.resident t >= 3);
      order := [];
      let o = M.fire_due t ~now:(us 40.0) ~limit:max_int (fun _ v -> order := v :: !order) in
      Alcotest.(check int) (label ^ ": remainder fires") 3 (Fire_outcome.fired o);
      Alcotest.(check (list string)) (label ^ ": in (deadline, tie) order") [ "b"; "b2"; "c" ]
        (List.rev !order);
      Alcotest.(check int) (label ^ ": drained") 0 (M.pending t))
    (List.map (fun (module M : Timer_store.S) -> (M.name, (module M : Timer_store.S)))
       Store_registry.all
    @ [ ("wheel[8]", Timer_store.wheel ~slots:8 ()) ])

(* Exact stores only: the approximate store legitimately shifts fire
   times to bucket boundaries, so its trace digest differs by design
   (its own oracle is the quantized-equivalence suite above). *)
let test_digest_store_independent () =
  match Store_registry.exact with
  | [] -> Alcotest.fail "empty store registry"
  | first :: rest ->
    let d0, n0, f0, name0 = digest_with first in
    Alcotest.(check bool) (name0 ^ ": something fired") true (f0 > 0);
    List.iter
      (fun (module M : Timer_store.S) ->
        let d, n, f, name = digest_with (module M) in
        Alcotest.(check int) (name ^ ": same event count as " ^ name0) n0 n;
        Alcotest.(check int) (name ^ ": same fired count") f0 f;
        Alcotest.(check int64) (name ^ ": same trace digest") d0 d)
      rest

(* The [now] clause: a [fire_due] at an earlier [now] than the previous
   call's raises the typed error before it touches any entry; the same
   [now] again is not going backwards. *)
let backwards_test (module M : Timer_store.S) =
  Alcotest.test_case (M.name ^ " rejects an earlier now") `Quick (fun () ->
      let t = M.create ~tick:(us 10.0) () in
      let fired = ref [] in
      let fire now = M.fire_due t ~now ~limit:max_int (fun _ v -> fired := v :: !fired) in
      ignore (M.schedule t ~at:(us 20.0) "a" : string M.handle);
      ignore (M.schedule t ~at:(us 50.0) "b" : string M.handle);
      ignore (fire (us 30.0) : Fire_outcome.t);
      Alcotest.check_raises "earlier now"
        (Timer_store.Time_went_backwards { previous = 30_000; now = 25_000 })
        (fun () -> ignore (fire (us 25.0) : Fire_outcome.t));
      Alcotest.(check int) "pending untouched" 1 (M.pending t);
      ignore (fire (us 30.0) : Fire_outcome.t);
      ignore (fire (us 60.0) : Fire_outcome.t);
      Alcotest.(check (list string)) "fired in order" [ "a"; "b" ] (List.rev !fired))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "timer_store"
    [
      ( "unit",
        [
          Alcotest.test_case "in-batch cancel honored" `Quick test_in_batch_cancel_honored;
          Alcotest.test_case "rearm semantics" `Quick test_rearm_semantics;
          Alcotest.test_case "rearm tie position" `Quick test_rearm_tie_position;
          Alcotest.test_case "fire budget withholds" `Quick test_fire_budget_withholds;
          Alcotest.test_case "fire budget tie order" `Quick test_fire_budget_tie_order;
          Alcotest.test_case "raising callback requeues" `Quick test_raising_callback_requeues;
          Alcotest.test_case "withheld entry stays the minimum" `Quick test_withheld_minimum;
          Alcotest.test_case "stale handle after reuse" `Quick test_stale_handle_after_reuse;
          Alcotest.test_case "edge deadlines" `Quick test_edge_deadlines;
          Alcotest.test_case "cancel churn bounded" `Quick test_cancel_churn_bounded;
          Alcotest.test_case "rearm churn bounded" `Quick test_rearm_churn_bounded;
          Alcotest.test_case "digest independent of store" `Quick test_digest_store_independent;
        ] );
      ( "pacing-wheel",
        [
          Alcotest.test_case "never-early quantization" `Quick test_pw_quantization;
          Alcotest.test_case "FFS epoch wraparound" `Quick test_pw_epoch_wraparound;
          Alcotest.test_case "in-callback rearm" `Quick test_pw_in_callback_rearm;
        ] );
      ("equivalence", List.map qc equivalence_tests);
      ("approx-equivalence", List.map qc approx_equivalence_tests);
      ("residency", List.map qc residency_tests);
      ( "time-backwards",
        List.map backwards_test ((module Timer_store.Reference : Timer_store.S) :: Store_registry.all)
      );
    ]
