(* Profiler (lib/obs/profile.ml): attribution arithmetic, the
   conservation invariant on a live machine, the collapsed-stack
   export and the per-trigger dispatch breakdown. *)

let span = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

(* Run [f] with a fresh installed profiler; always uninstall, so a
   failing test cannot leak an installed sink into later tests. *)
let with_profiler f =
  let p = Profile.create () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall (fun () -> f p)

(* ------------------------------------------------------------------ *)
(* Attribution arithmetic.                                             *)

let test_leaf_charges () =
  with_profiler (fun p ->
      let a = Profile.intern [ "kernel"; "work" ] in
      let b = Profile.intern [ "interrupt"; "nic"; "save_restore" ] in
      Profile.charge a ~cpu:0 1_500L;
      Profile.charge a ~cpu:0 500L;
      Profile.charge b ~cpu:2 250L;
      Alcotest.(check span) "a self" 2_000L (Profile.self_ns p [ "kernel"; "work" ]);
      Alcotest.(check int) "a charges" 2 (Profile.charges p [ "kernel"; "work" ]);
      Alcotest.(check span) "b self" 250L
        (Profile.self_ns p [ "interrupt"; "nic"; "save_restore" ]);
      Alcotest.(check span) "subtree rolls up" 250L (Profile.subtree_ns p [ "interrupt" ]);
      Alcotest.(check int) "cpu rows" 3 (Profile.cpu_count p);
      Alcotest.(check span) "cpu0" 2_000L (Profile.attributed_ns p ~cpu:0);
      Alcotest.(check span) "cpu1" 0L (Profile.attributed_ns p ~cpu:1);
      Alcotest.(check span) "cpu2" 250L (Profile.attributed_ns p ~cpu:2);
      Alcotest.(check span) "total" 2_250L (Profile.total_attributed_ns p);
      let roots_sum =
        List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L (Profile.roots_ns p)
      in
      Alcotest.(check span) "roots_ns sums to total" 2_250L roots_sum)

(* A seq splits one quantum across categories, resuming where it left
   off when the quantum is delivered in several charges (preemption). *)
let test_seq_split_across_preemption () =
  with_profiler (fun p ->
      let a = Profile.intern [ "syscall"; "entry" ] in
      let b = Profile.intern [ "syscall"; "dispatch" ] in
      let tail = Profile.intern [ "syscall"; "body" ] in
      let seq = Profile.seq [ (a, 3_000L); (b, 2_000L) ] ~tail in
      (* One 7.5 us quantum charged as 2 + 1.5 + 4 us. *)
      Profile.charge seq ~cpu:0 2_000L;
      Profile.charge seq ~cpu:0 1_500L;
      Profile.charge seq ~cpu:0 4_000L;
      Alcotest.(check span) "entry part" 3_000L (Profile.self_ns p [ "syscall"; "entry" ]);
      Alcotest.(check span) "dispatch part" 2_000L
        (Profile.self_ns p [ "syscall"; "dispatch" ]);
      Alcotest.(check span) "tail gets the rest" 2_500L
        (Profile.self_ns p [ "syscall"; "body" ]);
      Alcotest.(check span) "nothing lost" 7_500L (Profile.total_attributed_ns p))

let test_collapsed_golden () =
  with_profiler (fun p ->
      Profile.charge (Profile.intern [ "kernel"; "work" ]) ~cpu:0 1_500L;
      Profile.charge (Profile.intern [ "interrupt"; "nic"; "save_restore" ]) ~cpu:0 250L;
      Profile.charge (Profile.intern [ "kernel" ]) ~cpu:1 40L;
      Alcotest.(check string) "collapsed stacks"
        "cpu0;interrupt;nic;save_restore 250\ncpu0;kernel;work 1500\ncpu1;kernel 40\n"
        (Profile.to_collapsed p))

(* ------------------------------------------------------------------ *)
(* Conservation on a live machine: whatever mix of quanta, triggers,   *)
(* interrupts and soft-timer activity, the attributed total equals the *)
(* machine's busy time exactly — no charge path escapes attribution.   *)

let test_conservation_property =
  QCheck.Test.make ~name:"attribution conserves Cpu.busy_ns" ~count:60
    QCheck.(
      list_of_size
        Gen.(int_range 1 25)
        (quad (int_range 0 4) (int_range 0 80) (int_range 0 400) (int_range 0 7)))
    (fun jobs ->
      with_profiler (fun p ->
          let e = Engine.create () in
          let m = Machine.create e in
          let st = Softtimer.attach m in
          let noop = Softtimer.register st ~name:"noop" (fun _ _ -> ()) in
          Machine.start_interrupt_clock m;
          let line =
            Machine.interrupt_line m ~name:"disk0" ~source:Trigger.Dev_intr
              ~handler:(fun _ -> ())
              ()
          in
          List.iter
            (fun (prio, work_us, at_us, kind_ix) ->
              let trigger = List.nth_opt Trigger.all kind_ix in
              Engine.schedule_at e
                (Time_ns.of_us (float_of_int at_us))
                (fun () ->
                  if kind_ix = 7 then ignore (Machine.raise_irq m line : bool)
                  else begin
                    if work_us mod 3 = 0 then
                      ignore (Softtimer.schedule_soft_event st ~ticks:1L noop 0 : Softtimer.handle);
                    Machine.submit_quantum m ~prio
                      ~work_us:(float_of_int work_us /. 4.0)
                      ~trigger
                      (fun _ -> ())
                  end))
            jobs;
          Engine.run_until e (Time_ns.of_us 2_000.0);
          Softtimer.detach st;
          Int64.equal (Profile.attributed_ns p ~cpu:0) (Machine.total_busy_ns m)))

(* ------------------------------------------------------------------ *)
(* Per-trigger dispatch breakdown.                                     *)

let fired_metric () =
  let n = ref 0 in
  Metrics.iter (Metrics.current ()) (fun name v ->
      match v with Metrics.Counter c when String.equal name "softtimer.fired" -> n := c | _ -> ());
  !n

let test_dispatch_breakdown () =
  with_profiler (fun p ->
      let before = fired_metric () in
      let e = Engine.create () in
      let m = Machine.create e in
      let st = Softtimer.attach m in
      let noop = Softtimer.register st ~name:"noop" (fun _ _ -> ()) in
      for i = 1 to 5 do
        ignore (Softtimer.schedule_soft_event st ~ticks:0L noop 0 : Softtimer.handle);
        let kind = if i mod 2 = 0 then Trigger.Syscall else Trigger.Ip_output in
        Machine.submit_quantum m ~prio:Cpu.prio_kernel ~work_us:2.0 ~trigger:(Some kind)
          (fun _ -> ());
        Engine.run_until e Time_ns.(Engine.now e + Time_ns.of_us 50.0)
      done;
      Softtimer.detach st;
      let after = fired_metric () in
      Alcotest.(check bool) "something fired" true (Softtimer.fired st > 0);
      Alcotest.(check int) "fired_total = softtimer facility count" (Softtimer.fired st)
        (Profile.fired_total p);
      Alcotest.(check int) "fired_total = softtimer.fired metric delta" (after - before)
        (Profile.fired_total p);
      let rows = Profile.dispatch_rows p in
      let row_sum = List.fold_left (fun acc (_, n) -> acc + n) 0 rows in
      Alcotest.(check int) "rows sum to fired_total" (Profile.fired_total p) row_sum;
      List.iter
        (fun (source, fires) ->
          Alcotest.(check bool) (source ^ " is a real trigger source") true
            (List.exists (fun k -> String.equal (Trigger.name k) source) Trigger.all);
          Alcotest.(check bool) (source ^ " fired") true (fires > 0))
        rows)

(* Two domains intern the same fresh paths at once, as parallel jobs do
   when each builds a machine: every path, its root included, gets one
   id that both domains see. *)
let test_intern_two_domains () =
  let paths = List.init 300 (fun i -> [ "intern_race"; string_of_int (i mod 50); string_of_int i ]) in
  let go () = List.map Profile.intern_id paths in
  let d = Domain.spawn go in
  let mine = go () in
  let theirs = Domain.join d in
  Alcotest.(check (list int)) "both domains got the same ids" mine theirs;
  let count full =
    let n = ref 0 in
    for id = 0 to Profile.registry_size () - 1 do
      if String.equal (Profile.id_full id) full then incr n
    done;
    !n
  in
  Alcotest.(check int) "root interned once" 1 (count "intern_race");
  List.iter
    (fun p ->
      Alcotest.(check int) "path interned once" 1 (count (String.concat ";" p));
      Alcotest.(check (option int)) "path found" (Some (Profile.intern_id p))
        (Profile.id_of_path p))
    paths

let () =
  Alcotest.run "profile"
    [
      ( "attribution",
        [
          Alcotest.test_case "leaf charges" `Quick test_leaf_charges;
          Alcotest.test_case "seq split across preemption" `Quick
            test_seq_split_across_preemption;
          Alcotest.test_case "collapsed-stack golden" `Quick test_collapsed_golden;
          QCheck_alcotest.to_alcotest test_conservation_property;
        ] );
      ("dispatch", [ Alcotest.test_case "per-trigger breakdown" `Quick test_dispatch_breakdown ]);
      ("registry", [ Alcotest.test_case "interning from two domains" `Quick test_intern_two_domains ]);
    ]
