(* Domain-pool map with deterministic, index-ordered results.

   Work distribution is a single atomic counter over an array of
   inputs: workers (spawned domains plus the calling domain) claim the
   next index, run the job, and write the result into its slot.  The
   claim order is racy; the result order is not — slot [i] always
   holds job [i], and the caller reads the slots only after every
   worker has joined. *)

(* [0] = auto ([recommended_jobs]).  Read once per [map] call. *)
let default = Atomic.make 0

let recommended_jobs () = Domain.recommended_domain_count ()

let set_default_jobs n =
  if n < 0 then invalid_arg "Runner.set_default_jobs: negative job count";
  Atomic.set default n

(* DEAD001: the job count the tests read back. *)
let[@lint.allow "DEAD001"] default_jobs () =
  match Atomic.get default with 0 -> recommended_jobs () | n -> n

(* Nested [map] calls (a job that fans out again) must not spawn
   domains of their own: the pool is already saturated, and a worker
   blocking in [Domain.join] while holding a claim slot would serialise
   the outer map anyway.  A domain-local flag makes inner maps run
   inline. *)
let in_worker : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let sequential_map f xs = List.map f xs

(* DEAD001: the general fan-out, tested directly; [map_sim] wraps it. *)
let[@lint.allow "DEAD001"] map ?jobs f xs =
  let n = List.length xs in
  let jobs = match jobs with Some j when j >= 1 -> j | Some _ | None -> default_jobs () in
  let jobs = min jobs n in
  if jobs <= 1 || n <= 1 || !(Domain.DLS.get in_worker) then sequential_map f xs
  else begin
    let input = Array.of_list xs in
    let results : ('b, exn * Printexc.raw_backtrace) result option array = Array.make n None in
    (* The Metrics registrations of job [i]'s components.  Each job runs
       inside a fresh context (so nothing it registers races with the
       parent or a sibling on the same domain), and the parent absorbs
       the contexts in index order after the join — registrations, and
       so every reading, are then identical at any job count. *)
    let ctxs : Metrics.t option array = Array.make n None in
    let next = Atomic.make 0 in
    let work () =
      let flag = Domain.DLS.get in_worker in
      flag := true;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let saved = Metrics.Local.swap_fresh () in
          let r =
            try Ok (f input.(i))
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          ctxs.(i) <- Some (Metrics.Local.swap saved);
          results.(i) <- Some r;
          loop ()
        end
      in
      loop ();
      flag := false
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join domains;
    Array.iter (function Some c -> Metrics.Local.absorb c | None -> ()) ctxs;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false (* every index < n was claimed *))
  end

let map_sim ?jobs f xs =
  match Trace.installed () with
  | _ when Trace.tap_installed () || Profile.enabled () ->
    (* Synchronous consumers need the exact event order; run inline. *)
    sequential_map f xs
  | None -> map ?jobs f xs
  | Some parent ->
    let capacity = Trace.capacity parent in
    let outcomes =
      map ?jobs
        (fun x ->
          (* Runs in an arbitrary domain — possibly the calling one, so
             save and restore its sink around the private ring. *)
          let saved = Trace.installed () in
          let ring = Trace.create ~capacity () in
          Trace.install ring;
          let fin () = match saved with None -> Trace.uninstall () | Some s -> Trace.install s in
          let v = try f x with e -> fin (); raise e in
          fin ();
          (v, ring))
        xs
    in
    List.map
      (fun (v, ring) ->
        Trace.absorb ring;
        v)
      outcomes
