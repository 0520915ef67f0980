exception Time_went_backwards = Fire_outcome.Time_went_backwards

module type S = Store_sig.S

(* ------------------------------------------------------------------ *)
(* Reference model.                                                    *)

module Reference : S = struct
  let name = "reference"

  type rstate = Pending | Cancelled | Fired

  type 'a handle = {
    mutable rat : int;
    mutable rseq : int;
    mutable rstate : rstate;
    rval : 'a;
  }

  type 'a t = {
    mutable entries : 'a handle list;  (* pending entries, unordered *)
    mutable next_seq : int;
    mutable last_now : int;  (* previous [fire_due]'s [now] *)
  }

  let create ~tick () =
    ignore tick;
    { entries = []; next_seq = 0; last_now = min_int }

  let fresh_seq t =
    let s = t.next_seq in
    t.next_seq <- s + 1;
    s

  let schedule t ~at v =
    let h = { rat = at; rseq = fresh_seq t; rstate = Pending; rval = v } in
    t.entries <- h :: t.entries;
    h

  let schedule_i t ~at_i v = schedule t ~at:at_i v

  let cancel t h =
    if h.rstate = Pending then begin
      h.rstate <- Cancelled;
      t.entries <- List.filter (fun e -> e != h) t.entries
    end

  let rearm t h ~at =
    if h.rstate <> Pending then false
    else begin
      (* Exactly cancel + schedule(same value): new deadline, fresh tie
         position, same handle. *)
      h.rat <- at;
      h.rseq <- fresh_seq t;
      true
    end

  let pending t = List.length t.entries
  let resident t = List.length t.entries

  let next_deadline t = List.fold_left (fun acc h -> Int.min acc h.rat) max_int t.entries

  let handle_pending _t h = h.rstate = Pending
  let handle_deadline _t h = h.rat

  (* Record (4) + per entry: cons (3) + handle (5). *)
  let words t = 4 + (8 * List.length t.entries)

  let fire_due t ?prefetch:_ ~now ~limit f =
    let now_i = Fire_outcome.checked_now ~previous:t.last_now now in
    t.last_now <- now_i;
    (* Snapshot: only entries that existed (and were due) at call time
       are candidates; [seq_limit] excludes anything scheduled or
       re-armed by a callback during this call. *)
    let seq_limit = t.next_seq in
    let due =
      List.filter (fun h -> h.rseq < seq_limit && h.rat <= now_i) t.entries
      |> List.sort (fun a b ->
             let c = Int.compare a.rat b.rat in
             if c <> 0 then c else compare a.rseq b.rseq)
    in
    let scanned = List.length due in
    let fired = ref 0 in
    List.iter
      (fun h ->
        (* Re-check: an earlier callback may have cancelled or re-armed
           this entry.  Entries beyond the budget simply stay in
           [t.entries] (removal happens only at fire time), so their
           deadline and tie position are preserved for the next call. *)
        if
          !fired < limit
          && h.rstate = Pending
          && h.rseq < seq_limit
          && h.rat <= now_i
        then begin
          h.rstate <- Fired;
          t.entries <- List.filter (fun e -> e != h) t.entries;
          incr fired;
          f h.rat h.rval
        end)
      due;
    Fire_outcome.pack ~scanned ~fired:!fired
end

(* ------------------------------------------------------------------ *)
(* The production wheel, with configurable slot count.                 *)

let wheel ?(slots = 512) () : (module S) =
  let sized ~tick () = Timing_wheel.create_sized ~slots ~tick () in
  (module struct
    include Timing_wheel

    let create = sized
  end)

(* [d + tick - 1] cannot overflow below the guard; above it the answer
   is the last multiple of [tick], or [max_int] past that. *)
let[@inline] round_up ~tick d =
  if d <= max_int - tick then (d + tick - 1) / tick * tick
  else
    let last = max_int / tick * tick in
    if d <= last then last else max_int

(* ------------------------------------------------------------------ *)
(* Approximate-firing oracle: any store M with every deadline rounded
   UP to the tick granularity at schedule/rearm time.  This is the
   semantics contract of the approximate stores (Pacing_wheel): they
   must behave exactly like [Quantize (Reference)] — same fire times,
   same order, same counts — which the equivalence suite checks by
   string equality.  Rounding up (never down) preserves the sanitizer's
   never-early-fire invariant.                                         *)

module Quantize (M : S) : S = struct
  let name = "quantize-" ^ M.name

  type 'a t = { q : int; inner : 'a M.t }

  type 'a handle = 'a M.handle

  let create ~tick () = { q = Int.max tick 1; inner = M.create ~tick () }
  let schedule t ~at v = M.schedule t.inner ~at:(round_up ~tick:t.q at) v
  let schedule_i t ~at_i v = schedule t ~at:at_i v
  let cancel t h = M.cancel t.inner h
  let rearm t h ~at = M.rearm t.inner h ~at:(round_up ~tick:t.q at)
  let pending t = M.pending t.inner
  let resident t = M.resident t.inner
  let next_deadline t = M.next_deadline t.inner
  let words t = 3 + M.words t.inner
  let handle_pending t h = M.handle_pending t.inner h
  let handle_deadline t h = M.handle_deadline t.inner h

  (* [now] is not quantized: an entry fires once its rounded-up
     deadline has arrived, reported at that rounded deadline. *)
  let fire_due t ?prefetch ~now ~limit f = M.fire_due t.inner ?prefetch ~now ~limit f
end
