type t = {
  packet_bits : int;
  window : int;
  samples : float array;  (* ring of recent bps estimates *)
  mutable count : int;
  mutable last_arrival : Time_ns.t option;
}

let create ?(window = 64) ~packet_bits () =
  if packet_bits <= 0 then invalid_arg "Capacity.create: packet_bits must be positive";
  if window <= 0 then invalid_arg "Capacity.create: window must be positive";
  { packet_bits; window; samples = Array.make window 0.0; count = 0; last_arrival = None }

let on_arrival t now =
  (match t.last_arrival with
  | Some prev when Time_ns.(now > prev) ->
    let gap_s = Time_ns.to_sec Time_ns.(now - prev) in
    let bps = float_of_int t.packet_bits /. gap_s in
    t.samples.(t.count mod t.window) <- bps;
    t.count <- t.count + 1
  | Some _ | None -> ());
  t.last_arrival <- Some now

let reset_burst t = t.last_arrival <- None
let samples t = t.count

let estimate_bps t =
  if t.count = 0 then None
  else begin
    let n = min t.count t.window in
    let a = Array.sub t.samples 0 n in
    Array.sort Float.compare a;
    let median =
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    Some median
  end

(* DEAD001: the interval the capacity tests check. *)
let[@lint.allow "DEAD001"] pacing_interval t ~packet_bits =
  match estimate_bps t with
  | None -> None
  | Some bps -> Some (Time_ns.of_sec (float_of_int packet_bits /. bps))
