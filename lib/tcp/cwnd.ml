(* The window lives in a one-cell float array rather than a mutable
   float field: a float field of this mixed record would be re-boxed on
   every store, two words per window-advancing ACK (lint ALLOC003). *)
type t = {
  mutable ssthresh : int;
  cwnd : Float.Array.t;  (* one cell: the window, in segments *)
  mutable acks : int;
}

let create (p : Tcp_types.params) =
  {
    ssthresh = p.Tcp_types.ssthresh;
    cwnd = Float.Array.make 1 (float_of_int (max 1 p.Tcp_types.initial_cwnd));
    acks = 0;
  }

let[@inline] cwnd t = Float.Array.get t.cwnd 0
let[@inline] set_cwnd t w = Float.Array.set t.cwnd 0 w
let window t = max 1 (int_of_float (cwnd t))
let in_slow_start t = cwnd t < float_of_int t.ssthresh

let on_ack t =
  t.acks <- t.acks + 1;
  let w = cwnd t in
  if in_slow_start t then set_cwnd t (w +. 1.0) else set_cwnd t (w +. (1.0 /. w))

let acks_seen t = t.acks
let ssthresh t = t.ssthresh

let halve t ~flight = t.ssthresh <- max (flight / 2) 2

let on_timeout t ~flight =
  halve t ~flight;
  set_cwnd t 1.0

let on_fast_retransmit t ~flight =
  halve t ~flight;
  set_cwnd t (float_of_int t.ssthresh)
