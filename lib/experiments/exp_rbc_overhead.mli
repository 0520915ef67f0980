(** Table 3: overhead of rate-based clocking in TCP (§5.6).

    The web server's data-packet transmissions are routed through a
    pacer: either a soft-timer event firing at every trigger state, or a
    50 kHz (20 us) hardware interrupt timer dispatching a software
    interrupt.  The paper measures 28%/36% throughput loss with the
    hardware timer (Apache/Flash) against 2%/6% with soft timers. *)

type server_rows = {
  server : Webserver.server_kind;
  base_tput : float;
  hw_tput : float;
  hw_overhead_pct : float;
  hw_interval_us : float;
  soft_tput : float;
  soft_overhead_pct : float;
  soft_interval_us : float;
}

val compute : Exp_config.t -> server_rows list
val run : Exp_config.t -> string
