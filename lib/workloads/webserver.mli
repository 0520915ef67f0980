(** Closed-loop saturated web-server simulation.

    Reproduces the paper's testbed: a server machine (Apache-like
    multi-process or Flash-like event-driven) saturated by clients
    repeatedly requesting a 6 KB file over 100 Mbps Ethernet interfaces
    (§5.1, §5.6, §5.9).  Every kernel-level consequence of a request is
    modelled as CPU quanta ending in trigger states — system calls, page
    faults, the IP output loop per transmitted packet, NIC interrupts,
    software-interrupt protocol processing, TCP timer sweeps — so both
    the throughput (requests/s) and the trigger-state process emerge
    from the same simulation.

    The simulation is the substrate for Figures 2–6 and Tables 1–5 and 8:
    - an extra null-handler hardware timer measures base interrupt
      overhead (Figures 2/3);
    - a {!Delay_probe.Gap_recorder} attached to {!machine} measures the
      trigger-interval distribution (Table 1, Figures 4–6);
    - [pacing] routes data-packet transmissions through soft-timer or
      hardware-timer rate clocking (Table 3);
    - [net] switches the NICs between interrupt-driven reception and
      soft-timer polling with an aggregation quota (Table 8). *)

type server_kind = Apache | Flash

type http_mode =
  | Http  (** one request per connection *)
  | Persistent of int  (** P-HTTP: this many requests per connection *)

type net_mode =
  | Interrupts  (** conventional interrupt-driven reception *)
  | Soft_polling of float  (** soft-timer polling with this quota *)

type pacing =
  | No_pacing  (** transmit data packets inline (stock TCP on a LAN) *)
  | Soft_pacing
      (** §5.6: a soft-timer event at every trigger state transmits one
          pending packet *)
  | Hw_pacing of Time_ns.span
      (** a hardware timer at this period dispatches a software
          interrupt that transmits one pending packet *)

type config = {
  kind : server_kind;
  http : http_mode;
  net : net_mode;
  pacing : pacing;
  profile : Costs.profile;
  connections : int;  (** concurrent client connections (saturation) *)
  nic_count : int;  (** independent 100 Mbps interfaces (paper: 3–4) *)
  seed : int;
  extra_timer_hz : float option;
      (** Figures 2/3: an additional null-handler hardware timer *)
  attach_facility : bool;
      (** force the soft-timer facility on even when nothing uses it
          (it is attached automatically for soft polling/pacing) *)
  background_compute : bool;
      (** ST-Apache-compute: an infinite, syscall-free, low-priority
          compute process sharing the CPU *)
  locality_override : Cache.locality option;
      (** Replace the server's locality model (cost-model ablations). *)
}

val default_config : config
(** Apache, HTTP, interrupts, no pacing, Pentium-II profile, 48
    connections over 3 NICs, seed 7. *)

type t

val create : config -> t
val engine : t -> Engine.t
val machine : t -> Machine.t

val facility : t -> Softtimer.t option
(** The soft-timer facility, when one is attached. *)

val poller : t -> Net_poll.t option

val run : t -> warmup:Time_ns.span -> measure:Time_ns.span -> unit
(** Start the clients, simulate [warmup], reset counters, simulate
    [measure].  May be called once per [t]. *)

val requests_per_sec : t -> float
(** Completed requests per second over the measurement window. *)

val completed_requests : t -> int

val pacing_intervals : t -> Stats.Online.t
(** Gaps between consecutive paced transmissions within continuous
    backlog, in microseconds (Table 3's "avg xmit interval"). *)

val pacer_sends : t -> int

val rx_interrupts : t -> int
(** Receive interrupts delivered across all NICs. *)

val rx_packets : t -> int
val rx_batches : t -> int

(** Test-only hooks; not part of the stable interface. *)
module For_testing : sig
  val get_script : t -> int -> Exec.script
  (** The script that serves one GET on connection [conn]: TCP's ACK,
      then the application's work and transmissions.  Draws from the
      server's random stream exactly as serving a request does, so a
      test can measure what building one script costs
      ({!Exec.discard} returns it unrun). *)

  val packets : t -> int Packet.Pool.t
  (** The pool every packet on the server's LAN comes from, both ways. *)
end
