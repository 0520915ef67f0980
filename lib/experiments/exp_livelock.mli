(** Extension experiment: receiver livelock under overload.

    Not a table of the soft-timers paper — it reproduces the phenomenon
    the paper's §6 cites from Mogul & Ramakrishnan (TOCS'97) and
    positions soft-timer polling against their hybrid scheme.  A single
    interface is flooded at increasing packet rates while the stack
    spends a fixed cost per delivered packet:

    - {b interrupt-driven} reception livelocks: past saturation, all
      CPU goes to (highest-priority) receive interrupts and goodput
      collapses toward zero;
    - {b Mogul–Ramakrishnan hybrid} (interrupt once per burst, then
      poll-on-completion with interrupts disabled) saturates flat;
    - {b soft-timer polling} also saturates flat, without livelock, and
      keeps interrupts off even below saturation. *)

type row = {
  offered_kpps : float;  (** offered load, 1000 packets/s *)
  interrupt_goodput : float;  (** packets/s fully processed *)
  hybrid_goodput : float;
  softpoll_goodput : float;
}

val compute : Exp_config.t -> row list
val run : Exp_config.t -> string
