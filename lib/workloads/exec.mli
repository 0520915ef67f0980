(** Sequenced execution of kernel scripts with interleaved actions.

    Workload models describe a process's activity as a list of items:
    CPU quanta ({!Kernel.step}s, which end in trigger states) and
    zero-duration actions (packet transmissions, bookkeeping) that run
    when the sequence reaches them.  Items execute strictly in order;
    between items, interrupts and higher-priority work interleave via
    the CPU's scheduler. *)

type item =
  | Quantum of Kernel.step
  | Emit of (int -> unit)
      (** Zero-time side effect performed when reached, given the
          instant in integer nanoseconds. *)

val run : Machine.t -> item list -> (int -> unit) -> unit
(** Execute items in order, then the continuation (given the instant
    in integer nanoseconds). *)

val quantum : Kernel.step -> item
val emit : (int -> unit) -> item
