(** Kernel entry points, expressed as CPU quanta that end in trigger
    states.

    Workload models describe what a process does as a {e script}: a
    sequence of steps, each a priority + duration + optional trigger
    kind.  Running a script ({!Exec.run}) submits the steps one after
    another, so interrupts and higher-priority work interleave naturally
    between steps — exactly the granularity at which real kernels reach
    trigger states. *)

type step = {
  prio : int;
  work_us : float;
  trigger : Trigger.kind option;
  attr : Profile.attr;  (** cycle-attribution category of the step's body *)
  entry_us : float;
      (** leading microseconds attributed to [entry_attr] instead (kernel
          entry cost); [0.] when the step has no entry split *)
  entry_attr : Profile.attr;
}

val syscall : Machine.t -> work_us:float -> (int -> unit) -> unit
(** One system call: kernel entry cost + [work_us] of kernel work, ends
    in a [Syscall] trigger state.  Like every entry point below, the
    callback receives the completion instant in integer nanoseconds. *)

val trap : Machine.t -> work_us:float -> (int -> unit) -> unit
(** One exception (page fault etc.): entry cost + work, [Trap] trigger. *)

val user : Machine.t -> work_us:float -> (int -> unit) -> unit
(** User-mode computation; no trigger state. *)

(** {2 Scripts} *)

val step_syscall : ?work_us:float -> Machine.t -> step
(** One syscall step with the machine's entry cost folded in; [work_us]
    is the kernel work beyond entry/exit (default 4). *)

val step_trap : ?work_us:float -> Machine.t -> step

val step_user : Machine.t -> work_us:float -> step
(** User-mode computation, scaled to the profile's clock; no trigger. *)

val step_ip_output : ?work_us:float -> Machine.t -> step
(** Per-packet transmission work in the IP output loop (default 7 us of
    driver + checksum + queueing work, scaled to the profile). *)

val step_tcp_timer : ?work_us:float -> Machine.t -> step
val step_ctx_switch : Machine.t -> step
