(** Sequenced execution of kernel scripts with interleaved actions.

    Workload models describe a process's activity as a script of items:
    CPU quanta ({!Kernel.step}s, which end in trigger states) and
    zero-duration actions (packet transmissions, bookkeeping) that run
    when the sequence reaches them.  Items execute strictly in order;
    between items, interrupts and higher-priority work interleave via
    the CPU's scheduler.

    Scripts live in an arena, one per workload instance.  The arena
    holds the instance's steps and emit handlers, registered once; a
    script is a recycled cursor over three arrays — item codes, each
    quantum's work in a float array, and each emit's two int arguments
    — so building and running a script allocates nothing once the
    arena has grown to the peak number of scripts in flight and their
    longest length. *)

type t
(** A script arena, bound to one machine. *)

type step
(** A {!Kernel.step} registered with an arena. *)

type emitter
(** An emit handler registered with an arena. *)

type script
(** A script being built, or running.  It returns to its arena when it
    finishes, and must not be used after that. *)

val create : Machine.t -> t

val step : t -> Kernel.step -> step
(** Register a step: its priority, trigger and attribution, and its
    work unless an item gives another, converted here to integer
    nanoseconds once with and once without the check surcharge
    ({!Machine.work_ns}).
    @raise Invalid_argument if the step's [work_us] is NaN or
    infinite. *)

val emitter : t -> (int -> int -> int -> unit) -> emitter
(** Register an emit handler; it receives the instant in integer
    nanoseconds and the item's two arguments. *)

val script : t -> script
(** An empty script from the arena. *)

val quantum : script -> step -> unit
(** Append one quantum of the step, with the step's own work. *)

val drawn : script -> step -> float array -> int -> unit
(** [drawn sc st works j] appends one quantum of the step with
    [works.(j)] as its [work_us] instead.  The work is copied from
    array to array, and the quantum reads it from the script's array,
    so a drawn quantum boxes no float. *)

val emit : script -> emitter -> int -> int -> unit
(** Append a zero-time action: the handler, given these two arguments. *)

val run : script -> (int -> unit) -> unit
(** Execute the items in order, then return the script to its arena and
    run the continuation (given the instant in integer nanoseconds).
    Leading emits run before [run] returns. *)

val discard : script -> unit
(** Return an unrun script to its arena. *)
