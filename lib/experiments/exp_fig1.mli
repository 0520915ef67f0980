(** Figure 1: lower and upper bounds for soft-timer event scheduling.

    Schedules events [T] measurement ticks ahead on a machine whose only
    trigger source is a sparse synthetic stream, and verifies the
    paper's firing window
    [T < actual_event_time < T + X + 1]
    (in measurement ticks, X = measurement/interrupt clock ratio): the
    lower bound from the facility's +1 accounting, the upper bound from
    the backup interrupt clock. *)

type row = {
  ticks : int64;  (** requested T *)
  events : int;
  min_delay_ticks : float;  (** min observed (actual - schedule), ticks *)
  max_delay_ticks : float;
  bound_violations : int;  (** events outside (T, T + X + 1) *)
}

val compute : Exp_config.t -> row list
val run : Exp_config.t -> string
