(** Table 8: network polling throughput (§5.9).

    Apache and Flash serve the 6 KB workload over HTTP and persistent
    HTTP, with conventional interrupt-driven reception versus soft-timer
    polling at aggregation quotas 1–15.  The paper reports improvements
    from 3% (Apache P-HTTP, quota 1) to 25% (Flash, quota 15). *)

type cell = { quota : float option; tput : float; ratio : float }
(** [quota = None] is the interrupt-driven baseline (ratio 1.0). *)

type row = {
  server : Webserver.server_kind;
  http : Webserver.http_mode;
  cells : cell list;
  mean_batch : float;  (** achieved packets/poll at the largest quota *)
}

val compute : Exp_config.t -> row list
val run : Exp_config.t -> string
