(** Table 2 + Figure 6: trigger-state sources and their impact.

    Under the ST-Apache workload, accounts the fraction of trigger
    states contributed by each event source (Table 2: syscalls 47.7%,
    ip-output 28%, ip-intr 16.4%, tcpip-others 5.4%, traps 2.5%), and
    recomputes the trigger-interval CDF with each source removed
    (Figure 6) to show which sources matter. *)

type source_row = { source : Trigger.kind; fraction_pct : float; paper_pct : float }

type removed = { removed : Trigger.kind option; mean_us : float; hist : Histogram.t }

type result = { sources : source_row list; cdfs : removed list }

val compute : Exp_config.t -> result
val run : Exp_config.t -> string
