(** Table 1 + Figure 4: trigger-state interval distribution across
    workloads.

    Runs every workload of the paper's §5.3 — the Apache web server
    (with and without a compute-bound background process), the Flash
    web server, a RealPlayer-like media player, a disk-bound NFS
    server, a FreeBSD kernel build, and Apache on the 500 MHz P-III
    profile — records the time between successive trigger states, and
    reports the distribution statistics of Table 1 plus the cumulative
    distributions of Figure 4 as an ASCII plot. *)

type workload =
  | ST_apache
  | ST_apache_compute
  | ST_flash
  | ST_realaudio
  | ST_nfs
  | ST_kernel_build
  | ST_apache_xeon

type row = {
  workload : workload;
  samples : int;
  max_us : float;
  mean_us : float;
  median_us : float;
  stddev_us : float;
  above_100us_pct : float;
  above_150us_pct : float;
}

val measure : Exp_config.t -> workload -> row * Histogram.t
(** Run one workload; the histogram covers 0–150 us for the CDF plot. *)

val run : Exp_config.t -> string
