(** The calibrated machine cost model — single source of truth.

    Every absolute cost in the simulation lives here.  The defaults are
    calibrated against the paper's own measurements (see DESIGN.md §4):

    - the total cost of a hardware timer interrupt under a busy web
      server workload is 4.45 us on the 300 MHz Pentium II profile
      (paper §5.1, Figure 3), 4.36 us on the 500 MHz Pentium III and
      8.64 us on the 500 MHz Alpha 21164;
    - a soft-timer check at a trigger state is a clock read plus one
      comparison (paper §3), and dispatching a due soft event costs a
      procedure call, not a state save/restore.

    The interrupt cost is split into a save/restore component and a
    cache/TLB-pollution component; the pollution part is additionally
    scaled by the running workload's locality sensitivity (see
    {!Cache}), which is what makes a tight event-driven server (Flash)
    lose more per interrupt than a context-switch-heavy one (Apache) —
    the effect measured by the paper's Table 3. *)

type profile = {
  name : string;
  cpu_mhz : float;
      (** CPU clock; also the resolution of the measurement clock
          (cycle counter / TSC). *)
  intr_save_restore_us : float;
      (** Saving and restoring CPU state plus vectoring, per hardware
          interrupt. *)
  intr_cache_pollution_us : float;
      (** Cache and TLB reload cost inflicted on the interrupted
          computation, per interrupt, at locality sensitivity 1.0. *)
  syscall_entry_us : float;  (** Kernel entry/exit for a system call. *)
  trap_entry_us : float;  (** Kernel entry/exit for an exception. *)
  context_switch_us : float;
      (** Process context switch, including its locality shift. *)
  softtimer_check_us : float;
      (** Clock read + comparison performed at every trigger state. *)
  softtimer_fire_us : float;
      (** Dispatch of one due soft-timer handler (a procedure call). *)
  interrupt_clock_hz : float;
      (** Frequency of the periodic system timer that backs up soft
          timers (FreeBSD: 1 kHz ["hz" was 100 in 2.2.6 but the paper's
          statement of X = 1000 and 1 ms backup granularity corresponds
          to a 1 kHz clock; we follow the paper]). *)
  idle_loop_us : float;
      (** Duration of one idle-loop iteration, i.e. the spacing of
          idle-loop trigger states (~2 us at 300 MHz; Table 1, ST-nfs). *)
}

val pentium_ii_300 : profile
(** The paper's main testbed: 300 MHz Pentium II, FreeBSD 2.2.6. *)

val pentium_iii_500 : profile
(** 500 MHz Pentium III (Xeon), FreeBSD 3.3 (paper §5.1, §5.3). *)

val alpha_21164_500 : profile
(** AlphaStation 500au, 500 MHz 21164, FreeBSD 4.0-beta (paper §5.1). *)

val intr_total_us : profile -> locality:float -> float
(** Total cost of one hardware interrupt with a null handler when the
    interrupted workload has the given locality sensitivity:
    [save_restore + pollution * locality]. *)

val scale_us : profile -> float -> float
(** [scale_us p us] rescales a duration calibrated on the 300 MHz
    Pentium II to profile [p]'s clock: CPU-bound work shrinks linearly
    with clock speed (paper §5.3 observes exactly this for trigger
    intervals). *)
