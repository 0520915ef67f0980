(* Category paths for the kernel's attribution tree, interned once.
   Entry costs are split from bodies with Profile.seq so the profiler
   can show kernel-crossing overhead separately (paper Table 2). *)
let a_syscall_entry = Profile.intern [ "kernel"; "syscall"; "entry" ]
let a_syscall_body = Profile.intern [ "kernel"; "syscall"; "body" ]
let a_trap_entry = Profile.intern [ "kernel"; "trap"; "entry" ]
let a_trap_body = Profile.intern [ "kernel"; "trap"; "body" ]
let a_user = Profile.intern [ "user" ]
let a_ip_output = Profile.intern [ "kernel"; "ip_output" ]
let a_tcp_timer = Profile.intern [ "softintr"; "tcp_timer" ]
let a_ctx_switch = Profile.intern [ "kernel"; "ctx_switch" ]

type step = {
  prio : int;
  work_us : float;
  trigger : Trigger.kind option;
  attr : Profile.attr;  (* category of the step's body *)
  entry_us : float;  (* leading slice attributed to [entry_attr] *)
  entry_attr : Profile.attr;
}

let attr_of ~entry_us ~entry_attr ~attr =
  if Profile.enabled () && entry_us > 0.0 then
    Some (Profile.seq [ (entry_attr, Time_ns.of_us entry_us) ] ~tail:attr)
  else if Profile.enabled () then Some attr
  else None

let scaled m us = Costs.scale_us (Machine.profile m) us

(* A kernel entry: its cost, split out for the profiler, then the body. *)
let enter m ~entry_us ~entry_attr ~attr ~work_us ~trigger cb =
  Machine.submit_quantum m
    ?attr:(attr_of ~entry_us ~entry_attr ~attr)
    ~prio:Cpu.prio_kernel ~work_us:(entry_us +. scaled m work_us) ~trigger cb

let syscall m ~work_us cb =
  enter m ~entry_us:(Machine.profile m).Costs.syscall_entry_us ~entry_attr:a_syscall_entry
    ~attr:a_syscall_body ~work_us ~trigger:(Some Trigger.Syscall) cb

let trap m ~work_us cb =
  enter m ~entry_us:(Machine.profile m).Costs.trap_entry_us ~entry_attr:a_trap_entry
    ~attr:a_trap_body ~work_us ~trigger:(Some Trigger.Trap) cb

let user m ~work_us cb =
  Machine.submit_quantum m
    ?attr:(attr_of ~entry_us:0.0 ~entry_attr:a_user ~attr:a_user)
    ~prio:Cpu.prio_user ~work_us:(scaled m work_us) ~trigger:None cb

let step ~prio ~trigger ~attr ?(entry_us = 0.0) ?(entry_attr = attr) work_us =
  { prio; work_us; trigger; attr; entry_us; entry_attr }

let step_syscall ?(work_us = 4.0) m =
  let entry_us = (Machine.profile m).Costs.syscall_entry_us in
  step ~prio:Cpu.prio_kernel ~trigger:(Some Trigger.Syscall) ~attr:a_syscall_body ~entry_us
    ~entry_attr:a_syscall_entry (entry_us +. scaled m work_us)

let step_trap ?(work_us = 12.0) m =
  let entry_us = (Machine.profile m).Costs.trap_entry_us in
  step ~prio:Cpu.prio_kernel ~trigger:(Some Trigger.Trap) ~attr:a_trap_body ~entry_us
    ~entry_attr:a_trap_entry (entry_us +. scaled m work_us)

let step_user m ~work_us = step ~prio:Cpu.prio_user ~trigger:None ~attr:a_user (scaled m work_us)

let step_ip_output ?(work_us = 7.0) m =
  step ~prio:Cpu.prio_kernel ~trigger:(Some Trigger.Ip_output) ~attr:a_ip_output (scaled m work_us)

(* DEAD001: a step the script tests run. *)
let[@lint.allow "DEAD001"] step_tcp_timer ?(work_us = 1.5) m =
  step ~prio:Cpu.prio_softintr ~trigger:(Some Trigger.Tcpip_other) ~attr:a_tcp_timer
    (scaled m work_us)

let step_ctx_switch m =
  step ~prio:Cpu.prio_kernel ~trigger:None ~attr:a_ctx_switch
    (Machine.profile m).Costs.context_switch_us
