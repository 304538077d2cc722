(* The degradation-tier transition digest the fuzzer steers on: a compact
   token per robustness-relevant trace event, concatenated in stream order.
   Two runs that walked the same tier chain (synopsis -> histogram -> magic
   constants), fired the same guards and made the same reopt decisions get
   the same digest even when row counts and q-errors differ — those carry
   no *structural* information, so folding them in would make every mutant
   look novel and destroy the coverage signal. *)

open Rq_obs

let token = function
  | Trace.Degraded { kind; subsystem; _ } -> "d:" ^ kind ^ ":" ^ subsystem
  | Trace.Guard_ok _ -> "g+"
  | Trace.Guard_fired _ -> "g!"
  | Trace.Reopt_planned _ -> "r?"
  | Trace.Reopt_adopted _ -> "r+"
  | Trace.Reopt_abandoned _ -> "r-"
  | Trace.Plan_cache { outcome; _ } -> "c:" ^ outcome
  | Trace.Stats_refresh _ -> "s"
  | Trace.Rewrite_applied { rule; _ } -> "w:" ^ rule

let of_events events = String.concat ";" (List.map token events)

let of_recorder recorder = of_events (Recorder.events recorder)
