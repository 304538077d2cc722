(** The query optimizer: enumerate, estimate, pick the cheapest plan.

    The estimator is a plug-in ({!Cardinality.t}); everything else —
    enumeration, costing, search — is shared between the robust and
    baseline configurations, mirroring the paper's claim that the robust
    procedure drops into an existing optimizer by changing only the
    cardinality estimation module. *)

open Rq_exec

type t

val create :
  ?constants:Cost.constants -> ?scale:float -> Rq_stats.Stats_store.t ->
  Cardinality.t -> t

val robust :
  ?constants:Cost.constants -> ?scale:float ->
  ?confidence:Rq_core.Confidence.t -> ?prior:Rq_core.Prior.t ->
  Rq_stats.Stats_store.t -> t
(** Robust-sampling configuration; confidence defaults to the system-wide
    moderate (80%) setting. *)

val baseline :
  ?constants:Cost.constants -> ?scale:float -> Rq_stats.Stats_store.t -> t
(** Histogram + AVI configuration. *)

val estimator : t -> Cardinality.t
val stats : t -> Rq_stats.Stats_store.t
val scale : t -> float
val constants : t -> Cost.constants

type decision = {
  plan : Plan.t;          (** the chosen complete plan (incl. aggregation) *)
  estimated_cost : float; (** simulated seconds, at the active estimator *)
  estimated_card : float; (** estimated output rows *)
  alternatives : (string * float) list;
      (** every top-level join-plan candidate with its estimated cost,
          cheapest first ([Plan.describe] labels) *)
  degraded : Rq_stats.Fault.event list;
      (** degradations hit during this optimization; currently the
          budget-exhaustion event (estimator-tier events flow through the
          [log] callback of {!Cardinality.degrading}) *)
  rewrites : (string * int) list;
      (** rewrite rules applied before enumeration (rule name ->
          application count); empty when [rewrite:false] *)
}

val optimize :
  ?budget:int ->
  ?rewrite:bool ->
  ?obs:Rq_obs.Recorder.t ->
  t ->
  Logical.t ->
  (decision, string) result
(** Validates, rewrites ({!Rewrite.rewrite}, on by default — pass
    [~rewrite:false] to skip), enumerates, costs, picks.  [Error] reports
    validation failures, and queries still carrying scalar subqueries when
    the rewrite pass is disabled.  [obs] receives the
    [Rewrite_applied] trace events.  [budget] caps the number of
    candidates the join enumeration costs, each exactly once; when exceeded,
    the search is abandoned and the deterministic left-deep fallback plan
    ({!Enumerate.left_deep_plan}) is returned instead, with a
    [Budget_exceeded] event in [degraded] — an optimizer that is late is a
    failure mode, not an excuse to not answer. *)

val optimize_exn :
  ?budget:int ->
  ?rewrite:bool ->
  ?obs:Rq_obs.Recorder.t ->
  t ->
  Logical.t ->
  decision

val explain : t -> Logical.t -> (string, string) result
(** Human-readable report: chosen plan tree, estimated cost/cardinality,
    and the rejected alternatives. *)
