(** Mid-query re-optimization via cardinality guards (Kabra–DeWitt style,
    adapted to the streaming executor).

    [execute] optimizes the query, instruments the chosen plan with
    {!Rq_exec.Plan.Guard} checkpoints at every materialization point below
    the join-tree root, and runs it.  When a guard's q-error bound is
    exceeded the executor aborts the remaining pipeline; the observed row
    count is recorded in a {!Feedback} cache, a continuation plan is grown
    from the already-materialized intermediate under the feedback-corrected
    estimator, and execution resumes over it.  Every attempt charges the
    same cost meter, so the reported snapshot includes the wasted work — the
    rescue must genuinely beat the bad plan to show a lower metered cost. *)

open Rq_exec

type outcome = {
  result : Executor.result;
  snapshot : Cost.snapshot;   (** includes every aborted attempt's work *)
  initial_plan : Plan.t;      (** the optimizer's original choice *)
  final_plan : Plan.t;        (** what ultimately produced the result (guard-free) *)
  events : Rq_obs.Trace.event list;
      (** each guard firing as [Guard_fired], followed by the decisions
          taken on it ([Reopt_planned], then [Reopt_adopted] or
          [Reopt_abandoned]), in order: the same events a recorder passed
          as [?obs] receives among its others *)
  reoptimizations : int;
}

val instrument : ?estimator:Cardinality.t -> threshold:float -> Optimizer.t -> Plan.t -> Plan.t
(** Add guards (max q-error [threshold]) at every scan and join output below
    the join-tree root; expected row counts come from [estimator] (default:
    the optimizer's).  Existing guards are replaced; [Materialized] leaves
    are never guarded. *)

val execute_plan :
  ?threshold:float -> ?max_reopts:int -> ?obs:Rq_obs.Recorder.t ->
  Optimizer.t -> Logical.t -> Plan.t -> outcome
(** Instrument the given starting plan and run it with guard-driven
    re-optimization.  The starting plan need not be the optimizer's choice —
    experiments use this to force a known-bad plan and watch the guards
    rescue it.  [threshold] (default 4.0, must be >= 1.0) is the q-error a
    checkpoint tolerates before aborting; [max_reopts] (default 2) bounds
    replanning rounds, after which the current plan finishes guard-free.

    An overflowing guard fires mid-stream
    with the input only partially consumed: the observed cardinality fed back
    to the estimator is extrapolated from the consumed fraction, and when the
    interrupted source is a resumable sequential scan the continuation is
    grown from [Append [Materialized prefix; Scan_resume tail]] — the pages
    already read are not re-charged.  Non-resumable partial prefixes trigger
    a full replan under the corrected estimator instead.

    With [?obs], each attempt executes in a {!Rq_obs.Recorder.scope} whose
    root span (["attempt1"], ["attempt2"], ..., ["attemptN:final"] for a
    guard-free completion) holds the executor's span tree, so aborted
    prefixes' cost deltas stay attributed to the attempt that wasted them,
    and the outcome's [events] are recorded there too. *)

val execute :
  ?threshold:float -> ?max_reopts:int -> ?obs:Rq_obs.Recorder.t ->
  Optimizer.t -> Logical.t ->
  (outcome, string) result
(** [execute_plan] starting from the optimizer's own choice.  [Error] only
    for queries that fail validation/optimization. *)
