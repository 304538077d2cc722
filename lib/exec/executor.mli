(** Plan execution with cost accounting.

    [run] executes the plan and charges every page read, index probe and
    per-tuple operation to the supplied cost meter; the meter's accumulated
    simulated seconds are the "query execution time" that the experiments
    report.

    The engine is {!Stream_exec}: it pulls vector batches through a
    pipelined operator tree, so [Limit] stops pulling once satisfied and
    guards fire mid-stream, and early-exit plans charge only the work
    actually performed. *)

open Rq_storage

type result = Exec_common.result = { schema : Schema.t; tuples : Relation.tuple array }

type violation = Exec_common.violation = {
  label : string;          (** the guard's label (guarded subplan shape) *)
  expected_rows : float;   (** optimizer's estimate at instrumentation time *)
  actual_rows : int;       (** rows seen when the guard fired *)
  q_error : float;         (** max(est/act, act/est), 0.5 floors *)
  result : result;         (** the rows seen so far — reusable as a
                               {!Plan.Materialized} leaf *)
  subplan : Plan.t;        (** the guarded subplan that produced them *)
  complete : bool;         (** input fully consumed: [result] is the whole
                               output (an underflow caught at drain) *)
  progress : float;        (** fraction of the input consumed, in [0, 1];
                               1.0 when [complete] *)
  resume : Plan.t option;  (** a plan computing exactly the rows NOT in
                               [result], when the source supports it (a
                               mid-scan {!Plan.Scan_resume}); [None] when
                               [complete] or the prefix is non-resumable *)
}

exception Guard_violation of violation
(** Raised by [run] when a {!Plan.Guard}'s q-error bound is exceeded.  All
    work up to the violation is already charged to the meter; the carried
    result (plus [resume] for a mid-stream overflow) lets a re-optimizer
    pick up without repeating it. *)

val q_error : expected:float -> actual:int -> float
(** Alias of {!Plan.q_error} — the guard firing rule. *)

val run : ?obs:Rq_obs.Recorder.t -> Catalog.t -> Cost.t -> Plan.t -> result
(** {!Stream_exec.run}.  Raises [Invalid_argument] on ill-formed plans
    (missing index, key out of scope); run [Plan.validate] first for a
    friendly error.  Raises [Guard_violation] when a guard fires.

    With [?obs], every plan node gets a recorder span node, children in
    {!Plan.children} order, whose metric delta is that subtree's meter
    movement, accumulated per pull; the tree is attached when the root
    drains (or unwinds), beneath the recorder's running scope if there is
    one.  Guards emit
    [Guard_ok]/[Guard_fired] trace events, and spans unwound by an exception
    are kept, marked aborted, so wasted work stays attributed.  A fired
    guard's input span is [not] aborted — its partial rows were produced
    successfully and are reusable. *)

val run_timed :
  Catalog.t ->
  ?constants:Cost.constants ->
  ?scale:float ->
  ?obs:Rq_obs.Recorder.t ->
  Plan.t ->
  result * Cost.snapshot
(** Convenience: fresh meter, run, snapshot. *)
