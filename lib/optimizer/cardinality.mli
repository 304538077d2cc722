(** Pluggable cardinality estimation (the module boundary the paper keeps:
    everything else in the optimizer is estimator-agnostic).

    Two production estimators are provided — the paper's robust
    sampling-based procedure and the conventional histogram + attribute
    value independence baseline — plus an exact oracle for tests, and an
    AVI-over-samples hybrid for the ablation that isolates the value of
    join synopses. *)

open Rq_storage
open Rq_exec

type t = {
  name : string;
  expression_cardinality : Logical.table_ref list -> float;
      (** estimated row count of an SPJ expression *)
  table_selectivity : table:string -> Pred.t -> float;
      (** estimated selectivity of a predicate over one table (used to cost
          index probes and dimension filters) *)
  group_count : Logical.table_ref list -> string list -> float;
      (** estimated number of GROUP BY groups over qualified columns *)
}

val expression_selectivity : Catalog.t -> t -> Logical.table_ref list -> float
(** [expression_cardinality] divided by the root relation's size. *)

val robust : ?kernel:bool -> Rq_stats.Stats_store.t -> Rq_core.Robust_estimator.t -> t
(** The paper's estimator: evidence from the covering join synopsis,
    Bayesian posterior, quantile at the estimator's confidence threshold.
    Fallbacks (Sec. 3.5): per-table synopses combined under AVI when no
    covering synopsis exists; the magic distribution when a table has no
    statistics at all.  Group counts use GEE over the synopsis, streamed
    from the kernel's satisfaction bitmap.  Evidence comes from the
    synopsis's bitset kernel ({!Rq_stats.Join_synopsis.evidence}), whose
    per-atom bitmaps are the only evidence cache; each instance memoizes
    only its posterior quantiles per [(k, n)].  [~kernel:false] asks
    {!Rq_stats.Join_synopsis.evidence_scan} instead and filters group
    rows with a compiled checker (bit-identical answers; the scan arm of
    the differential harness's kernel pass and of the evidence-kernel
    tests). *)

val degrading :
  ?log:(Rq_stats.Fault.event -> unit) ->
  ?obs:Rq_obs.Recorder.t ->
  Rq_stats.Stats_store.t -> Rq_core.Robust_estimator.t -> t
(** The graceful-degradation chain: for each estimation request, use the
    best statistics tier that passes {!Rq_stats.Fault.verify_synopsis} —
    covering join synopsis (the robust estimator at full strength), then
    per-table samples combined under AVI, then histograms, then the magic
    constants.  Every tier transition emits one structured
    {!Rq_stats.Fault.event} through [log] (deduplicated per subsystem;
    mirrored as a [Degraded] trace event when [?obs] is given) instead of
    raising, so damaged statistics degrade estimates but never abort
    optimization.  Health verdicts are memoized per root, and tier-1
    requests are answered by an internal {!robust} estimator over the
    same store, handed the health-checked synopsis so the root is resolved
    once per request: healthy-stats requests cost what {!robust}'s do. *)

val histogram_avi : Rq_stats.Stats_store.t -> t
(** The baseline: per-column equi-depth histograms combined under the AVI
    and containment assumptions (FK joins are cardinality-preserving, so an
    expression's cardinality is the root size times the product of
    per-table selectivities). *)

val sample_avi : Rq_stats.Stats_store.t -> Rq_core.Robust_estimator.t -> t
(** Ablation estimator: per-table samples interpreted robustly, but
    combined across tables with AVI (i.e. join synopses disabled). *)

val sample_ml : Rq_stats.Stats_store.t -> t
(** Ablation estimator: the same join synopses, interpreted with the
    maximum-likelihood k/n of Acharya et al. [1] instead of a posterior
    quantile — isolating the value of the Bayesian interpretation from
    the value of sampling.  At k = 0 it estimates exactly zero, so it
    always gambles on empty evidence. *)

val oracle : Catalog.t -> t
(** Exact answers via {!Naive}; for tests and error measurement only.
    Each instance memoizes its expression cardinalities (keyed on the
    refs, compared structurally), so it is bound to the catalog contents
    it was built on: after {!Rq_stats.Maintenance.apply_update} or any
    other change to the rows, build a fresh one. *)

val fixed_selectivity : Catalog.t -> float -> t
(** An estimator that answers every selectivity question with the given
    constant.  Costing a plan under a sweep of these traces out its cost
    as a function of assumed selectivity — the engine-level analogue of
    the paper's Figure-1 curves, used to locate real plan crossover
    points (see {!Costing} and the [profile] CLI command). *)
