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

type memo
(** A shared evidence/quantile/group-count memo for the robust estimator.
    Evidence is keyed structurally — synopsis root, per-table statistics
    version, canonical predicate rendering — so a memo may safely outlive
    the store it first served: a statistics change ({!Rq_stats.Fault.apply},
    a maintenance refresh) moves the table version and keys past entries
    out, never serving stale counts.  Both the evidence and group caches
    are bounded LRUs. *)

val make_memo :
  ?obs:Rq_obs.Recorder.t -> ?capacity:int -> ?kernel:bool ->
  Rq_core.Robust_estimator.t -> memo
(** [capacity] bounds each LRU (default 512); evictions are recorded as
    [Cache_evicted] trace events on [obs].  [kernel] (default [true])
    selects the bitset evidence kernel; [false] forces the reference
    row-scan path (bit-identical answers; the scan arm of the
    differential harness's kernel pass and of the evidence-kernel
    tests). *)

val robust_with : memo:memo -> Rq_stats.Stats_store.t -> Rq_core.Robust_estimator.t -> t
(** {!robust} over an explicit (shareable) memo. *)

val robust : ?kernel:bool -> Rq_stats.Stats_store.t -> Rq_core.Robust_estimator.t -> t
(** The paper's estimator: evidence from the covering join synopsis,
    Bayesian posterior, quantile at the estimator's confidence threshold.
    Fallbacks (Sec. 3.5): per-table synopses combined under AVI when no
    covering synopsis exists; the magic distribution when a table has no
    statistics at all.  Group counts use GEE over the synopsis, streamed
    from the kernel's satisfaction bitmap.  [kernel] as in
    {!make_memo}. *)

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
    answers share one evidence/quantile memo with the internal robust
    estimator, so healthy-stats requests cost the same as {!robust}'s. *)

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
