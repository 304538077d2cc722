(** Plan cost estimation: predicts the meter's counters; {!Cost.price}
    turns them into seconds.

    Each operator records the counts the executor charges for it (pages,
    cpu tuples, index probes and entries, hash builds and probes, merge
    tuples, sort units, output tuples), with estimated cardinalities in
    place of observed ones.  Under an exact estimator the predicted
    counters equal the metered ones, apart from the exceptions test_stream's
    counter-parity law names.  Every counter is monotone non-decreasing in
    the cardinalities of the operator's inputs, and so is its price — the
    assumption (paper Sec. 3.1.1, footnote 2) under which
    percentile-of-selectivity transfers to percentile-of-cost.

    Costing consults the cardinality estimator for three kinds of numbers:
    per-table predicate selectivities (access-path sizing), SPJ expression
    cardinalities (join sizing — where AVI and robust estimates diverge),
    and group counts. *)

open Rq_storage
open Rq_exec

type estimate = { work : Cost.work; card : float }
(** Predicted counters and output rows. *)

val refs_of : Plan.t -> Logical.table_ref list
(** The logical table refs a subplan covers, with single-table filter
    conjuncts folded into the owning table's predicate.  [Materialized]
    leaves report the refs they were built from; guards are transparent.
    Used by the re-optimizer to key observed cardinalities. *)

val estimate : Catalog.t -> Cardinality.t -> Plan.t -> estimate

val plan_cost :
  Catalog.t -> ?constants:Cost.constants -> ?scale:float -> Cardinality.t -> Plan.t ->
  float
(** [Cost.price] of the estimate's work; [constants] and [scale] (the
    executor's logical-size multiplier) default as {!Cost.create}'s do. *)

val cost_curve :
  Catalog.t -> ?constants:Cost.constants -> ?scale:float ->
  selectivities:float list -> Plan.t -> (float * float) list
(** [(assumed selectivity, estimated cost)] points for one plan, using
    {!Cardinality.fixed_selectivity} — the engine-level Figure-1 curve. *)

val crossover_points :
  Catalog.t -> ?constants:Cost.constants -> ?scale:float -> ?grid:int ->
  Plan.t -> Plan.t -> float list
(** Assumed selectivities (on a uniform grid of [grid] cells over [0,1],
    default 400) at which the cheaper of the two plans flips — the
    engine's own crossover points, the quantities the confidence
    threshold is calibrated against. *)
