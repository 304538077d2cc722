(** Candidate physical-plan generation.

    Single tables get every access path the physical design supports (seq
    scan, single-index range, index intersection).  Joins are enumerated
    with a System-R-style dynamic program over connected subsets of the FK
    join graph, combining hash, merge and indexed-nested-loop joins; pure
    star queries additionally get the semijoin-intersection strategies of
    Experiment 3, including hybrids that semijoin a subset of the
    dimensions and hash-join the rest.

    The DP keeps the cheapest plan per subset under the supplied cost
    function, so the estimator being evaluated drives every choice — which
    is precisely the paper's experimental setup. *)

open Rq_storage
open Rq_exec

val sargable_ranges : Pred.t -> (string * Value.t option * Value.t option) list
(** Per-column closed ranges implied by the predicate's top-level
    conjuncts (equality becomes a degenerate range); multiple conjuncts on
    one column are intersected.  Only constant-foldable bounds qualify. *)

val access_paths :
  ?ordered:string * bool -> Catalog.t -> Logical.table_ref -> Plan.t list
(** All access paths for one table: always a seq scan; an index-range scan
    per indexed sargable column; an index intersection per subset (size >=
    2) of indexed sargable columns.  [?ordered:(column, descending)] adds
    an ordered index scan candidate when that column is indexed (used for
    ORDER BY/LIMIT pushdown). *)

val join_candidates :
  Catalog.t -> Logical.t ->
  left_tables:string list -> left_plan:Plan.t ->
  right_tables:string list -> right_plan:Plan.t -> Plan.t list
(** All join operators applicable between two disjoint subplans: hash joins
    both ways and a merge join per crossing FK edge, plus indexed NL joins
    when one side is a single indexed base table.  Exposed so the mid-query
    re-optimizer can grow a continuation plan from a materialized
    intermediate. *)

val left_deep_plan : Catalog.t -> Logical.t -> Plan.t option
(** The deterministic plan of last resort: seq-scan every table and hash-join
    them left-deep following FK connectivity in query order.  Consults no
    cost function and no statistics, so it is available when the
    optimization budget is exhausted.  [None] only for empty or disconnected
    queries. *)

val join_plans :
  Catalog.t -> cost_fn:(Plan.t -> float) -> Logical.t -> Plan.t list
(** Complete join plans (no aggregation/projection on top): the DP winner
    plus, for star-shaped queries, every semijoin/hybrid alternative,
    cheapest first.  [cost_fn] is called once per candidate compared.
    Singleton queries return all access paths and cost none of them. *)

val qualified_columns : Catalog.t -> string -> string list
(** A base table's column names qualified as ["table.column"], in schema
    order: the columns [SELECT *] over the table names. *)

val wrap_top : Catalog.t -> Logical.t -> Plan.t -> Plan.t
(** Adds everything above the join: residual filter, semijoin lowering
    (distinct-build hash joins plus a schema-restoring projection),
    aggregation, ORDER BY, LIMIT and the projection — last, so ORDER BY may
    name a column the SELECT list drops.  The Sort is elided when
    the underlying plan is an ordered index scan that already delivers the
    single requested sort key. *)
