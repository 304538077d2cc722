(** Brute-force reference evaluation of logical queries.

    Joins are computed by primary-key lookup from the root outward, with no
    indexes, no cost model and no cleverness — the oracle that executor and
    optimizer tests compare against, and the source of exact cardinalities
    for estimation-error measurements. *)

open Rq_storage
open Rq_exec

val evaluate : Catalog.t -> Logical.table_ref list -> Executor.result
(** The SPJ join of the given tables with their predicates applied; output
    columns are qualified.  The tables must form a connected FK subgraph
    with a unique root. *)

val cardinality : Catalog.t -> Logical.table_ref list -> int

val selectivity : Catalog.t -> Logical.table_ref list -> float
(** Cardinality over root-relation size: the true selectivity the
    estimators are trying to recover. *)

val evaluate_query : Catalog.t -> Logical.t -> Executor.result
(** Full query evaluation: the join, then the semijoins (key-set filters on
    the outer rows) and the residual (compiled over the joined schema), then
    grouping and aggregation by a fold of its own over the joined rows, then
    ORDER BY, LIMIT and projection.  No executor operator runs, so this is an
    independent reference for every plan the engine executes.  Raises
    [Invalid_argument] on a query that still carries scalar subqueries. *)
