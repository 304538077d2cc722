(** Logical queries: select-project-join expressions over foreign-key joins,
    optionally topped by a GROUP BY aggregate — the query class the paper's
    estimator covers (Sec. 3.2).

    Per-table predicates use the table's own (unqualified) column names;
    grouping/projection columns and aggregate expressions use qualified
    ["table.column"] names. *)

open Rq_storage
open Rq_exec

type table_ref = { table : string; pred : Pred.t }

type semijoin = { outer_key : string; inner : table_ref; inner_key : string }
(** [outer_key IN (SELECT inner_key FROM inner.table WHERE inner.pred)]:
    keep outer rows with at least one inner match (IN and EXISTS both
    normalize to this form at bind time).  [outer_key] is qualified; the
    inner side uses the inner table's own unqualified names.  The inner
    table must not also appear in FROM (a disguised self-join). *)

type scalar = {
  s_expr : Expr.t;     (** qualified outer-side expression *)
  s_cmp : Pred.cmp;
  s_agg : Plan.agg_fn; (** over [s_table]-qualified columns *)
  s_table : string;
  s_pred : Pred.t;     (** on [s_table]'s base schema, unqualified *)
}
(** [s_expr s_cmp (SELECT s_agg FROM s_table WHERE s_pred)]: an
    uncorrelated single-aggregate scalar subquery comparison.  The
    rewrite pass folds it to a constant; enumeration refuses queries that
    still carry one. *)

type t = {
  tables : table_ref list;
      (** joined pairwise along the catalog's FK edges; must be connected *)
  residual : Pred.t;
      (** conjuncts over qualified columns of several tables, applied
          above the join (the binder parks multi-table and redundant
          FK-equality conjuncts here; rewrite pushes what it can down) *)
  semijoins : semijoin list;
  scalars : scalar list;
  group_by : string list;
  aggs : Plan.agg list;   (** empty = no aggregation *)
  projection : string list option;  (** [None] = all columns *)
  order_by : Plan.sort_key list;    (** applied to the final output *)
  limit : int option;
  index_order : bool;
      (** set by the ORDER BY/LIMIT pushdown rule: [order_by] is a single
          indexed key of a single-table query, so enumeration offers an
          ordered index scan and the top-level Sort is elided when that
          access path wins *)
}

val scan : ?pred:Pred.t -> string -> table_ref

val query :
  ?residual:Pred.t -> ?semijoins:semijoin list -> ?scalars:scalar list ->
  ?group_by:string list -> ?aggs:Plan.agg list -> ?projection:string list ->
  ?order_by:Plan.sort_key list -> ?limit:int -> ?index_order:bool ->
  table_ref list -> t

val table_names : t -> string list

val validate : Catalog.t -> t -> (unit, string) result
(** Tables exist, predicates reference existing columns, the join graph
    restricted to the query's tables is connected and has a unique root. *)

val root : Catalog.t -> t -> string option
(** The root relation: the table whose primary key is not joined to by
    another query table (paper Sec. 3.2). *)

val combined_predicate : t -> Pred.t
(** Conjunction of all per-table predicates with columns qualified — the
    predicate evaluated against a join synopsis. *)

val connected_subsets : Catalog.t -> t -> string list list
(** All non-empty subsets of the query's tables that are connected in the
    join graph, sorted by size (the DP enumeration order).  Table lists are
    sorted lexicographically. *)

val pp : Format.formatter -> t -> unit
