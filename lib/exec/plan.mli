(** Physical query plans.

    The plan algebra covers exactly the plan families the paper's
    experiments exercise: sequential scans; single-index range scans; the
    risky index-intersection access method (Sec. 2.1); hash, merge and
    indexed-nested-loop joins (Exp. 2); the semijoin-intersection star-join
    strategy and its hybrid with hash joins (Exp. 3); and group-by
    aggregation.

    Naming convention: a scan of table [t] outputs columns qualified as
    ["t.column"]; predicates *inside* access paths use unqualified base
    column names, predicates above scans use qualified names. *)

open Rq_storage

type probe = { column : string; lo : Value.t option; hi : Value.t option }
(** One index range probe: [lo <= column <= hi], [None] = open. *)

type access =
  | Seq_scan
  | Index_range of probe
      (** probe one index, fetch matching rows by RID *)
  | Index_intersect of probe list
      (** probe several indexes, intersect RID sets, fetch survivors;
          requires at least two probes *)
  | Index_order of { column : string; descending : bool }
      (** walk the whole index in key order and fetch every row by RID:
          emits rows exactly as a stable sort on [column] would, so a
          Sort above it can be elided (the ORDER BY/LIMIT pushdown
          target).  Each row costs a random page read, but under a LIMIT
          the streaming engine stops fetching early *)

type agg_fn =
  | Count_star             (** count of all rows *)
  | Count of Expr.t        (** count of rows where the expression is not NULL *)
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type agg = { fn : agg_fn; output_name : string }

type sort_key = { sort_column : string; descending : bool }

type star_dim = {
  dim_table : string;
  dim_pred : Pred.t;   (** on the dimension's base schema *)
  fact_fk : string;    (** fact column with an FK to the dimension *)
}

type t =
  | Scan of { table : string; access : access; pred : Pred.t }
      (** [pred] is the full base-table predicate (unqualified names); it is
          re-checked on fetched rows, so access paths may cover it only
          partially *)
  | Scan_resume of { table : string; pred : Pred.t; from_rid : int }
      (** the tail of an interrupted sequential scan: rows with
          RID >= [from_rid], same predicate semantics as [Scan] with
          [Seq_scan] access.  Produced by the re-optimizer when a streaming
          guard fires mid-scan, so the already-streamed prefix (carried as a
          [Materialized] leaf under an [Append]) is not re-read; only the
          unscanned pages are charged *)
  | Hash_join of { build : t; probe : t; build_key : string; probe_key : string }
      (** keys are qualified output column names *)
  | Merge_join of { left : t; right : t; left_key : string; right_key : string }
      (** inputs are sorted on the keys if not already (sorting is charged
          unless the input is a scan clustered on the key) *)
  | Indexed_nl_join of {
      outer : t;
      outer_key : string;       (** qualified column of the outer plan *)
      inner_table : string;
      inner_key : string;       (** indexed base column of the inner table *)
      inner_pred : Pred.t;      (** residual on the inner base schema *)
    }
  | Star_semijoin of { fact : string; fact_pred : Pred.t; dims : star_dim list }
      (** Exp.-3 strategy: semijoin the fact table with each filtered
          dimension via the fact's FK indexes, intersect the RID sets, fetch
          qualifying fact rows once, then stitch dimension columns back on *)
  | Filter of t * Pred.t
  | Project of t * string list
  | Aggregate of { input : t; group_by : string list; aggs : agg list }
  | Sort of { input : t; keys : sort_key list }
      (** stable sort on qualified output columns; always charges a sort *)
  | Limit of t * int
      (** first n rows of the input's order *)
  | Guard of { input : t; expected_rows : float; max_q_error : float; label : string }
      (** cardinality checkpoint: passes the input through unchanged, but if
          the q-error between [expected_rows] and the actual row count
          exceeds [max_q_error] the executor raises
          {!Executor.Guard_violation} carrying the rows already seen, as
          columns, so a re-optimizer can resume from them.  Order-transparent:
          a guard over a clustered scan still satisfies a merge join's sort
          requirement. *)
  | Materialized of {
      name : string;
      schema : Schema.t;
      cols : Value.t array array;
          (** one column per schema column, each of length [n_rows]: a
              fired guard's [columns], passed on unchanged *)
      n_rows : int;
      refs : (string * Pred.t) list;
          (** the base-table predicates this intermediate covers (base-schema
              column names), so costing above it can still form logical
              expression refs *)
    }
      (** an already-computed intermediate result used as a plan leaf when
          execution resumes after a guard violation; costs nothing to read *)
  | Append of t list
      (** concatenation of the inputs' outputs, in order; all inputs must
          share a schema.  The mid-stream-recovery leaf:
          [Append [Materialized prefix; Scan_resume rest]] replays a
          partially-drained scan without repeating its pages *)

val qualified_schema : Catalog.t -> string -> Schema.t
(** A base table's schema with every column named ["table.column"]: the
    output schema of a scan of it. *)

val schema_of : Catalog.t -> t -> Schema.t
(** Output schema (qualified names).  Raises if the plan is ill-formed
    (unknown tables/columns). *)

val base_tables : t -> string list
(** Tables referenced, without duplicates, in first-appearance order. *)

val validate : Catalog.t -> t -> (unit, string) result
(** Structural checks: indexes exist for every probe, intersect has >= 2
    probes, FK edges exist for star dims, keys are in scope, and a
    materialized leaf has one column per schema column, each [n_rows]
    long. *)

val q_error : expected:float -> actual:int -> float
(** max(est/act, act/est) with 0.5 floors so empty results stay finite;
    >= 1, 1 = perfect.  The one definition both the executor's guards and
    EXPLAIN ANALYZE use, so "would fire" and "did fire" cannot drift. *)

val pp : Format.formatter -> t -> unit
(** Multi-line EXPLAIN-style rendering. *)

val children : t -> t list
(** A node's direct inputs, in the order the executor runs and spans
    them: build before probe, left before right, an indexed-NL join's
    outer only, an [Append]'s parts in order.  Scans, star semijoins and
    materialized leaves have none. *)

val node_label : t -> string
(** One-line label for this node alone (children not descended), e.g.
    ["SeqScan(lineitem)"] or ["HashJoin(a = b)"]; used for span labels and
    the EXPLAIN ANALYZE table. *)

val describe : t -> string
(** One-line plan shape, e.g. ["IdxIsect(lineitem)"] or
    ["Hash(Hash(INL(part,lineitem)),orders)"]; used to label which plan the
    optimizer picked in experiment output.  Guards are transparent so the
    label names the same shape whether or not the plan is instrumented. *)

val strip_guards : t -> t
(** The same plan with every [Guard] removed (guarded subplans kept). *)

val guard_count : t -> int
(** Number of [Guard] nodes in the plan. *)
