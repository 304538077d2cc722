(** The logical rewrite layer: an ordered list of semantics-preserving
    rules over {!Logical.t}, driven to a fixpoint between binding and DP
    enumeration.

    The pass list, in order:
    - ["const-fold"] — fold constant subexpressions; comparisons between
      constants (including a constant NULL on either side, which the
      null-safe evaluator makes false) collapse to [True]/[False].
    - ["simplify"] — flatten nested [And]/[Or], absorb [True]/[False],
      cancel double negation, dedupe conjuncts by canonical rendering.
    - ["scalar-fold"] — execute each uncorrelated scalar subquery once on
      a throwaway meter and replace it with a constant comparison.
    - ["filter-pushdown"] — move residual conjuncts that mention a single
      table below the join into that table's predicate.
    - ["decorrelate"] — merge an [IN]/[EXISTS] semijoin whose key pair is
      a declared FK edge into the join graph (sound because PK uniqueness
      preserves multiplicity and NULL/dangling FKs drop rows either way).
    - ["cross-product-avoid"] — drop residual equality conjuncts that
      restate an FK edge the enumerator already joins along.
    - ["project-prune"] — drop projections shadowed by aggregation or
      equal to the full output schema.
    - ["sort-limit-pushdown"] — mark single-table queries whose ORDER BY
      is a single indexed key so enumeration can offer an ordered index
      scan and elide the Sort (composing with streaming LIMIT early
      exit).

    Every rule application emits a {!Rq_obs.Trace.Rewrite_applied} event.
    Each rule has a qcheck equivalence law in [test_rewrite]. *)

open Rq_storage

type report = {
  applied : (string * int) list;  (** rule name -> application count, pass order *)
  fixpoint : bool;
      (** false only if some rule exhausted its budget and still wants to
          fire — the result is still sound, just not fully normalized *)
}

val rule_names : string list
(** Names of all rules in pass order. *)

val apply_rule : Catalog.t -> string -> Logical.t -> (Logical.t * string) option
(** Apply one named rule once.  [None] means the rule is at its own
    fixpoint on this query.  Raises [Invalid_argument] on unknown names.
    Exposed so the qcheck laws can test each rule in isolation. *)

val rewrite : ?obs:Rq_obs.Recorder.t -> Catalog.t -> Logical.t -> Logical.t * report
(** Drive the pass list to fixpoint: repeatedly apply the first
    non-exhausted rule that fires, at most 32 applications per rule.  Each
    application is recorded on [obs] as a [Rewrite_applied] trace event. *)

val canonical : Logical.t -> Logical.t
(** Catalog-free fixpoint of the pure rules (const-fold, simplify,
    filter-pushdown, aggregation-shadowed projection pruning) — the
    normalization {!Rq_sql.Fingerprint} applies so differently spelled
    but identical queries share a plan-cache key. *)

val unsound_for_tests : Logical.t -> Logical.t
(** Deliberately broken "rewrite" that drops the first filter conjunct it
    finds (identity when there is none).  Used by the fuzzer's
    [--self-test-rewrite] mode to prove the equivalence harness catches a
    bad rule. *)
