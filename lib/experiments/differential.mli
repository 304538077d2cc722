(** The differential plan-correctness harness.

    A bad estimate may cost time, never an answer.  {!check} runs one
    logical query through every candidate the engine can answer it with and
    compares each answer with {!Rq_optimizer.Naive.evaluate_query}, which
    shares no executor operator with the engine and never prunes chunks by
    zone map, so each comparison also checks that pruning is invisible.  A
    CERT pass (Cardinality
    Estimation Restriction Testing) checks, without running a query, that
    no estimator's estimate rises when a conjunct is added.  The fuzzer
    ({!Exp_fuzz}) and the differential test suite both call {!check}; the
    estimator list and every pass live only here. *)

open Rq_storage
open Rq_exec
open Rq_optimizer

type env = {
  catalog : Catalog.t;
  scale : float;
  stats : Rq_stats.Stats_store.t;  (** healthy, built over [catalog] *)
  faulted : (string * Rq_stats.Stats_store.t) list;
      (** labelled damaged copies of [stats], one degraded and CERT run each *)
  pools : Parallel.t list;  (** morsel pools; the caller owns and shuts them down *)
}

type pass =
  | Estimators
      (** the synopsis evidence for the query's predicate against a row scan
          of the sample (pass [evidence]), then the oracle's and each
          estimator's plan, rewrites off *)
  | Rewrites    (** the same plans with rewrites on, serially and on every pool *)
  | Cache       (** the robust optimizer through a fresh plan cache: miss, then hit *)
  | Degraded    (** per faulted store: the degrading estimator under guards and
                    re-optimization, with the 1e-9 span/meter reconciliation *)
  | Cert        (** an added conjunct never raises an estimate *)

(** A planted bug, to prove the harness catches one. *)
type sabotage =
  | Unsound_rewrite
      (** the rewritten arms optimize {!Rewrite.unsound_for_tests} of the
          query: the rewrite pass must report *)

type divergence = { pass : string; detail : string }

type probe = { coverage : string * string; divergence : divergence option }
(** [coverage] = (the labelled structural digests of the rewritten plans and
    the degraded passes' final plans, the degraded passes' tier-transition
    digests).  [divergence] is the first failed comparison, if any. *)

val estimators : Catalog.t -> Rq_stats.Stats_store.t -> (string * Cardinality.t) list
(** Fresh instances of the oracle and the four estimators, by name:
    [oracle], [robust-sampling], [histogram-avi], [sample-avi],
    [sample-ml]. *)

val check :
  ?passes:pass list -> ?sabotage:sabotage -> env -> Logical.t -> (probe, string) result
(** Run the query through [passes] (default: every pass, in declaration
    order) and stop at the first divergence.  [Error] means the query
    itself is outside the harness's class (it does not validate, or
    [Naive] refuses it) — not a divergence.  The degraded pass re-optimizes at {!Rq_optimizer.Reopt}'s
    default guard threshold. *)

val answer_mismatch : Logical.t -> reference:Executor.result -> Executor.result -> string option
(** [None] when the candidate equals the reference as a multiset
    ({!Exp_common.results_equal}) and, under ORDER BY, in the sequence of
    the ORDER BY columns that appear in the output (ties may reorder
    rows); otherwise a short description of the difference. *)

val cert_violation : Cardinality.t -> Logical.t -> string option
(** For each non-trivial conjunct of each table's predicate: the estimates
    of the query without it must be at least those with it, for
    [expression_cardinality] over the query's tables and
    [table_selectivity] on that table (up to 1e-9 of float-association
    slack).  Returns the first violation. *)
