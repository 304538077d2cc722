(** Shared machinery for the empirical experiments (paper Sec. 6).

    Every experiment follows the paper's protocol: fix a data set, sweep
    the template's free parameter (which moves the true selectivity while
    all marginals stay put), and for each confidence threshold repeat
    {i statistics-draw -> optimize -> execute} over several independent
    sample draws, reporting mean and standard deviation of the simulated
    execution time.  The histogram baseline is deterministic, so it runs
    once per parameter value. *)

open Rq_storage
open Rq_exec
open Rq_optimizer

exception Bench_error of { context : string; message : string }
(** A bench run hit a non-recoverable input/configuration failure —
    e.g. a pool query the optimizer rejects, or statistics missing the
    synopsis a bench needs.  [context] names the failing query or bench
    stage so the CLI can report it and exit nonzero without a backtrace
    (satisfying "a failed bench run reports the query label"). *)

val bench_error : context:string -> ('a, unit, string, 'b) format4 -> 'a
(** [bench_error ~context fmt ...] raises {!Bench_error}. *)

type cell = {
  times : float array;          (** simulated seconds, one per sample draw *)
  plans : (string * int) list;  (** distinct chosen plans with pick counts *)
}

val cell_mean : cell -> float
val cell_std : cell -> float

type row = {
  parameter : float;       (** the template's free parameter *)
  selectivity : float;     (** measured true selectivity *)
  series : (string * cell) list;  (** per estimator label, e.g. "T=80%" *)
}

val paper_thresholds : float list
(** 5, 20, 50, 80, 95 — the percentages used in every experiment. *)

val threshold_label : float -> string

val make_stats_of_draw :
  Rq_math.Rng.t -> sample_size:int -> Catalog.t -> int -> Rq_stats.Stats_store.t
(** Memoized statistics builder: draw [r] always returns the same store, so
    every threshold is evaluated against the same sample draws. *)

val histogram_label : string
(** "histograms". *)

type executor_cache

val make_cache : Catalog.t -> scale:float -> executor_cache

val measure : executor_cache -> Plan.t -> float
(** Simulated execution time; memoized per plan shape, since execution is
    deterministic for a fixed data set. *)

val plan_digest : Plan.t -> string
(** The full plan rendering [measure] keys its memo on — also the cheap
    way to ask whether two decisions chose the same physical plan. *)

val canonical_rows : Executor.result -> string array
(** Order-insensitive rendering of a result: columns sorted by name,
    floats at 6 significant digits, rows sorted — two plans for the same
    query yield equal arrays.  For counterexample printing; equality
    checks should use {!results_equal} (tolerant where this rounds). *)

val snapshots_equal : Cost.snapshot -> Cost.snapshot -> bool
(** Field-by-field cost-counter equality (float fields under a 1e-9
    tolerance): the contract that the serial and the morsel-parallel runs
    of a plan move every counter identically. *)

val results_equal : ?tol:float -> Executor.result -> Executor.result -> bool
(** Multiset equality of results modulo column order, row order and
    float-summation noise ([tol] is relative, default 1e-6).  The
    differential plan-correctness oracle: every estimator's chosen plan —
    and every cached plan — must produce [results_equal] output for the
    same logical query. *)

val run_robust_series :
  cache:executor_cache ->
  stats_of_draw:(int -> Rq_stats.Stats_store.t) ->
  repetitions:int ->
  thresholds:float list ->
  scale:float ->
  Logical.t ->
  (string * cell) list
(** For each threshold: optimize the query under each of [repetitions]
    independent statistics draws and execute the chosen plans.
    [stats_of_draw r] must return the statistics built from draw [r]
    (memoized by the caller so every threshold sees the same draws, as in
    the paper). *)

val run_estimator_series :
  cache:executor_cache ->
  stats_of_draw:(int -> Rq_stats.Stats_store.t) ->
  repetitions:int ->
  label:string ->
  make:(Rq_stats.Stats_store.t -> Rq_optimizer.Cardinality.t) ->
  scale:float ->
  Logical.t ->
  string * cell
(** Like {!run_robust_series} but for an arbitrary estimator constructor
    (used by ablations: sample-ML, sample-AVI, ...). *)

val run_histogram_cell :
  cache:executor_cache ->
  stats:Rq_stats.Stats_store.t ->
  scale:float ->
  Logical.t ->
  string * cell
(** The baseline estimator's (deterministic) choice and time. *)

val oracle_label : string
(** "oracle". *)

val run_oracle_cell :
  cache:executor_cache -> catalog:Catalog.t -> scale:float -> Logical.t -> string * cell
(** Plan choice under exact cardinalities ({!Rq_optimizer.Cardinality.oracle}):
    the reference against which estimator regret is judged. *)

val merge_cells : cell list -> cell
(** Pools times and plan counts (for per-threshold summaries across a whole
    sweep, e.g. Figure 9(b)). *)

val summarize_series : row list -> (string * Rq_math.Summary.t) list
(** Per-series summary pooled over all parameter values and draws. *)
