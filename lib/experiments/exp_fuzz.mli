(** Feedback-guided differential fuzzer.

    An evolutionary loop over (data-state mutation, stats-fault profile,
    SQL query) cases.  Each case's query, an {!Rq_sql.Ast.statement}, is
    bound by {!Rq_sql.Binder.bind} and goes through {!Differential.check},
    which holds every differential pass and takes {!Rq_optimizer.Naive} as
    the reference answer; the case's faults make the damaged statistics
    of its degraded pass, and the rewritten plans also run on a 2-domain
    morsel pool.

    Coverage is the (structural plan fingerprint x degradation-tier
    transition digest) pair; a mutant joins the corpus only if its pair is
    unseen (Query Plan Guidance).  Parents are drawn by the rarity of
    their pair's two halves in the corpus, and each child comes from one
    of three operators (see {!operator}).  Divergences are delta-debugged
    to a minimal case and serialized as a replayable [.fuzz-repro] file. *)

open Rq_workload

(** {2 Cases} *)

type workload = Tpch | Star

type case = {
  workload : workload;
  catalog_seed : int;
  mutations : Mutate.t list;          (** applied to the catalog, in order *)
  faults : Rq_stats.Fault.injection list;  (** applied to the statistics *)
  query : Rq_sql.Ast.statement;
      (** FROM starts with the workload's root table; WHERE is a conjunction
          of column-vs-literal comparisons and [IN] subqueries over FK
          edges *)
  pool_pages : int option;
      (** buffer-pool-capacity gene: global pool capped at this many pages
          (restored afterwards) while the case's passes run — eviction
          pressure must never change an answer. *)
}

val workload_to_string : workload -> string

val case_to_json : case -> Rq_obs.Json.t
(** One JSON object: the workload, seed, mutation, fault and pool genes,
    and the query as SQL text. *)

val case_of_json : Rq_obs.Json.t -> (case, string) result
val case_summary : case -> string

val gen_query : Rq_math.Rng.t -> workload -> Rq_sql.Ast.statement
(** One random query of the workload, drawn exactly as {!gen_case} draws
    its case's. *)

(** {2 Configuration} *)

type config = {
  iterations : int;            (** mutation steps; 0 = unbounded (soak) *)
  seed : int;
  corpus_dir : string option;  (** persist/reload kept cases as [*.fuzz] *)
  baseline : bool;             (** also run the pure-random control *)
  late_after : int option;     (** require an unseen pair after this iteration *)
  sabotage : Differential.sabotage option;
      (** plant a bug; the run then passes only if the fuzzer catches it
          in the targeted pass *)
  repro_file : string;
  workloads : workload list;
  catalog_seeds : int list;
  tpch_scale : float;
  star_rows : int;
  sample_size : int;
  seed_corpus : int;
  shrink_budget : int;         (** max case evaluations while shrinking *)
}

val default_config : config
val quick_config : config  (** reduced sizes, for [experiment --quick] *)

(** {2 Probing (exposed for tests)} *)

type divergence = Differential.divergence = { pass : string; detail : string }

type probe = Differential.probe = { coverage : string * string; divergence : divergence option }

val sabotage_of_flags : self_test:bool -> self_test_rewrite:bool -> Differential.sabotage option
(** The CLI's two self-test flags as one sabotage; the unsound rewrite wins
    when both are set. *)

val probe_case :
  ?sabotage:Differential.sabotage ->
  ?pools:Rq_exec.Parallel.t list ->
  config ->
  case ->
  (probe, string) result
(** {!Differential.check} on the case's query, with the rewrite pass also
    run on each of [pools] (default none; the caller owns them).  [Error]
    means the case itself is invalid (the query does not bind, or a
    mutation could not apply) — not a divergence. *)

val gen_case : Rq_math.Rng.t -> config -> case

type operator =
  | Splice  (** a fresh query; data state, faults and pool gene kept *)
  | Fault   (** stack one more statistics fault, or drop one *)
  | Data    (** add or drop a data-state mutation, or change the pool gene *)

val operators : operator list
val operator_name : operator -> string

val mutate_case : Rq_math.Rng.t -> operator -> case -> case
(** {!run} draws the operator from a fixed mix, splice : fault : data =
    3 : 3 : 1. *)

val load_corpus : log:(string -> unit) -> string -> case list
(** The [*.fuzz] entries of a corpus directory, in file-name order (none
    if it does not exist); each file that does not decode is logged and
    skipped. *)

(** {2 The loop} *)

type found = {
  f_divergence : divergence;
  f_case : case;               (** shrunk *)
  f_tables : int;
  f_iteration : int;
  f_repro_path : string;
  f_reproduced : bool;         (** the written repro file replays red *)
}

type result = {
  r_iterations : int;
  r_probes : int;
  r_corpus : int;
  r_pairs : int;               (** distinct (plan x tier) pairs, steered *)
  r_baseline_pairs : int option;
  r_last_new_pair : int;
  r_operators : (operator * int * int) list;
      (** per operator in {!operators} order: probes tried, probes kept *)
  r_found : found option;
  r_self_test : bool;
  r_ok : bool;
  r_seconds : float;
}

val run : ?log:(string -> unit) -> ?config:config -> unit -> result
(** Runs on one 2-domain morsel pool, shut down on return.  [r_ok] means:
    no divergence (plus the [late_after] and [baseline] checks when
    configured) — or, under a [sabotage], that the planted bug was caught
    by its targeted pass (the kernel pass for [Perturbed_scan_arm], the
    rewrite pass for [Unsound_rewrite]), shrunk to at most three tables,
    and its repro file replays red. *)

val replay : config -> string -> (case * probe * string, string) Stdlib.result
(** Re-run a [.fuzz-repro] file on its own 2-domain morsel pool; returns the
    case, the fresh probe and the originally recorded failing pass. *)

val render : result -> string
