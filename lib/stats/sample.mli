(** Precomputed uniform random samples of relations (paper Sec. 3.2).

    In contrast to on-the-fly sampling, samples are drawn once during the
    statistics-building phase (the analogue of histogram construction) and
    consulted at optimization time.  The default draws *with replacement*,
    matching the Bernoulli-evidence model of the paper's Bayesian analysis
    (Sec. 3.3). *)

open Rq_storage
open Rq_exec

type t

val of_relation :
  Rq_math.Rng.t -> ?with_replacement:bool -> size:int -> Relation.t -> t
(** [size] tuples drawn uniformly.  Without replacement, [size] is clamped
    to the population size.  Raises [Invalid_argument] on a non-positive
    size.  An empty relation yields an empty sample — evidence [(0, 0)] —
    so a table that became empty between maintenance refreshes degrades
    estimation (to the magic-constants tier) instead of aborting the
    statistics rebuild. *)

val of_rows :
  rows:Relation.tuple array -> schema:Schema.t -> population_size:int -> name:string -> t
(** Wraps already-drawn rows (used by the join-synopsis builder, whose rows
    are sample-of-root joined with full referenced tables). *)

val reservoir :
  Rq_math.Rng.t -> size:int -> schema:Schema.t -> name:string ->
  Relation.tuple Seq.t -> t
(** Single-pass reservoir sampling (Vitter's Algorithm R) over a tuple
    stream of unknown length — how the precomputation phase would sample a
    table too large to materialize.  The result is a uniform
    without-replacement sample of everything the stream produced (all of
    it, if fewer than [size] tuples arrive). *)

val rows : t -> Relation.t
(** The sample itself, as a small relation. *)

val size : t -> int
val population_size : t -> int

val checker : t -> Pred.t -> Relation.tuple -> bool
(** The compiled checker for [pred] against this sample's schema, served
    from a per-sample bounded cache keyed by the predicate itself, so
    repeated probes do not recompile. *)

val count_matching : t -> Pred.t -> int
(** [count_matching s pred] = k, the number of sample tuples satisfying
    [pred] — the evidence fed to the Bayesian posterior.  Uses the cached
    compiled checker. *)

val evidence : t -> Pred.t -> int * int
(** [(k, n)]: matching count and sample size. *)

val naive_selectivity : t -> Pred.t -> float
(** Maximum-likelihood estimate k/n (what [1]'s join synopses would
    report); the robust estimator replaces this with a posterior quantile.
    0 on an empty sample. *)
