(** Precomputed uniform random samples of relations (paper Sec. 3.2).

    In contrast to on-the-fly sampling, samples are drawn once during the
    statistics-building phase (the analogue of histogram construction) and
    consulted at optimization time.  The default draws *with replacement*,
    matching the Bernoulli-evidence model of the paper's Bayesian analysis
    (Sec. 3.3). *)

open Rq_storage

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

