(** Distinct-value estimation from a random sample (paper Sec. 3.5's
    GROUP-BY extension), after Haas, Naughton, Seshadri & Stokes [13]. *)

open Rq_storage

val frequency_profile : Value.t array -> (int * int) list
(** [(j, f_j)] pairs: [f_j] = number of distinct values occurring exactly
    [j] times in the sample, ascending in [j].  Nulls count as a value. *)

val gee : sample:Value.t array -> population_size:int -> float
(** The Guaranteed-Error Estimator:
    D̂ = sqrt(N/n)·f₁ + Σ_{j≥2} f_j,
    within a factor sqrt(N/n) of the truth in expectation.  Result is
    clamped to [d, N] where [d] is the distinct count observed. *)

val scale_up : sample:Value.t array -> population_size:int -> float
(** Naive scale-up baseline d·N/n (clamped to [d, N]); included so the
    ablation bench can show why GEE is preferred. *)

val estimate_groups :
  sample:Rq_storage.Relation.t -> columns:string list -> population_size:int -> float
(** GEE over the combined key of several grouping columns of a sample
    relation: the estimated number of GROUP BY groups. *)

val estimate_groups_seq :
  schema:Schema.t -> columns:string list -> population_size:int ->
  Relation.tuple Seq.t -> float
(** Streaming {!estimate_groups}: same estimate over a tuple sequence
    (e.g. just the sample rows matching a predicate) without
    materializing it. *)
