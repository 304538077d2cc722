(** The synthetic star schema of Experiment 3 (Sec. 6.2.3).

    A fact table with foreign keys to three small dimension tables, each
    dimension carrying a filter column with ten equally-frequent values.
    The joint distribution of the three FK targets is handcrafted so that
    the fraction of fact rows whose *three* dimension rows all pass their
    filters is a direct generator parameter ([join_fraction], 0–10%),
    while every single-dimension join fraction stays exactly 10% — so a
    histogram-based optimizer, multiplying marginals under independence,
    always estimates 0.1% no matter the truth. *)

open Rq_storage
open Rq_optimizer

type params = {
  fact_rows : int;        (** default 100_000; the paper used 10M *)
  dim_rows : int;         (** per dimension; default 1000, as in the paper *)
  join_fraction : float;  (** in [0, 0.1]: fraction of fact rows passing all three filters *)
}

val default_params : params

val generate : Rq_math.Rng.t -> ?params:params -> unit -> Catalog.t
(** Tables [fact], [dim1], [dim2], [dim3]; FK edges fact.f_dimN -> dimN;
    nonclustered indexes on each fact FK column (the paper's physical
    design for the semijoin strategy). *)

val cost_scale : Catalog.t -> float
(** The paper's 10M fact rows / generated fact rows. *)

val query : ?filter_value:int -> unit -> Logical.t
(** The Experiment-3 template: four-way join with the filter
    [d_filter = filter_value] (default 0) on each dimension and SUM
    aggregates over the fact measures.  The joint selectivity is
    controlled by the generator's [join_fraction] (engineered for filter
    value 0; other values see the independent ~0.1%). *)

val true_selectivity : Catalog.t -> float
(** Measured fraction of fact rows in the join result. *)
