(** Experiment 3: the four-table star join (paper Sec. 6.2.3, Figure 11).

    Each parameter value regenerates the fact table with a different joint
    join fraction (0–10%) while every dimension's marginal join fraction
    stays 10% — so the histogram baseline, multiplying marginals under
    independence, always estimates 0.1%.  Candidate plans are the
    hash-join cascade, the full semijoin-intersection strategy, and the
    hybrid plans mixing the two. *)

type config = {
  seed : int;
  repetitions : int;
  sample_size : int;
  thresholds : float list;
  join_fractions : float list;  (** each in [0, 0.1] *)
  fact_rows : int;
  dim_rows : int;
}

val default_config : config
val quick_config : config  (** reduced sizes, for [experiment --quick] *)

val run : ?config:config -> unit -> Exp_common.row list

val tradeoff : Exp_common.row list -> (string * Rq_math.Summary.t) list
