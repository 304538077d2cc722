(** Experiment 2: the three-table join lineitem |><| orders |><| part
    (paper Sec. 6.2.2, Figure 10).

    The part-table predicate always selects one [p_bucket] (constant
    marginal selectivity), but higher buckets hold more popular parts, so
    the fraction of lineitem rows surviving the join — which decides
    between the indexed-nested-loop, hash-cascade and merge-first plans —
    sweeps across the low-selectivity crossover the paper focuses on. *)

type config = {
  seed : int;
  repetitions : int;
  sample_size : int;
  thresholds : float list;
  buckets : int list;     (** p_bucket values to sweep *)
  scale_factor : float;
}

val default_config : config
val quick_config : config  (** reduced sizes, for [experiment --quick] *)

val run : ?config:config -> unit -> Exp_common.row list

val tradeoff : Exp_common.row list -> (string * Rq_math.Summary.t) list
