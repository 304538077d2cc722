(** Experiment 1: the single-table two-predicate lineitem query
    (paper Sec. 6.2.1, Figure 9).

    The template's "?" offset shifts the receipt-date window relative to
    the ship-date window, sweeping the joint selectivity over ~0–0.6% while
    both marginals stay constant.  The available plans are a sequential
    scan, single-index range scans, and the risky two-index intersection —
    the empirical twin of the Section-5 analytical model. *)

type config = {
  seed : int;
  repetitions : int;       (** independent sample draws; paper used 20 *)
  sample_size : int;       (** synopsis tuples; paper default 500 *)
  thresholds : float list;
  offsets : int list;      (** template free-parameter sweep *)
  scale_factor : float;    (** TPC-H-lite scale; 0.01 = 60k lineitem rows *)
}

val default_config : config
val quick_config : config  (** reduced sizes, for [experiment --quick] *)

val run : ?config:config -> unit -> Exp_common.row list
(** One row per offset: measured selectivity and, per estimator, the times
    and plans across draws (Figure 9(a) series plus the histogram
    baseline). *)

val tradeoff : Exp_common.row list -> (string * Rq_math.Summary.t) list
(** Figure 9(b): mean/stddev per estimator pooled over the sweep. *)
