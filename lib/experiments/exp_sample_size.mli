(** Experiment 4: effect of the sample size (paper Sec. 6.2.4, Figure 12).

    The Experiment-1 scenario with the confidence threshold fixed at 50%
    and the synopsis size swept from 50 to 2500 tuples.  Expected shape:
    bigger samples improve both mean and variance with diminishing returns
    past ~500, and the 50-tuple sample exhibits the paper's
    "self-adjusting" anomaly — so spread-out a posterior that the scan is
    always chosen. *)

type config = {
  seed : int;
  repetitions : int;
  sample_sizes : int list;
  offsets : int list;
  scale_factor : float;
}

val default_config : config
val quick_config : config  (** reduced sizes, for [experiment --quick] *)

type point = {
  sample_size : int;
  summary : Rq_math.Summary.t;          (** pooled over offsets x draws *)
  plans : (string * int) list;
}

val run : ?config:config -> unit -> point list
