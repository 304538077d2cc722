(** Estimation overhead (paper Sec. 6.1).

    The paper reports 30–40% more optimization time with sample-based
    estimation than with histograms.  This module measures wall-clock
    optimization time for both estimators over the three experiment
    templates; [robustopt experiment overhead] prints it as the T-OH
    table. *)

type measurement = {
  query : string;
  histogram_ms : float;   (** mean per-optimization time, milliseconds *)
  robust_ms : float;
  degrading_ms : float;   (** the degradation chain over healthy statistics
                              — should track [robust_ms] (tier 1 is an
                              internal robust estimator) *)
  ratio : float;          (** robust / histogram *)
}

type config = { seed : int; iterations : int; scale_factor : float; sample_size : int }

val default_config : config
val quick_config : config  (** reduced sizes, for [experiment --quick] *)

val run : ?config:config -> unit -> measurement list
