(** Section-3.5 ablation: estimation quality under degraded statistics.

    The paper sketches a graceful-degradation ladder for expressions whose
    covering join synopsis is missing: fall back to single-table samples
    combined under AVI + containment, and when even those are absent, to a
    "magic distribution" interpreted at the active confidence threshold.
    This experiment builds the same three-way-join workload under all
    three statistics tiers and reports each tier's cardinality estimates
    against the truth — showing the error staying confined to what the
    tier cannot see. *)

type tier = Full_synopses | Single_table_samples | No_statistics

type row = {
  bucket : int;             (** the Experiment-2 free parameter *)
  true_rows : int;
  estimates : (string * float) list;  (** per tier label, at T = 50% *)
}

type config = {
  seed : int;
  sample_size : int;
  scale_factor : float;
  buckets : int list;
}

val default_config : config
val quick_config : config  (** reduced sizes, for [experiment --quick] *)

val run : ?config:config -> unit -> row list
