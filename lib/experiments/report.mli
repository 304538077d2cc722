(** Plain-text rendering of experiment results, used by {!Artifacts}. *)

val rows_table : Exp_common.row list -> string
(** TSV: parameter, true selectivity %%, and mean/std per series. *)

val plan_mix : Exp_common.row list -> string
(** Commented lines listing which plans each series chose, per parameter. *)

val tradeoff_table : (string * Rq_math.Summary.t) list -> string
(** TSV: series, average time, standard deviation (the (b)-figures). *)

val sample_size_table : Exp_sample_size.point list -> string

val overhead_table : Overhead.measurement list -> string

val partial_stats_table : Exp_partial_stats.row list -> string
