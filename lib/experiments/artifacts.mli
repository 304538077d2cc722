(** The paper's artifacts behind one front end: Figures 1–12, the
    Sec. 6.1 overhead table, the ablations of DESIGN.md's design choices
    and the guard-rescue table, in the order [robustopt experiment] runs
    them when given no name. *)

type entry = {
  name : string;                 (** e.g. ["fig9"], ["ablation-prior"] *)
  run : quick:bool -> string;
      (** The rendered section: a ["=== title — description ==="] header
          line, then the TSV series.  [~quick] selects each experiment's
          [quick_config]. *)
}

val all : entry list
val names : string list
val find : string -> entry option
