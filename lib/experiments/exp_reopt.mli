(** Guard-rescue experiment: metered cost of a misestimated
    indexed-nested-loop plan run to completion, versus the same plan under
    cardinality guards with mid-query re-optimization, versus the oracle
    plan — plus the pure guard overhead when no guard fires.  Backs the
    EXPERIMENTS.md "guard rescue" entry and `robustopt experiment reopt`. *)

type config = {
  seed : int;
  customers : int;
  orders : int;
  lineitems : int;
  cutoffs : int list;
  threshold : float;
}

val default_config : config
val quick_config : config  (** reduced sizes, for [experiment --quick] *)

type row = {
  cutoff : int;
  actual_rows : int;
  unguarded_s : float;
  guarded_s : float;
  wasted_s : float;
      (** simulated seconds of aborted attempt prefixes that the
          continuation could not reuse, attributed from recorder span
          deltas (guarded_s = useful work + wasted_s + guard overhead) *)
  oracle_s : float;
  fired : bool;
  replanned : bool;
}

type result = {
  rows : row list;
  overhead_plain_s : float;
  overhead_guarded_s : float;
}

val run : ?config:config -> unit -> result
val render : result -> string
