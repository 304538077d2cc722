(** Observed-cardinality feedback from guard violations.

    When a {!Rq_exec.Plan.Guard} fires, the actual row count of its subplan
    is recorded here, keyed by the set of base tables the subplan covers.
    Re-optimization then runs with {!with_feedback}, which answers
    expression-cardinality queries from observations when it can — exactly,
    for the recorded table sets; scaled by the observed/estimated correction
    ratio of the largest recorded subset otherwise. *)

type t

val create : unit -> t

val record : t -> tables:string list -> float -> unit
(** Record the observed row count of an expression over the given tables
    (order-insensitive; later observations on the same set overwrite). *)

val observed : t -> tables:string list -> float option

val with_feedback : t -> Cardinality.t -> Cardinality.t
(** Wrap an estimator so expression cardinalities are corrected by the
    recorded observations.  [table_selectivity] and [group_count] pass
    through to the base estimator. *)
