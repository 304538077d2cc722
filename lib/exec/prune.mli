(** Zone-map chunk pruning: decide from a chunk's per-column
    min/max/null-count summary whether a predicate can possibly match any
    of its rows.  Mirrors [Pred.compile]'s collapsed three-valued logic
    (Null comparisons are false, [Contains] matches only Strings) and uses
    [Value.compare]'s total order, so a skip decision can never disagree
    with row-at-a-time evaluation — the qcheck law
    [not chunk_may_match ⇒ no matching row in chunk]. *)

open Rq_storage

val chunk_may_match : Schema.t -> Zone_map.t -> Pred.t -> bool
(** Conservative: [false] only when provably no row in the summarized
    chunk satisfies the predicate.  Raises [Not_found] if the predicate
    references a column absent from the schema (as [Pred.compile] would). *)
