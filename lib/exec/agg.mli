(** Grouped-aggregation core of the streaming engine's aggregate operator,
    split so that the per-row work can run on worker domains.

    A {!part} takes batches on any domain: it maps each selected row to a
    part-local group id and evaluates the aggregate arguments.  The
    consumer {!fold}s parts into the global group table in row order: a
    part's new groups enter in their first-appearance order, then every row
    updates its group's accumulators, so float [SUM]/[AVG] bits and the
    output row order are those of a row-by-row fold.  The finalize fold
    order depends only on the sequence of logical rows fed, never on how
    they were batched or split into parts. *)

open Rq_storage

type spec
(** The compiled aggregate: immutable, shared by every part. *)

val spec : Schema.t -> group_by:string list -> aggs:Plan.agg list -> spec
(** Compiles the aggregate expressions against the input schema.  Raises
    [Invalid_argument] on unknown columns. *)

type part
(** A run of rows, grouped locally and evaluated, not yet folded. *)

val part : spec -> part

val add : part -> Value.t array array -> Bitset.t -> unit
(** Appends the selected rows of a batch's column arrays, ascending. *)

type t
(** The global group table. *)

val create : spec -> t

val fold : t -> part -> unit
(** Folds a part's rows, in order, after every part folded before it. *)

val finalize : t -> Value.t array array * int
(** The output columns (group key columns then aggregate columns) and
    their row count, rows in the reverse of the group hash's fold order; a
    single row for grand-total aggregation even on empty input.  Call
    once. *)
