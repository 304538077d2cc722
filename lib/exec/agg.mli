(** Grouped-aggregation core of the streaming engine's aggregate operator.

    Holds the hash of per-group accumulator states; the caller feeds input
    batches and finalizes to output columns.  The finalize fold order — hence
    the output row order — depends only on the sequence of logical rows
    fed, never on how they were batched. *)

open Rq_storage

type t

val create : Schema.t -> group_by:string list -> aggs:Plan.agg list -> t
(** Compiles the aggregate expressions against the input schema.  Raises
    [Invalid_argument] on unknown columns. *)

val feed : t -> Value.t array array -> Bitset.t -> unit
(** Visits the selected rows of a batch's column arrays in ascending
    order. *)

val finalize : t -> Value.t array array * int
(** The output columns (group key columns then aggregate columns) and
    their row count, rows in the reverse of the group hash's fold order; a
    single row for grand-total aggregation even on empty input.  Call
    once. *)
