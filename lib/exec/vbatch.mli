(** Column-major vector batches with selection bitsets — the data unit of
    the streaming engine ({!Executor}).

    A batch's logical content is its selected rows in ascending physical
    order.  Column arrays are shared and never mutated: scan batches alias
    the pinned chunk's columns zero-copy, projection drops column
    references without copying, and filters refine only [sel].  Producers
    never emit an empty selection.

    A column nothing downstream reads may be {e pruned}: the empty array
    (see {!pruned}).  Scans and RID fetches prune so that a spilled chunk
    never decodes it; gathers skip it and the final drain writes [Null]
    in its place.  Every operator builds batches from columns, and a
    fired guard hands on columns; rows become tuples only in
    {!Executor.run}'s final drain, and this module offers no conversion. *)

open Rq_storage

type t = {
  cols : Value.t array array;
      (** [cols.(c).(r)]; each length >= [n_rows], or 0 when pruned *)
  n_rows : int;                (** physical rows covered by [sel] *)
  sel : Bitset.t;              (** length [n_rows]; the live rows *)
}

val selected : t -> int
(** [Bitset.popcount sel] — the batch's logical row count, the amount every
    per-tuple cost charge is denominated in. *)

val pruned : Value.t array -> bool
(** A pruned column: length 0 (a live column is never empty). *)

val of_chunk : Chunk.t -> keep:bool array -> sel:Bitset.t -> t
(** Zero-copy over the chunk's columns [c] with [keep.(c)], the others
    pruned and never forced; [keep] has one entry per column and [sel]
    length [Chunk.n_rows]. *)

val selected_rows : t -> int array
(** Physical indices of the selected rows, ascending. *)

val gather : Value.t array -> int array -> int -> Value.t array
(** [gather col idx k] is the fresh column [col.(idx.(j))] for
    [0 <= j < k], with [k >= 1]; a pruned [col] stays pruned. *)

val project : t -> int array -> t
(** Keep only the given column positions (shared arrays, no copy). *)

val take : t -> int -> t
(** Keep the first [k] selected rows ({!Bitset.take} on [sel]). *)
