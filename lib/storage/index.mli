(** Nonclustered secondary indexes.

    An index over column [c] of relation [r] is a (key, RID) array sorted by
    key.  Probes return RID sets without touching the heap; fetching the rows
    afterwards costs one random page read per row, which is what makes
    index-intersection plans risky at high selectivity. *)

type t

val build : Relation.t -> string -> t
(** [build rel column].  Null keys are indexed and ordered first; equal
    keys are ordered by RID. *)

val refresh : t -> old:Relation.t -> Relation.t -> t
(** [refresh idx ~old rel]: [idx] indexes [old]; the result indexes [rel]
    (same name and schema) and equals [build rel (column idx)] entry for
    entry.  Only the indexed column of both relations is read, chunk by
    chunk, and compared RID by RID; the entries of unchanged RIDs are kept
    in place and the changed and appended RIDs are sorted and merged in,
    so the work beyond that one column scan is proportional to what
    changed.  Returns [idx] itself (physically) when the column is
    unchanged. *)

val column : t -> string
val entry_count : t -> int

val leaf_page_count : t -> int
(** Pages occupied by (key, RID) entries; an index range scan reads the
    touched fraction of these sequentially. *)

val probe_eq : t -> Value.t -> Rid_set.t
(** RIDs whose key equals the probe value. *)

val probe_range : t -> lo:Value.t option -> hi:Value.t option -> Rid_set.t
(** RIDs with [lo <= key <= hi]; [None] leaves the bound open.  Null keys
    never match a range. *)

val probe_range_count : t -> lo:Value.t option -> hi:Value.t option -> int
(** Cardinality of [probe_range] without materializing it. *)

val ordered_rids : t -> descending:bool -> int array
(** Every RID in key order, ties in RID order — byte-identical to the
    order a stable sort of the heap on this column produces (ascending:
    Nulls first; descending: Nulls last, equal-key runs keep RID order).
    The ordered-scan access path walks this instead of sorting. *)

val min_key : t -> Value.t option
val max_key : t -> Value.t option
