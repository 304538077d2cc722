(** The database catalog: tables, secondary indexes, and foreign-key edges.

    The paper's estimator covers select-project-join expressions whose joins
    are all foreign-key joins over an acyclic join graph (Sec. 3.2); the
    catalog records that graph so both the optimizer and the join-synopsis
    builder can traverse it. *)

type foreign_key = {
  from_table : string;
  from_column : string;
  to_table : string;  (** referenced table; [to_column] is its primary key *)
  to_column : string;
}

type t

val create : unit -> t

val add_table : t -> ?primary_key:string -> ?clustered_by:string -> Relation.t -> unit
(** Registers a relation; raises [Invalid_argument] on duplicate names or if
    the primary-key or clustering column is missing from the schema.
    [clustered_by] declares that the heap is physically sorted on that column
    (defaults to the primary key when one is given): merge joins on a
    clustering key then need no sort, matching the paper's physical designs
    where every table is clustered on its primary key. *)

val find_table : t -> string -> Relation.t
(** Raises [Not_found]. *)

val replace_table : t -> Relation.t -> unit
(** Swap in a new version of an existing table (same name and schema);
    every registered index on it is patched to the new rows
    ({!Index.refresh}: an index whose column did not change is kept as
    is, the others merge in the changed keys) and the old version's
    chunks leave the global buffer pool ({!Relation.evict}).  This is the
    mutation primitive behind batched inserts/deletes — and the reason
    statistics go stale (see {!Rq_stats.Maintenance}). *)

val find_table_opt : t -> string -> Relation.t option
val table_names : t -> string list
val primary_key : t -> string -> string option

val clustered_by : t -> string -> string option
(** The column the table's heap is sorted on, if any. *)

val build_index : t -> table:string -> column:string -> unit
(** Builds and registers a nonclustered index (idempotent). *)

val find_index : t -> table:string -> column:string -> Index.t option
val indexes_on : t -> string -> Index.t list

val add_foreign_key : t -> foreign_key -> unit
(** Validates both endpoints exist; the referenced column must be the
    declared primary key of [to_table].  Rejects edges that would create a
    cycle in the FK graph. *)

val foreign_keys_from : t -> string -> foreign_key list
(** Outgoing FK edges of a table. *)

val foreign_keys_into : t -> string -> foreign_key list
val all_foreign_keys : t -> foreign_key list

val fk_edge : t -> from_table:string -> to_table:string -> foreign_key option
(** The (unique, if any) FK edge between two tables. *)

val reachable_via_fk : t -> string -> string list
(** Tables reachable from a root by following outgoing FK edges, root first,
    in deterministic (preorder) order. *)
