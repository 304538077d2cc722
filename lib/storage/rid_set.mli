(** Sets of row identifiers, as sorted deduplicated int arrays.

    Index probes return RID sets; the index-intersection access method
    intersects one set per predicate before fetching rows (paper Sec. 2.1). *)

type t

val of_unsorted : int array -> t
(** Sorts and deduplicates; takes ownership of the array. *)

val empty : t
val cardinality : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

val inter : t -> t -> t
(** Linear-merge intersection. *)

val union : t -> t -> t
val to_array : t -> int array
val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
