(** Immutable columnar chunks: a fixed-size run of rows stored column-major
    (one [Value.t array] per column), the unit of buffer-pool residency and
    zone-map granularity.  A chunk spans a whole number of pages
    ({!Page.pages_per_chunk}), so chunk boundaries are page-aligned.

    Columns may be decoded on first touch ({!of_decoder}): every accessor
    below forces the columns it reads, each column decodes at most once per
    chunk, and forcing is safe from several domains at once.  Heap chunks
    are built with every column present. *)

type t

val of_tuples : Value.t array array -> t
(** Seal a non-empty row-major slice into a chunk (copies into columns). *)

val of_rows : arity:int -> (int -> int -> Value.t) -> int -> t
(** [of_rows ~arity value n]: chunk of [n] rows where cell [(r,c)] is
    [value r c] — builds column-major directly, without a row-major copy. *)

val of_decoder : n_rows:int -> n_columns:int -> (int -> Value.t array) -> t
(** A chunk whose column [c] is [decode c], computed the first time any
    accessor touches column [c] and kept for the chunk's lifetime.  Two
    domains touching the same column see the same array; [decode] never
    runs twice for one column (an exception leaves the column undecoded). *)

val n_rows : t -> int
val n_columns : t -> int

val value : t -> col:int -> row:int -> Value.t

val column : t -> int -> Value.t array
(** The backing column array, decoded if not yet — do not mutate.  The
    array stays valid after the chunk is unpinned or evicted (eviction only
    drops the pool's reference; the GC keeps shared columns alive). *)

val columns : t -> Value.t array array
(** Every backing column array ({!column} of each; forces them all), in a
    fresh outer array — do not mutate the columns. *)

val of_columns : n_rows:int -> Value.t array array -> t
(** Zero-copy view over caller-owned column arrays, so columnar batches can
    run the per-chunk predicate kernels.  Each column has length at least
    [n_rows] or is empty — a column the executor pruned, which no kernel
    over the view may read.  Raises if a non-empty column is shorter than
    [n_rows]. *)

val get : t -> int -> Value.t array
(** Materialize one row as a fresh tuple. *)

val iter : (int -> Value.t array -> unit) -> t -> unit
(** Rows in order, each materialized as a fresh tuple; the row index is
    chunk-relative. *)
