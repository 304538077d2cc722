(** Relations as sequences of immutable columnar chunks.

    Rows live in fixed-size column-major chunks ({!Chunk}) of
    [Page.rows_per_chunk] rows — a whole number of 8 KiB pages each — every
    chunk summarized by an always-resident zone map ({!Zone_map}).  Chunk
    payloads are reached only through the process-wide buffer pool
    ({!Buffer_pool.global}), so a capped pool bounds resident data; with a
    spilling {!Builder} the rows themselves live in a temp file and a
    TPC-H SF 1 table can exist without its tuples on the OCaml heap.

    Page geometry is unchanged from the row-array era: a sequential scan
    costs [page_count] sequential reads, one RID fetch costs one random
    read (paper Sec. 2.1's seq-scan vs. index-intersection asymmetry). *)

type tuple = Value.t array

type t

val create : name:string -> schema:Schema.t -> tuple array -> t
(** Validates tuple arity (not per-value types, which generators guarantee).
    Chunks are sealed in heap storage; the input array is not retained. *)

(** Row-at-a-time construction with only the current chunk buffered.
    [~spill:true] marshals each column of each sealed chunk separately to
    a temp file (removed at exit), so building and holding a relation needs
    O(chunk) heap, and a chunk faulted back in decodes a column only when
    something first reads it ({!Chunk.of_decoder}).  A spilled relation
    reads its file through one channel, opened on the first fault and
    closed by {!evict} or when the relation is collected. *)
module Builder : sig
  type rel = t
  type t

  val create : ?spill:bool -> name:string -> schema:Schema.t -> unit -> t
  val add_row : t -> tuple -> unit
  (** Raises [Invalid_argument] on an arity mismatch (same message as
      {!val:create}) or after {!finish}. *)

  val row_count : t -> int
  val finish : t -> rel
end

val name : t -> string
val schema : t -> Schema.t
val row_count : t -> int
val page_count : t -> int

val rows_per_page : t -> int
(** [Page.rows_per_page (schema t)] — at least 1 even for very wide rows. *)

val rows_per_chunk : t -> int
(** [Page.rows_per_chunk (schema t)]: nominal rows per chunk; every chunk
    but the last is full. *)

val chunk_count : t -> int
val chunk_start : t -> int -> int
(** First RID of a chunk ([ci * rows_per_chunk]). *)

val chunk_row_count : t -> int -> int
val zone_map : t -> int -> Zone_map.t
(** Zone maps are resident metadata: consulting them never touches the
    buffer pool. *)

val with_chunk : ?seq:bool -> t -> int -> (Chunk.t -> 'a) -> 'a
(** [with_chunk t ci f] pins chunk [ci] in the global buffer pool (faulting
    it in on a miss), runs [f], and unpins — the only road to chunk data.
    [~seq:true] marks the pin as part of a sequential scan, which makes the
    chunk a scan-resistant (cold-end) LRU entry on unpin; see
    {!Buffer_pool.pin}. *)

val evict : t -> unit
(** Drop the relation's unpinned chunks from the global buffer pool and
    close its spill file's reader.  Later reads still work: they fault the
    chunks in again, reopening the reader. *)

val get : t -> int -> tuple
(** Tuple by RID (0-based); raises [Invalid_argument] out of range.  One
    pin per call: loops over many RIDs use {!gather}. *)

val gather : t -> int array -> lo:int -> hi:int -> (int -> Chunk.t -> int -> unit) -> unit
(** [gather t rids ~lo ~hi f] calls [f i chunk r] for each [lo <= i < hi],
    in order, where [chunk] is the pinned chunk holding RID [rids.(i)] and
    [r] that row's index within it: [Chunk.get chunk r = get t rids.(i)].
    It pins once per run of consecutive RIDs that fall in one chunk rather
    than once per row, and [f] reads only the columns it wants (a spilled
    chunk decodes just those).  [chunk] must not outlive the call.  Raises
    [Invalid_argument] on a window outside [rids] or, when reached, a RID
    out of range (rows before it have been delivered); the pin is
    released if [f] raises. *)

val column_value : t -> int -> string -> Value.t
(** [column_value t rid col] — a single-cell columnar read. *)

val iter : (int -> tuple -> unit) -> t -> unit
val fold : ('a -> int -> tuple -> 'a) -> 'a -> t -> 'a

val to_seq : t -> tuple Seq.t
(** One chunk pinned and materialized at a time: draining a spilled
    relation holds at most a chunk of tuples live. *)

val filter_count : t -> (tuple -> bool) -> int
(** Number of tuples satisfying a predicate (used on samples, where the
    relation is small). *)
