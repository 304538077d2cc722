(** A chunk-granular buffer pool with pinning and LRU eviction (reusing
    {!Lru}).  Every chunk access in {!Relation} routes through the
    process-wide {!global} pool: a pin either hits the residency table or
    faults the chunk in via the caller's [load]; an unpin returns the chunk
    to the LRU recency list, where an insert at capacity evicts the
    least-recently-unpinned chunk.  Pinned chunks are never evicted.

    All operations are mutex-protected (the morsel prefetch pins from
    several domains).  Hit/miss/eviction counters are therefore
    schedule-dependent and deliberately kept out of the deterministic
    cost-parity counters; they surface via {!stats} into the end-to-end
    benchmark's [buffer_pool.*] metrics. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  capacity_chunks : int;
  resident_chunks : int;
}

val create : ?capacity_pages:int -> unit -> t
(** Capacity is given in pages and rounded down to whole chunks, minimum 1
    chunk ([max 1 (capacity_pages / Page.pages_per_chunk)]). *)

val pin : ?seq:bool -> t -> key:string -> load:(unit -> Chunk.t) -> Chunk.t
(** Return the chunk for [key], loading it on a miss ([load] runs outside
    the pool lock).  The chunk stays resident until the matching {!unpin}.

    [~seq:true] marks the pin as part of a sequential scan: a chunk whose
    pins were {e all} sequential enters the LRU at the cold end on unpin
    (scan-resistant insertion), so a sweep larger than the pool recycles a
    single slot instead of evicting every recently-used chunk.  Any
    non-sequential pin — a point lookup, an index fetch — permanently
    promotes the chunk to normal (hot-end) treatment. *)

val unpin : t -> key:string -> unit
(** Release one pin; at zero pins the chunk becomes an eviction candidate.
    Raises [Invalid_argument] when the key is resident but not pinned. *)

val drop : t -> key:string -> unit
(** Drop the chunk from the pool if it is resident and unpinned — a
    deliberate removal, not an eviction (the eviction counter is
    untouched).  A pinned chunk stays until it is unpinned and ages out. *)

val set_capacity_pages : t -> int -> unit
(** Resize the pool, dropping all unpinned chunks and resetting the LRU
    (eviction counter restarts; hit/miss counters are kept). *)

val stats : t -> stats
val reset_stats : t -> unit
(** Zero hit/miss/eviction counters and drop unpinned chunks, so a bench
    arm measures only its own traffic. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)], 0 when the pool saw no traffic. *)

val global : t
(** The process-wide pool every {!Relation} reads through. *)

val configure : capacity_pages:int -> unit
(** [set_capacity_pages global] — the CLI's [--buffer-pool-pages]. *)

val global_stats : unit -> stats
