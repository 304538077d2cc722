(** A small bounded LRU cache: a hashtable over an intrusive
    doubly-linked recency list (find/insert/evict all O(1), no victim
    scan), least-recently-used eviction at capacity, hit/miss/eviction
    counters, and an eviction callback.  Keys are compared and hashed
    structurally (the polymorphic [Hashtbl]), so any immutable value
    without closures can key it.  Backs the evidence kernel's atom
    bitmaps ({!Rq_stats.Pred_index}, keyed by the atom itself), the
    {!Buffer_pool} and the {!Rq_optimizer.Plan_cache}. *)

type ('k, 'a) t

val create : ?on_evict:('k -> unit) -> capacity:int -> unit -> ('k, 'a) t
(** Raises [Invalid_argument] on a negative capacity.  Capacity 0 is a
    legal degenerate cache that stores nothing: every {!find} misses and
    every {!insert} drops the value immediately, counting an eviction and
    firing [on_evict].  [on_evict] receives the evicted key (default:
    ignore). *)

val find : ('k, 'a) t -> 'k -> 'a option
(** Counts a hit (and refreshes recency) or a miss. *)

val find_or_add : ('k, 'a) t -> 'k -> (unit -> 'a) -> 'a
(** [find], or build, insert and return (evicting the LRU entry first when
    at capacity). *)

val insert : ('k, 'a) t -> 'k -> 'a -> unit
(** Inserting a key already present refreshes its value and recency and
    never evicts — only an insert of a {e new} key at capacity drops the
    least-recently-used entry. *)

val insert_cold : ('k, 'a) t -> 'k -> 'a -> unit
(** Scan-resistant insert: the entry enters at the {e least}-recently-used
    end, making it the next eviction victim instead of displacing the hot
    head — a sequential sweep larger than the cache churns through one slot
    and costs at most one previously-resident entry.  A later {!find}
    promotes it normally.  Inserting a key already present refreshes its
    value in place without changing its recency.  At capacity 0 behaves
    like {!insert} (immediate drop). *)

val remove : ('k, 'a) t -> 'k -> unit
(** Drop the entry if present.  A deliberate removal (e.g. a
    version-invalidated plan), not a capacity eviction: the eviction
    counter is untouched and [on_evict] does not fire. *)

val mem : ('k, 'a) t -> 'k -> bool
val clear : ('k, 'a) t -> unit
val set_on_evict : ('k, 'a) t -> ('k -> unit) -> unit

val capacity : ('k, 'a) t -> int
val length : ('k, 'a) t -> int
val hits : ('k, 'a) t -> int
val misses : ('k, 'a) t -> int
val evictions : ('k, 'a) t -> int
