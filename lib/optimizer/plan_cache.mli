(** An LRU plan cache with statistics-versioned invalidation.

    The paper's design makes {!Optimizer.optimize} the single entry point
    and the optimizer the hot path once the engine serves many queries;
    recurring queries re-derive the same plan from the same statistics.
    This cache memoizes whole optimizer decisions, keyed by:

    - a canonical query fingerprint (produced by [Rq_sql.Fingerprint],
      passed in as a string so this module stays below the SQL layer), and
    - the active estimator's identity (appended here from the optimizer;
      the confidence threshold travels inside the fingerprint).

    {b Invalidation rule.}  At insert time an entry records the
    {!Rq_stats.Stats_store.table_version} of every table in the query; a
    lookup is a hit only if all of them still match the live store.  Every
    maintenance refresh rebuilds statistics (fresh store, all versions
    advanced) and every fault injection derives a bumped store, so a stale
    plan can never be served — the cache can delay re-optimization work,
    never correctness.  Granularity: per-table for targeted copy-on-write
    swaps (an injection against one root leaves other tables' entries
    servable), but a full refresh redraws every sample and therefore
    invalidates everything (see {!Rq_stats.Stats_store.table_version}).

    Lookups, insertions and evictions emit [Plan_cache] trace events when
    given a recorder, so [--trace]/[--metrics-json] expose cache behavior
    alongside spans and the other event streams. *)

type t

val create : ?capacity:int -> unit -> t
(** LRU capacity defaults to 256 entries; raises [Invalid_argument] when
    not positive. *)

val capacity : t -> int

val length : t -> int
(** Live entries; always [<= capacity t]. *)

val clear : t -> unit
(** Drop every entry (counters are kept). *)

type outcome =
  | Hit           (** served from cache, no optimization ran *)
  | Miss          (** first sighting; optimized and inserted *)
  | Invalidated   (** entry existed but its statistics versions moved;
                      re-optimized and re-inserted *)

val outcome_to_string : outcome -> string

val find_or_optimize :
  ?obs:Rq_obs.Recorder.t ->
  ?budget:int ->
  t ->
  Optimizer.t ->
  fingerprint:string ->
  Logical.t ->
  (Optimizer.decision * outcome, string) result
(** The cache-through entry point: serve a valid entry, otherwise run
    {!Optimizer.optimize} and cache the decision.  [Error]s (validation
    failures) are never cached.  [budget] applies to the underlying
    optimization only.  [obs] receives the lookup's [Plan_cache] events
    and, when the lookup optimizes, that optimization's
    [Rewrite_applied] events. *)

val mem : t -> Optimizer.t -> fingerprint:string -> bool
(** Whether an entry exists for this key — valid or not (no version check,
    no LRU touch); for tests pinning eviction order. *)

(** {2 Counters} *)

type stats = { hits : int; misses : int; invalidations : int; evictions : int }

val stats : t -> stats

val lookups : stats -> int
(** [hits + misses + invalidations]. *)

val hit_rate : stats -> float
(** [hits / lookups], 0 when no lookups. *)

val stats_to_json : stats -> Rq_obs.Json.t
