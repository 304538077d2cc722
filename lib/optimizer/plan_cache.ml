type stats = { hits : int; misses : int; invalidations : int; evictions : int }

let stats_to_json s =
  Rq_obs.Json.Obj
    [
      ("hits", Rq_obs.Json.Num (float_of_int s.hits));
      ("misses", Rq_obs.Json.Num (float_of_int s.misses));
      ("invalidations", Rq_obs.Json.Num (float_of_int s.invalidations));
      ("evictions", Rq_obs.Json.Num (float_of_int s.evictions));
    ]

let lookups s = s.hits + s.misses + s.invalidations

let hit_rate s =
  let total = lookups s in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

type entry = {
  decision : Optimizer.decision;
  table_versions : (string * int) list;  (* versions of the query's tables at plan time *)
}

(* The entry store is an {!Rq_storage.Lru}: recency, capacity eviction and
   the eviction counter live there (O(1), no victim scan); this module
   adds the plan-cache semantics on top — stats-versioned invalidation and
   the hit/miss/invalidated outcome counters, which are not the LRU's own
   (a lookup that finds a version-stale entry is an invalidation, not a
   hit or a miss). *)
type t = {
  lru : (string, entry) Rq_storage.Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be positive";
  { lru = Rq_storage.Lru.create ~capacity (); hits = 0; misses = 0; invalidations = 0 }

let capacity t = Rq_storage.Lru.capacity t.lru
let length t = Rq_storage.Lru.length t.lru

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    evictions = Rq_storage.Lru.evictions t.lru;
  }

let clear t = Rq_storage.Lru.clear t.lru

(* The stored key is the caller's fingerprint plus the estimator's name.
   [Fingerprint.of_logical ?estimator] already folds the identity in when
   the caller passes it; appending it here too means a caller that forgot
   cannot be served a plan chosen by a different estimator (confidence
   thresholds still rely on the fingerprint — the estimator object does
   not expose them). *)
let compose_key opt ~fingerprint =
  fingerprint ^ "\x00est:" ^ (Optimizer.estimator opt).Cardinality.name

type outcome = Hit | Miss | Invalidated

let outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Invalidated -> "invalidated"

let record ?obs ~version ~fingerprint outcome_label =
  match obs with
  | None -> ()
  | Some r ->
      Rq_obs.Recorder.record r
        (Rq_obs.Trace.Plan_cache { outcome = outcome_label; fingerprint; version })

let entry_valid store entry =
  List.for_all
    (fun (table, v) -> Rq_stats.Stats_store.table_version store table = v)
    entry.table_versions

let insert ?obs t opt ~key ~version query decision =
  let store = Optimizer.stats opt in
  let table_versions =
    List.map
      (fun table -> (table, Rq_stats.Stats_store.table_version store table))
      (Logical.table_names query)
  in
  (* The LRU evicts only when [key] is absent at capacity; re-inserting a
     live key refreshes it in place, so no innocent victim is dropped.
     The eviction hook is armed just for this insert so the trace event
     carries this lookup's store version. *)
  Rq_storage.Lru.set_on_evict t.lru (fun victim ->
      record ?obs ~version ~fingerprint:victim "evicted");
  Fun.protect
    ~finally:(fun () -> Rq_storage.Lru.set_on_evict t.lru (fun _ -> ()))
    (fun () -> Rq_storage.Lru.insert t.lru key { decision; table_versions })

let find_or_optimize ?obs ?budget t opt ~fingerprint query =
  let key = compose_key opt ~fingerprint in
  let store = Optimizer.stats opt in
  let version = Rq_stats.Stats_store.version store in
  let optimize_and_insert outcome =
    match Optimizer.optimize ?budget ?obs opt query with
    | Error _ as e -> e
    | Ok decision ->
        insert ?obs t opt ~key ~version query decision;
        Ok (decision, outcome)
  in
  match Rq_storage.Lru.find t.lru key with
  | Some entry when entry_valid store entry ->
      t.hits <- t.hits + 1;
      record ?obs ~version ~fingerprint:key "hit";
      Ok (entry.decision, Hit)
  | Some _ ->
      (* The statistics moved under the entry: serving it could replay a
         plan chosen against a world that no longer exists.  Drop it and
         re-optimize — the cache can delay work, never correctness. *)
      Rq_storage.Lru.remove t.lru key;
      t.invalidations <- t.invalidations + 1;
      record ?obs ~version ~fingerprint:key "invalidated";
      optimize_and_insert Invalidated
  | None ->
      t.misses <- t.misses + 1;
      record ?obs ~version ~fingerprint:key "miss";
      optimize_and_insert Miss

let mem t opt ~fingerprint = Rq_storage.Lru.mem t.lru (compose_key opt ~fingerprint)
