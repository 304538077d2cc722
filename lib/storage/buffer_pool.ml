(* A small chunk-granular buffer pool with pinning and LRU eviction.

   Residency is tracked per chunk (a fixed whole number of pages, so the
   page-denominated capacity divides exactly).  Pinned chunks are never
   eviction candidates; a chunk becomes evictable when its pin count drops
   to zero, at which point it enters the LRU recency list ({!Lru}, the same
   cache that backs the evidence/bitmap caches and the plan-cache shards).
   Inserting a newly-loaded chunk while the pool is at capacity evicts the
   least-recently-unpinned resident chunk.

   All operations are mutex-protected: morsel workers pin chunks from
   several domains at once.  Hit/miss/eviction counters are
   schedule-dependent under that concurrency (which domain faults a chunk
   in first is a race), so they are *not* part of the deterministic cost
   parity counters — they surface through {!stats} into the observability
   layer's pool record and the bench report instead. *)

type entry = {
  chunk : Chunk.t;
  mutable pins : int;
  mutable seq : bool;
      (* every pin so far came from a sequential scan: on unpin the chunk
         enters the LRU at the cold end (scan-resistant insertion) instead
         of displacing recently-used chunks.  Any non-sequential pin
         promotes the entry for good. *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  capacity_chunks : int;
  resident_chunks : int;
}

type t = {
  mutable capacity_chunks : int;
  resident : (string, entry) Hashtbl.t;
  mutable lru : (string, unit) Lru.t;  (* unpinned resident keys, recency-ordered *)
  mutable hits : int;
  mutable misses : int;
  mutex : Mutex.t;
}

let chunks_of_pages pages = max 1 (pages / Page.pages_per_chunk)

let create ?(capacity_pages = 1024 * Page.pages_per_chunk) () =
  let capacity_chunks = chunks_of_pages capacity_pages in
  let resident = Hashtbl.create 64 in
  let pool =
    { capacity_chunks; resident; lru = Lru.create ~capacity:capacity_chunks ();
      hits = 0; misses = 0; mutex = Mutex.create () }
  in
  Lru.set_on_evict pool.lru (fun key -> Hashtbl.remove resident key);
  pool

let locked pool f =
  Mutex.lock pool.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool.mutex) f

let pin ?(seq = false) pool ~key ~load =
  (* The load runs outside the lock only on a miss; re-check afterwards in
     case another domain faulted the same chunk in concurrently. *)
  let hit e =
    if e.pins = 0 then Lru.remove pool.lru key;
    e.pins <- e.pins + 1;
    if not seq then e.seq <- false;
    pool.hits <- pool.hits + 1;
    e.chunk
  in
  let resident_hit =
    locked pool (fun () ->
        match Hashtbl.find_opt pool.resident key with
        | Some e -> Some (hit e)
        | None -> None)
  in
  match resident_hit with
  | Some chunk -> chunk
  | None ->
      let chunk = load () in
      locked pool (fun () ->
          match Hashtbl.find_opt pool.resident key with
          | Some e ->
              (* Lost the race: another domain loaded it first. *)
              hit e
          | None ->
              pool.misses <- pool.misses + 1;
              Hashtbl.replace pool.resident key { chunk; pins = 1; seq };
              chunk)

let unpin pool ~key =
  locked pool (fun () ->
      match Hashtbl.find_opt pool.resident key with
      | None -> ()
      | Some e ->
          if e.pins <= 0 then
            invalid_arg (Printf.sprintf "Buffer_pool.unpin %s: not pinned" key);
          e.pins <- e.pins - 1;
          (* Entering the LRU at capacity evicts the least-recently-unpinned
             chunk (the on_evict hook drops it from the residency table).
             Chunks only ever pinned by sequential scans enter at the cold
             end instead, so a table sweep larger than the pool recycles one
             slot rather than flushing every hot chunk. *)
          if e.pins = 0 then
            if e.seq then Lru.insert_cold pool.lru key ()
            else Lru.insert pool.lru key ())

let drop pool ~key =
  locked pool (fun () ->
      match Hashtbl.find_opt pool.resident key with
      | Some e when e.pins = 0 ->
          Lru.remove pool.lru key;
          Hashtbl.remove pool.resident key
      | Some _ | None -> ())

let drop_unpinned pool =
  Lru.clear pool.lru  (* clear does not fire on_evict; sweep by pin count *)
  ;
  let stale =
    Hashtbl.fold (fun k e acc -> if e.pins = 0 then k :: acc else acc)
      pool.resident []
  in
  List.iter (Hashtbl.remove pool.resident) stale

let set_capacity_pages pool pages =
  locked pool (fun () ->
      let capacity_chunks = chunks_of_pages pages in
      pool.capacity_chunks <- capacity_chunks;
      drop_unpinned pool;
      pool.lru <- Lru.create ~capacity:capacity_chunks ();
      Lru.set_on_evict pool.lru (fun key -> Hashtbl.remove pool.resident key))

let stats pool =
  locked pool (fun () ->
      { hits = pool.hits; misses = pool.misses;
        evictions = Lru.evictions pool.lru;
        capacity_chunks = pool.capacity_chunks;
        resident_chunks = Hashtbl.length pool.resident })

let reset_stats pool =
  locked pool (fun () ->
      pool.hits <- 0;
      pool.misses <- 0;
      drop_unpinned pool;
      let capacity_chunks = pool.capacity_chunks in
      pool.lru <- Lru.create ~capacity:capacity_chunks ();
      Lru.set_on_evict pool.lru (fun key -> Hashtbl.remove pool.resident key))

(* The process-wide pool every relation reads through.  Default capacity is
   generous (16 Ki chunks) so toy-scale tests never feel eviction; benches
   and the fuzzer squeeze it via {!configure}. *)
let global = create ()

let configure ~capacity_pages = set_capacity_pages global capacity_pages

let global_stats () = stats global

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
