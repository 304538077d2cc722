(* A small LRU over any structurally hashable key: a hashtable over an
   intrusive doubly-linked recency list, so find/insert/evict are all
   O(1) — no victim scan.  The kernel's atom bitmaps, the compiled
   checkers, the buffer pool and the plan cache are bounded with this so
   long throughput runs cannot grow memory without bound; [on_evict] lets
   the owner react to each eviction. *)

type ('k, 'a) node = {
  key : 'k;
  mutable value : 'a;
  mutable prev : ('k, 'a) node option;  (* toward most-recent *)
  mutable next : ('k, 'a) node option;  (* toward least-recent *)
}

type ('k, 'a) t = {
  capacity : int;
  entries : ('k, ('k, 'a) node) Hashtbl.t;
  mutable head : ('k, 'a) node option;  (* most recently used *)
  mutable tail : ('k, 'a) node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable on_evict : 'k -> unit;
}

let create ?(on_evict = fun _ -> ()) ~capacity () =
  if capacity < 0 then invalid_arg "Lru.create: capacity must be non-negative";
  {
    capacity;
    entries = Hashtbl.create (min (max capacity 1) 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    on_evict;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.entries
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let set_on_evict t f = t.on_evict <- f

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let push_back t node =
  node.next <- None;
  node.prev <- t.tail;
  (match t.tail with Some tl -> tl.next <- Some node | None -> t.head <- Some node);
  t.tail <- Some node

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
      unlink t node;
      push_front t node

let find t key =
  match Hashtbl.find_opt t.entries key with
  | Some node ->
      touch t node;
      t.hits <- t.hits + 1;
      Some node.value
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t key = Hashtbl.mem t.entries key

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.entries node.key;
      t.evictions <- t.evictions + 1;
      t.on_evict node.key

let insert t key value =
  if t.capacity = 0 then begin
    (* A zero-capacity cache holds nothing: the insert itself is the
       eviction, so the counters and callback still tell the truth. *)
    ignore value;
    t.evictions <- t.evictions + 1;
    t.on_evict key
  end
  else
    match Hashtbl.find_opt t.entries key with
    | Some node ->
        (* Present: refresh, never evict — re-inserting an existing key at
           capacity must not drop an innocent victim. *)
        node.value <- value;
        touch t node
    | None ->
        if Hashtbl.length t.entries >= t.capacity then evict_lru t;
        let node = { key; value; prev = None; next = None } in
        Hashtbl.replace t.entries key node;
        push_front t node

(* Scan-resistant insertion: the entry goes in at the LRU end, so it is the
   next eviction victim instead of displacing the recency list's hot head.
   A sweep larger than the cache then churns through one slot — at most one
   previously-resident entry is lost to the whole sweep (the true LRU paid
   to open the slot) — while everything recently touched survives.  A
   [find] on a cold entry promotes it to the head like any other hit. *)
let insert_cold t key value =
  if t.capacity = 0 then begin
    ignore value;
    t.evictions <- t.evictions + 1;
    t.on_evict key
  end
  else
    match Hashtbl.find_opt t.entries key with
    | Some node ->
        (* Present: refresh in place.  No touch — a cold re-insert must not
           promote the entry it refreshes. *)
        node.value <- value
    | None ->
        if Hashtbl.length t.entries >= t.capacity then evict_lru t;
        let node = { key; value; prev = None; next = None } in
        Hashtbl.replace t.entries key node;
        push_back t node

let remove t key =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.entries key
      (* A deliberate drop (e.g. a version-invalidated plan), not a
         capacity eviction: no counter bump, no [on_evict]. *)

let find_or_add t key make =
  match find t key with
  | Some v -> v
  | None ->
      let v = make () in
      insert t key v;
      v

let clear t =
  Hashtbl.reset t.entries;
  t.head <- None;
  t.tail <- None
