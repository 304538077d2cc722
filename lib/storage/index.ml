type t = {
  column : string;
  keys : Value.t array;  (* sorted ascending, Nulls first *)
  rids : int array;      (* parallel to keys *)
}

(* Exact cell identity, stricter than [Value.compare = 0]: [Int 1] and
   [Float 1.0], or [0.0] and [-0.0], compare equal but are different keys,
   and a kept entry must hold the very key a rebuild would store. *)
let same_key a b =
  a == b
  ||
  match (a, b) with
  | Value.Null, Value.Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y | Date x, Date y -> Int.equal x y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | String x, String y -> String.equal x y
  | _ -> false

(* [patch t ~old_rows ~old_column rel]: the index of [t]'s column over
   [rel], given that [t] indexes a relation of [old_rows] rows whose chunk
   [ci] holds that column as [old_column ci] (same schema, so the same
   chunk geometry).  The column is compared RID by RID over the common
   prefix; a changed RID, and every RID past the prefix, is fresh.
   Survivors keep their (key, RID) order, the fresh entries are
   stable-sorted by key (they are collected in RID order, so ties stay in
   RID order), and the two runs merge by (key, RID) — the order [build]
   produces.  With no survivors (a build, or every row changed) the merge
   is a copy. *)
let patch t ~old_rows ~old_column rel =
  let pos = Schema.index_of (Relation.schema rel) t.column in
  let n = Relation.row_count rel in
  let common = min old_rows n in
  let fresh_rids = Array.make n 0 and fresh_keys = Array.make n Value.Null in
  let m = ref 0 in
  let push rid key =
    fresh_rids.(!m) <- rid;
    fresh_keys.(!m) <- key;
    incr m
  in
  let changed = Bitset.create common in
  for ci = 0 to Relation.chunk_count rel - 1 do
    let base = Relation.chunk_start rel ci in
    let rows = Relation.chunk_row_count rel ci in
    let col = Relation.with_chunk ~seq:true rel ci (fun chunk -> Chunk.column chunk pos) in
    let shared = max 0 (min rows (common - base)) in
    if shared > 0 then begin
      let old = old_column ci in
      for r = 0 to shared - 1 do
        if not (same_key old.(r) col.(r)) then begin
          Bitset.set changed (base + r);
          push (base + r) col.(r)
        end
      done
    end;
    for r = shared to rows - 1 do
      push (base + r) col.(r)
    done
  done;
  let m = !m in
  if m = 0 && old_rows = n then t
  else begin
    let order = Array.init m Fun.id in
    Array.stable_sort (fun a b -> Value.compare fresh_keys.(a) fresh_keys.(b)) order;
    let keys = Array.make n Value.Null and rids = Array.make n 0 in
    let out = ref 0 and j = ref 0 in
    let emit key rid =
      keys.(!out) <- key;
      rids.(!out) <- rid;
      incr out
    in
    let emit_fresh () =
      emit fresh_keys.(order.(!j)) fresh_rids.(order.(!j));
      incr j
    in
    (* Before each survivor, the fresh entries that sort ahead of it. *)
    let precedes key rid p =
      let c = Value.compare fresh_keys.(p) key in
      c < 0 || (c = 0 && fresh_rids.(p) < rid)
    in
    Array.iteri
      (fun i rid ->
        if rid < common && not (Bitset.get changed rid) then begin
          while !j < m && precedes t.keys.(i) rid order.(!j) do
            emit_fresh ()
          done;
          emit t.keys.(i) rid
        end)
      t.rids;
    while !j < m do
      emit_fresh ()
    done;
    { t with keys; rids }
  end

let build rel column =
  let empty = { column; keys = [||]; rids = [||] } in
  patch empty ~old_rows:0 ~old_column:(fun _ -> [||]) rel

let refresh t ~old rel =
  let pos = Schema.index_of (Relation.schema old) t.column in
  patch t ~old_rows:(Relation.row_count old)
    ~old_column:(fun ci -> Relation.with_chunk ~seq:true old ci (fun c -> Chunk.column c pos))
    rel

let column t = t.column
let entry_count t = Array.length t.keys

let leaf_page_count t =
  (* Entries are (key, 8-byte RID); keys sized by their runtime width. *)
  let entry_bytes =
    if Array.length t.keys = 0 then 12
    else
      match Value.type_of t.keys.(Array.length t.keys - 1) with
      | Some ty -> Value.byte_width ty + 8
      | None -> 12
  in
  let per_page = max 1 (Page.size_bytes / entry_bytes) in
  let n = entry_count t in
  if n = 0 then 0 else ((n - 1) / per_page) + 1

(* First position with key >= v (lower bound). *)
let lower_bound t v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Value.compare t.keys.(mid) v < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.keys)

(* First position with key > v (upper bound). *)
let upper_bound t v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Value.compare t.keys.(mid) v <= 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.keys)

let range_bounds t ~lo ~hi =
  (* Nulls sort first; an open lower bound must still skip them, because SQL
     range predicates never match NULL. *)
  let start =
    match lo with
    | Some v -> lower_bound t v
    | None -> upper_bound t Value.Null
  in
  let stop = match hi with Some v -> upper_bound t v | None -> Array.length t.keys in
  (start, max start stop)

let probe_range t ~lo ~hi =
  let start, stop = range_bounds t ~lo ~hi in
  Rid_set.of_unsorted (Array.sub t.rids start (stop - start))

let probe_range_count t ~lo ~hi =
  let start, stop = range_bounds t ~lo ~hi in
  stop - start

let probe_eq t v = probe_range t ~lo:(Some v) ~hi:(Some v)

(* RIDs in key order, exactly as a stable sort of the heap on this column
   would emit them.  Ascending: keys ascend with Nulls first and equal-key
   ties in RID order — precisely the stored entry order.  Descending: a
   stable sort under the negated comparator keeps Nulls last and preserves
   the input (RID) order *within* each equal-key run, so we reverse the
   order of the runs but not the runs themselves. *)
let ordered_rids t ~descending =
  if not descending then Array.copy t.rids
  else begin
    let n = Array.length t.keys in
    let out = Array.make n 0 in
    let written = ref 0 in
    let hi = ref n in
    while !hi > 0 do
      let key = t.keys.(!hi - 1) in
      let lo = ref (!hi - 1) in
      while !lo > 0 && Value.compare t.keys.(!lo - 1) key = 0 do
        decr lo
      done;
      for i = !lo to !hi - 1 do
        out.(!written) <- t.rids.(i);
        incr written
      done;
      hi := !lo
    done;
    out
  end

let min_key t =
  (* Smallest non-null key. *)
  let start = upper_bound t Value.Null in
  if start < Array.length t.keys then Some t.keys.(start) else None

let max_key t =
  let n = Array.length t.keys in
  if n = 0 then None
  else
    let k = t.keys.(n - 1) in
    if Value.is_null k then None else Some k
