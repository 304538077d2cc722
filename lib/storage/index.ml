type t = {
  relation_name : string;
  column : string;
  keys : Value.t array;  (* sorted ascending, Nulls first *)
  rids : int array;      (* parallel to keys *)
}

let build rel column =
  let pos = Schema.index_of (Relation.schema rel) column in
  let n = Relation.row_count rel in
  let pairs = Array.make n (Value.Null, 0) in
  (* One sequential pass, reading only the key column of each chunk. *)
  for ci = 0 to Relation.chunk_count rel - 1 do
    let base = Relation.chunk_start rel ci in
    Relation.with_chunk ~seq:true rel ci (fun chunk ->
        let keys = Chunk.column chunk pos in
        for r = 0 to Chunk.n_rows chunk - 1 do
          pairs.(base + r) <- (keys.(r), base + r)
        done)
  done;
  Array.sort
    (fun (k1, r1) (k2, r2) ->
      let c = Value.compare k1 k2 in
      if c <> 0 then c else Int.compare r1 r2)
    pairs;
  {
    relation_name = Relation.name rel;
    column;
    keys = Array.map fst pairs;
    rids = Array.map snd pairs;
  }

let relation_name t = t.relation_name
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
  let per_page = max 1 (Relation.page_size_bytes / entry_bytes) in
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
