(* The one scan planner shared by the engine and the optimizer's cost
   model: split a (possibly resuming) sequential scan into per-chunk
   tasks, marking each chunk either read (sequential pages + per-row CPU)
   or skipped (its zone map disproves the predicate: pages_skipped only,
   zero simulated seconds, zero CPU).

   Page charges telescope exactly: a task's pages are counted from the
   page containing its first row to the page containing its last, so
   summing over tasks gives [Relation.page_count] for a fresh scan and
   [Exec_common.resume_pages] for a resume — whether or not chunks in
   between are skipped (chunk boundaries are page-aligned by
   construction). *)

open Rq_storage

type task = {
  ci : int;      (* chunk index *)
  lo : int;      (* first RID, inclusive (= chunk start except when resuming) *)
  hi : int;      (* last RID, exclusive *)
  pages : int;   (* sequential pages this task covers *)
  skip : bool;   (* zone map disproved the predicate for the whole chunk *)
}

let pages_upto rpp pos = if pos = 0 then 0 else ((pos - 1) / rpp) + 1

let tasks ?(from = 0) rel pred =
  let rows = Relation.row_count rel in
  if from >= rows then []
  else begin
    let rpp = Relation.rows_per_page rel in
    let rpc = Relation.rows_per_chunk rel in
    let schema = Relation.schema rel in
    let prune = pred <> Pred.True in
    let acc = ref [] in
    for ci = Relation.chunk_count rel - 1 downto from / rpc do
      let lo = max from (ci * rpc) in
      let hi = min rows ((ci + 1) * rpc) in
      let pages = pages_upto rpp hi - (lo / rpp) in
      let skip =
        prune && not (Prune.chunk_may_match schema (Relation.zone_map rel ci) pred)
      in
      acc := { ci; lo; hi; pages; skip } :: !acc
    done;
    !acc
  end

let totals ?from rel pred =
  List.fold_left
    (fun (read_pages, skipped_pages, read_rows) t ->
      if t.skip then (read_pages, skipped_pages + t.pages, read_rows)
      else (read_pages + t.pages, skipped_pages, read_rows + (t.hi - t.lo)))
    (0, 0, 0) (tasks ?from rel pred)

(* -- Per-chunk bitmap filtering ------------------------------------------ *)

(* For chunks the zone map cannot skip, the predicate is evaluated as a
   per-chunk bitmap: one bitset per atomic predicate (built touching only
   the columns the atom references — the columnar payoff), combined with
   word-wise AND/OR/NOT per the boolean structure, then matching rows are
   materialized in ascending order.  [Bitset.lognot] keeps bits past the
   logical length zero, so [Not] is exact; the bitmap path is
   semantics-identical to [Pred.compile] row-at-a-time evaluation. *)
let build_bitmap schema pred =
  let arity = Schema.arity schema in
  let rec build p : Chunk.t -> int -> Bitset.t =
    match (p : Pred.t) with
    | True -> fun _ n -> Bitset.full n
    | False -> fun _ n -> Bitset.create n
    | And ps ->
        let fs = List.map build ps in
        fun chunk n ->
          List.fold_left (fun acc f -> Bitset.logand acc (f chunk n)) (Bitset.full n) fs
    | Or ps ->
        let fs = List.map build ps in
        fun chunk n ->
          List.fold_left (fun acc f -> Bitset.logor acc (f chunk n)) (Bitset.create n) fs
    | Not p ->
        let f = build p in
        fun chunk n -> Bitset.lognot (f chunk n)
    | atom ->
        let idxs = Array.of_list (List.map (Schema.index_of schema) (Pred.columns atom)) in
        let compiled = Pred.compile schema atom in
        fun chunk n ->
          (* The scratch tuple is per-invocation: bitmaps are computed
             on several domains at once by the morsel prefetch.  Only the
             atom's columns are forced (decoded, for a spilled chunk), and
             the per-row loop allocates nothing. *)
          let scratch = Array.make arity Value.Null in
          let cols = Array.map (Chunk.column chunk) idxs in
          let m = Array.length idxs in
          Bitset.of_pred ~len:n (fun r ->
              for j = 0 to m - 1 do
                scratch.(idxs.(j)) <- cols.(j).(r)
              done;
              compiled scratch)
  in
  build pred

let bitmap schema pred =
  match (pred : Pred.t) with
  | True -> None
  | _ ->
      let bm = build_bitmap schema pred in
      Some (fun chunk -> bm chunk (Chunk.n_rows chunk))

let matcher schema pred =
  match bitmap schema pred with
  | None -> fun chunk f -> Chunk.iter f chunk
  | Some bm ->
      fun chunk f -> Bitset.iter_set (fun r -> f r (Chunk.get chunk r)) (bm chunk)
