(* The one scan planner shared by the engine and the optimizer's cost
   model: split a (possibly resuming) sequential scan into per-chunk
   tasks, marking each chunk either read (sequential pages + per-row CPU)
   or skipped (its zone map disproves the predicate: pages_skipped only,
   zero simulated seconds, zero CPU).

   Page charges telescope exactly: a task's pages are counted from the
   page containing its first row to the page containing its last, so
   summing over tasks gives [Relation.page_count] for a fresh scan and
   [resume_pages] for a resume — whether or not chunks in
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

(* Page geometry of a scan resumed at [from]: the remainder re-reads the
   page the split point sits in (it was genuinely fetched twice), then the
   untouched tail.  [resume_pages rel ~from:0] equals [page_count rel]. *)
let resume_pages rel ~from =
  let rows = Relation.row_count rel in
  if from >= rows then 0
  else Relation.page_count rel - (from / Relation.rows_per_page rel)

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
   the columns the atom references — the columnar payoff), combined by
   {!Pred.bitmap}.  [Bitset.lognot] keeps bits past the logical length
   zero, so [Not] is exact; the bitmap is semantics-identical to
   [Pred.compile] row-at-a-time evaluation. *)
let atom_bitmap schema atom =
  let arity = Schema.arity schema in
  let idxs = Array.of_list (List.map (Schema.index_of schema) (Pred.columns atom)) in
  let compiled = Pred.compile schema atom in
  fun chunk ->
    (* The scratch tuple is per-invocation: bitmaps are computed on several
       domains at once by morsel workers.  Only the atom's columns are
       forced (decoded, for a spilled chunk), and the per-row loop
       allocates nothing. *)
    let scratch = Array.make arity Value.Null in
    let cols = Array.map (Chunk.column chunk) idxs in
    let m = Array.length idxs in
    Bitset.of_pred ~len:(Chunk.n_rows chunk) (fun r ->
        for j = 0 to m - 1 do
          scratch.(idxs.(j)) <- cols.(j).(r)
        done;
        compiled scratch)

(* Each atom compiles once, keyed by its physical identity in [pred]. *)
let bitmap schema pred =
  let rec kernels acc = function
    | Pred.True | Pred.False -> acc
    | Pred.And ps | Pred.Or ps -> List.fold_left kernels acc ps
    | Pred.Not p -> kernels acc p
    | atom -> (atom, atom_bitmap schema atom) :: acc
  in
  match (pred : Pred.t) with
  | True -> None
  | _ ->
      let atoms = kernels [] pred in
      let atom chunk a = List.assq a atoms chunk in
      Some (fun chunk -> Pred.bitmap ~atom chunk ~len:(Chunk.n_rows chunk) pred)
