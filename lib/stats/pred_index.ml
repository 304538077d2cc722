(* The bitset evidence kernel: per-sample cached bitmaps for atomic
   predicates.

   Each *atomic* predicate (comparison, BETWEEN, CONTAINS) is evaluated
   exactly once over the sample into a bitmap, chunk by chunk with the
   scan engine's own per-chunk kernel ([Chunk_scan.bitmap], which reads
   only the atom's columns and pins each chunk once); the evidence
   count for any conjunction/disjunction/negation is then a bitwise
   combination plus a popcount — O(n/64) words instead of O(n) fresh row
   evaluations.  This is exact, not approximate: a bitmap records
   precisely the rows where the compiled atom returned true, and
   [Pred.compile]'s And/Or/Not are pointwise for_all/exists/not over the
   same rows, so bitwise AND/OR/NOT reproduce the scan path bit for bit
   (nulls included — a null comparison is false in the atom's bitmap, and
   negation flips it exactly as [Not] does).

   Atom identity is the atom itself: the LRU hashes and compares the
   [Pred.t] structurally, so two atoms share a bitmap exactly when they
   are the same value — literals included, to the last bit of a float.
   Commuted spellings of one [=]/[<>] atom are different values and may
   build separate (equal) bitmaps.  The cache is a small LRU:
   long-running optimizers with adversarial predicate churn stay
   bounded, at worst re-scanning for an evicted atom.  Bitmaps never go
   stale: an index is built over one immutable sample, and every change
   of sample rows makes a new synopsis with a new index. *)

open Rq_storage
open Rq_exec

type t = {
  rows : Relation.t;
  nrows : int;
  atoms : (Pred.t, Bitset.t) Lru.t;
  mutable bitmaps_built : int;
  mutable bitmap_hits : int;
  mutable evidence_queries : int;
  mutable rows_scanned : int;
  mutable rows_scan_avoided : int;
}

let default_capacity = 256

let create ?(capacity = default_capacity) rows =
  {
    rows;
    nrows = Relation.row_count rows;
    atoms = Lru.create ~capacity ();
    bitmaps_built = 0;
    bitmap_hits = 0;
    evidence_queries = 0;
    rows_scanned = 0;
    rows_scan_avoided = 0;
  }

let rows t = t.rows
let size t = t.nrows
let clear t = Lru.clear t.atoms

let atomic t pred =
  match Lru.find t.atoms pred with
  | Some bitmap ->
      t.bitmap_hits <- t.bitmap_hits + 1;
      (* Each hit stands in for the full sample scan the row path would
         have paid for this atom. *)
      t.rows_scan_avoided <- t.rows_scan_avoided + t.nrows;
      bitmap
  | None ->
      let bitmap = Bitset.create t.nrows in
      (* An atom is never [True], so the scan kernel always yields one. *)
      let chunk_bitmap = Option.get (Chunk_scan.bitmap (Relation.schema t.rows) pred) in
      for ci = 0 to Relation.chunk_count t.rows - 1 do
        let base = Relation.chunk_start t.rows ci in
        Relation.with_chunk t.rows ci (fun chunk ->
            Bitset.iter_set (fun r -> Bitset.set bitmap (base + r)) (chunk_bitmap chunk))
      done;
      t.bitmaps_built <- t.bitmaps_built + 1;
      t.rows_scanned <- t.rows_scanned + t.nrows;
      Lru.insert t.atoms pred bitmap;
      bitmap

let eval t pred = Pred.bitmap ~atom:atomic t ~len:t.nrows pred

let count t pred =
  t.evidence_queries <- t.evidence_queries + 1;
  Bitset.popcount (eval t pred)

let stats t =
  {
    Rq_obs.Metrics.bitmaps_built = t.bitmaps_built;
    bitmap_hits = t.bitmap_hits;
    bitmap_evictions = Lru.evictions t.atoms;
    evidence_queries = t.evidence_queries;
    rows_scanned = t.rows_scanned;
    rows_scan_avoided = t.rows_scan_avoided;
  }
