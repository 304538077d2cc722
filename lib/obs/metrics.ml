type t = {
  seconds : float;
  seq_pages : int;
  random_pages : int;
  pages_skipped : int;
  cpu_tuples : int;
  index_probes : int;
  index_entries : int;
  hash_build : int;
  hash_probe : int;
  merge_tuples : int;
  sort_tuples : int;
  output_tuples : int;
  sort_units : float;
  extra_seconds : float;
}

let zero =
  {
    seconds = 0.0;
    seq_pages = 0;
    random_pages = 0;
    pages_skipped = 0;
    cpu_tuples = 0;
    index_probes = 0;
    index_entries = 0;
    hash_build = 0;
    hash_probe = 0;
    merge_tuples = 0;
    sort_tuples = 0;
    output_tuples = 0;
    sort_units = 0.0;
    extra_seconds = 0.0;
  }

let map2 fi ff a b =
  {
    seconds = ff a.seconds b.seconds;
    seq_pages = fi a.seq_pages b.seq_pages;
    random_pages = fi a.random_pages b.random_pages;
    pages_skipped = fi a.pages_skipped b.pages_skipped;
    cpu_tuples = fi a.cpu_tuples b.cpu_tuples;
    index_probes = fi a.index_probes b.index_probes;
    index_entries = fi a.index_entries b.index_entries;
    hash_build = fi a.hash_build b.hash_build;
    hash_probe = fi a.hash_probe b.hash_probe;
    merge_tuples = fi a.merge_tuples b.merge_tuples;
    sort_tuples = fi a.sort_tuples b.sort_tuples;
    output_tuples = fi a.output_tuples b.output_tuples;
    sort_units = ff a.sort_units b.sort_units;
    extra_seconds = ff a.extra_seconds b.extra_seconds;
  }

let add = map2 ( + ) ( +. )
let sub = map2 ( - ) ( -. )

let approx_equal ?(tolerance = 1e-9) a b =
  a.seq_pages = b.seq_pages && a.random_pages = b.random_pages
  && a.pages_skipped = b.pages_skipped
  && a.cpu_tuples = b.cpu_tuples && a.index_probes = b.index_probes
  && a.index_entries = b.index_entries && a.hash_build = b.hash_build
  && a.hash_probe = b.hash_probe && a.merge_tuples = b.merge_tuples
  && a.sort_tuples = b.sort_tuples && a.output_tuples = b.output_tuples
  && Float.abs (a.seconds -. b.seconds) <= tolerance
  && Float.abs (a.sort_units -. b.sort_units) <= tolerance
  && Float.abs (a.extra_seconds -. b.extra_seconds) <= tolerance

let to_json m =
  Json.Obj
    [
      ("seconds", Json.Num m.seconds);
      ("seq_pages", Json.Num (float_of_int m.seq_pages));
      ("random_pages", Json.Num (float_of_int m.random_pages));
      ("pages_skipped", Json.Num (float_of_int m.pages_skipped));
      ("cpu_tuples", Json.Num (float_of_int m.cpu_tuples));
      ("index_probes", Json.Num (float_of_int m.index_probes));
      ("index_entries", Json.Num (float_of_int m.index_entries));
      ("hash_build", Json.Num (float_of_int m.hash_build));
      ("hash_probe", Json.Num (float_of_int m.hash_probe));
      ("merge_tuples", Json.Num (float_of_int m.merge_tuples));
      ("sort_tuples", Json.Num (float_of_int m.sort_tuples));
      ("output_tuples", Json.Num (float_of_int m.output_tuples));
      ("sort_units", Json.Num m.sort_units);
      ("extra_seconds", Json.Num m.extra_seconds);
    ]

(* ------------------------------------------------------------------ *)
(* Evidence-kernel counters                                            *)
(* ------------------------------------------------------------------ *)

(* Work accounting for the bitset evidence kernel: how many per-atom
   bitmaps were materialized (each one a full sample scan), how many
   evidence queries were answered by combining cached bitmaps instead, and
   the row evaluations that combination avoided.  Separate from the
   simulated-cost record above: kernel work is real optimizer-side CPU,
   not modeled query execution. *)
type kernel = {
  bitmaps_built : int;      (* atomic predicate bitmaps materialized *)
  bitmap_hits : int;        (* atoms served from the bitmap cache *)
  bitmap_evictions : int;   (* atoms dropped by the bounded cache *)
  evidence_queries : int;   (* count/popcount requests answered *)
  rows_scanned : int;       (* row evaluations paid building bitmaps *)
  rows_scan_avoided : int;  (* row evaluations a scan path would have paid *)
}

let kernel_zero =
  {
    bitmaps_built = 0;
    bitmap_hits = 0;
    bitmap_evictions = 0;
    evidence_queries = 0;
    rows_scanned = 0;
    rows_scan_avoided = 0;
  }

let kernel_add a b =
  {
    bitmaps_built = a.bitmaps_built + b.bitmaps_built;
    bitmap_hits = a.bitmap_hits + b.bitmap_hits;
    bitmap_evictions = a.bitmap_evictions + b.bitmap_evictions;
    evidence_queries = a.evidence_queries + b.evidence_queries;
    rows_scanned = a.rows_scanned + b.rows_scanned;
    rows_scan_avoided = a.rows_scan_avoided + b.rows_scan_avoided;
  }

let kernel_to_json k =
  Json.Obj
    [
      ("bitmaps_built", Json.Num (float_of_int k.bitmaps_built));
      ("bitmap_hits", Json.Num (float_of_int k.bitmap_hits));
      ("bitmap_evictions", Json.Num (float_of_int k.bitmap_evictions));
      ("evidence_queries", Json.Num (float_of_int k.evidence_queries));
      ("rows_scanned", Json.Num (float_of_int k.rows_scanned));
      ("rows_scan_avoided", Json.Num (float_of_int k.rows_scan_avoided));
    ]

let pp_kernel fmt k =
  Format.fprintf fmt
    "evidence=%d bitmaps=%d hits=%d evictions=%d rows_scanned=%d rows_avoided=%d"
    k.evidence_queries k.bitmaps_built k.bitmap_hits k.bitmap_evictions k.rows_scanned
    k.rows_scan_avoided

let pp fmt m =
  Format.fprintf fmt "%.6fs" m.seconds;
  let field name v = if v <> 0 then Format.fprintf fmt " %s=%d" name v in
  field "seq" m.seq_pages;
  field "rand" m.random_pages;
  field "skipped" m.pages_skipped;
  field "cpu" m.cpu_tuples;
  field "probes" m.index_probes;
  field "entries" m.index_entries;
  field "hbuild" m.hash_build;
  field "hprobe" m.hash_probe;
  field "merge" m.merge_tuples;
  field "sort" m.sort_tuples;
  field "out" m.output_tuples
