(* Turning a pass into named metrics.

   End-to-end metrics come from an untraced pass; per-layer metrics from
   the spans of a traced one.  Every value keeps all its digits. *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let h = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float h in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

type gc = { minor : int; major : int; allocated_words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    allocated_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
  }

let queries (p : Runner.pass) = List.length (List.filter fst p.Runner.timings)

let busy_ns timings = List.fold_left (fun acc (_, ns) -> acc + ns) 0 timings

let query_ms timings = List.filter_map (fun (q, ns) -> if q then Some (float_of_int ns /. 1e6) else None) timings

(* Consecutive slices of [n] ops, oldest first.  An incomplete last slice
   is dropped, unless it is the only one. *)
let slices n timings =
  let rec go acc cur k = function
    | [] -> if acc = [] then [ cur ] else acc
    | t :: rest ->
        if k + 1 = n then go ((t :: cur) :: acc) [] 0 rest else go acc (t :: cur) (k + 1) rest
  in
  List.filter (List.exists fst) (go [] [] 0 (List.rev timings))

(* [gc0]/[gc1] bracket the timed pass; for the parallel workload [gc1] is
   read after the domain pool shut down, because a worker domain's
   allocations reach the totals only when it exits. *)
let end_to_end (p : Runner.pass) ~slice_ops ~setup_s ~gc0 ~gc1 =
  let q = float_of_int (queries p) in
  let over_slices f = median (List.map f (slices slice_ops p.Runner.timings)) in
  let slice_qps s =
    ratio (float_of_int (List.length (List.filter fst s))) (float_of_int (busy_ns s) /. 1e9)
  in
  let alloc_mb =
    words_to_mb (gc1.allocated_words -. gc0.allocated_words) -. (p.Runner.bookkeeping_bytes /. 1e6)
  in
  [
    m "qps" "1/s" (over_slices slice_qps);
    m "latency_p50_ms" "ms" (over_slices (fun s -> quantile (query_ms s) 0.5));
    m "latency_p90_ms" "ms" (over_slices (fun s -> quantile (query_ms s) 0.9));
    m "setup_s" "s" (median setup_s);
    m "alloc_mb_per_query" "MB" (ratio alloc_mb q);
    (* At the end of the window, a fixed amount of work, so that a faster
       program doing more ops in its seconds cannot read as a bigger one. *)
    m "peak_heap_mb" "MB" (words_to_mb (float_of_int p.Runner.window_top_heap_words));
    m "sim_cost_s_per_query" "sim_s"
      (ratio p.Runner.window.Runner.sim_s (float_of_int p.Runner.window.Runner.queries));
  ]

(* Metrics that exist only on some workloads: reported beside the others,
   kept out of the fixed metric set every workload must print. *)
let extras (p : Runner.pass) spans =
  let hit_us =
    match spans with
    | Some t ->
        let self = Spans.self_times t in
        List.filter_map
          (fun (s : Spans.span) ->
            if s.Spans.name = "plan_cache.hit" then Some (float_of_int self.(s.Spans.id) /. 1e3)
            else None)
          (Spans.all t)
    | None -> []
  in
  List.concat
    [
      (if p.Runner.update_ns = [] then []
       else [ m "update_p50_ms" "ms" (median (List.map (fun ns -> float_of_int ns /. 1e6) p.Runner.update_ns)) ]);
      (if hit_us = [] then [] else [ m "plan_cache.hit_us_p50" "us" (median hit_us) ]);
      [ m "failed_frac" "ratio" (ratio (float_of_int p.Runner.failed) (float_of_int p.Runner.steps)) ];
    ]

(* Per-layer metrics from a traced pass.  [stats_ms] are the statistics
   builds of set-up; [overhead] compares traced with untraced op time. *)
let per_layer (p : Runner.pass) (t : Spans.t) ~stats_ms ~gc0 ~gc1 ~cache ~overhead =
  let self = Spans.self_times t in
  let spans = Spans.all t in
  let named name = List.filter (fun (s : Spans.span) -> s.Spans.name = name) spans in
  let self_us name = List.map (fun (s : Spans.span) -> float_of_int self.(s.Spans.id) /. 1e3) (named name) in
  let total_self name =
    List.fold_left (fun acc (s : Spans.span) -> acc +. float_of_int self.(s.Spans.id)) 0.0 (named name)
  in
  let attr name key =
    List.fold_left
      (fun acc (s : Spans.span) ->
        acc +. Option.value (List.assoc_opt key s.Spans.attrs) ~default:0.0)
      0.0 (named name)
  in
  let roots = List.filter (fun (s : Spans.span) -> s.Spans.parent < 0) spans in
  let wall = List.fold_left (fun acc (s : Spans.span) -> acc +. float_of_int s.Spans.dur_ns) 0.0 roots in
  let layered =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.Spans.parent < 0 then acc else acc +. float_of_int self.(s.Spans.id))
      0.0 spans
  in
  let q = float_of_int (queries p) in
  let per_q x = ratio x q in
  let miss_path = "enumerate" in
  let card_ns = total_self "cardinality" and card_calls = attr "cardinality" "calls" in
  let cstats = Rq_optimizer.Plan_cache.stats cache in
  let lookups = float_of_int (Rq_optimizer.Plan_cache.lookups cstats) in
  let pool_hits = attr "exec" "pool_hits" and pool_misses = attr "exec" "pool_misses" in
  let bitmaps = attr miss_path "bitmaps_built" and bitmap_hits = attr miss_path "bitmap_hits" in
  let refreshes =
    List.filter_map
      (fun (s : Spans.span) ->
        if List.assoc_opt "refreshed" s.Spans.attrs = Some 1.0 then
          Some (float_of_int s.Spans.dur_ns /. 1e6)
        else None)
      (named "stats.refresh")
  in
  let exec_us = List.map (fun (s : Spans.span) -> float_of_int s.Spans.dur_ns /. 1e3) (named "exec") in
  [
    m "sql.compile_us_p50" "us" (median (self_us "sql.compile"));
    m "fingerprint.us_p50" "us" (median (self_us "fingerprint"));
    m "rewrite.us_p50" "us" (median (self_us "rewrite"));
    m "rewrite.applications_per_query" "count" (per_q (attr "rewrite" "applications"));
    m "plan_cache.hit_rate" "ratio" (ratio (float_of_int cstats.Rq_optimizer.Plan_cache.hits) lookups);
    m "plan_cache.invalidations_per_query" "count"
      (per_q (float_of_int cstats.Rq_optimizer.Plan_cache.invalidations));
    m "plan_cache.evictions_per_query" "count"
      (per_q (float_of_int cstats.Rq_optimizer.Plan_cache.evictions));
    m "cardinality.calls_per_query" "count" (per_q card_calls);
    m "cardinality.us_per_call" "us" (ratio (card_ns /. 1e3) card_calls);
    m "cardinality.share" "ratio" (ratio card_ns wall);
    m "kernel.bitmaps_built_per_query" "count" (per_q bitmaps);
    m "kernel.bitmap_hit_rate" "ratio" (ratio bitmap_hits (bitmap_hits +. bitmaps));
    m "kernel.rows_scanned_per_query" "count"
      (per_q (attr miss_path "rows_scanned"));
    m "enumerate.self_us_p50" "us" (median (self_us miss_path));
    m "enumerate.share" "ratio" (ratio (total_self miss_path) wall);
    m "exec.us_p50" "us" (quantile exec_us 0.5);
    m "exec.us_p90" "us" (quantile exec_us 0.9);
    m "exec.share" "ratio" (ratio (total_self "exec") wall);
    m "exec.alloc_kb_per_query" "KB" (per_q (attr "exec" "alloc_bytes" /. 1e3));
    m "exec.seq_pages_per_query" "count" (per_q (attr "exec" "seq_pages"));
    m "exec.random_pages_per_query" "count" (per_q (attr "exec" "random_pages"));
    m "exec.pages_skipped_per_query" "count" (per_q (attr "exec" "pages_skipped"));
    m "exec.cpu_tuples_per_query" "count" (per_q (attr "exec" "cpu_tuples"));
    m "exec.rows_out_per_query" "count" (per_q (attr "exec" "rows_out"));
    m "buffer_pool.hit_rate" "ratio" (ratio pool_hits (pool_hits +. pool_misses));
    m "buffer_pool.misses_per_query" "count" (per_q pool_misses);
    m "buffer_pool.evictions_per_query" "count" (per_q (attr "exec" "pool_evictions"));
    m "parallel.morsels_per_query" "count" (per_q (attr "exec" "morsels"));
    m "parallel.serial_sim_share" "ratio" (ratio (attr "exec" "serial_sim_s") (attr "exec" "sim_s"));
    m "stats.refresh_ms_p50" "ms" (median (stats_ms @ refreshes));
    m "stats.refreshes" "count" (float_of_int p.Runner.refreshes);
    m "gc.minor_collections_per_query" "count" (per_q (float_of_int (gc1.minor - gc0.minor)));
    m "gc.major_collections_per_query" "count" (per_q (float_of_int (gc1.major - gc0.major)));
    m "trace.overhead_frac" "ratio" overhead;
    m "trace.coverage" "ratio" (ratio layered wall);
  ]

let to_json metrics =
  Rq_obs.Json.Obj
    (List.map
       (fun x ->
         ( x.name,
           Rq_obs.Json.Obj [ ("value", Rq_obs.Json.Num x.value); ("unit", Rq_obs.Json.Str x.unit) ] ))
       metrics)

let print ~workload metrics =
  List.iter (fun x -> Printf.printf "%-18s %-36s %16.6g %s\n" workload x.name x.value x.unit) metrics
