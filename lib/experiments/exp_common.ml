open Rq_storage
open Rq_exec
open Rq_optimizer

type cell = { times : float array; plans : (string * int) list }

let cell_mean cell = (Rq_math.Summary.of_array cell.times).Rq_math.Summary.mean
let cell_std cell = (Rq_math.Summary.of_array cell.times).Rq_math.Summary.std_dev

type row = {
  parameter : float;
  selectivity : float;
  series : (string * cell) list;
}

let paper_thresholds = [ 5.0; 20.0; 50.0; 80.0; 95.0 ]

(* Statistics draws are memoized so every threshold and parameter value
   sees the same [r]-th sample, matching the paper's averaging protocol. *)
let make_stats_of_draw rng ~sample_size catalog =
  let memo = Hashtbl.create 8 in
  fun r ->
    match Hashtbl.find_opt memo r with
    | Some stats -> stats
    | None ->
        let stats =
          Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng)
            ~config:{ Rq_stats.Stats_store.default_config with sample_size }
            catalog
        in
        Hashtbl.replace memo r stats;
        stats

let threshold_label t = Printf.sprintf "T=%g%%" t

let histogram_label = "histograms"

type executor_cache = {
  catalog : Catalog.t;
  scale : float;
  table : (string, float) Hashtbl.t;  (* Plan.describe + params digest -> seconds *)
}

let make_cache catalog ~scale = { catalog; scale; table = Hashtbl.create 32 }

(* Plans chosen for the same query at different thresholds often coincide;
   execution is deterministic, so key the memo on the full plan rendering. *)
let plan_digest plan = Format.asprintf "%a" Plan.pp plan

let measure cache plan =
  let key = plan_digest plan in
  match Hashtbl.find_opt cache.table key with
  | Some seconds -> seconds
  | None ->
      let meter = Cost.create ~scale:cache.scale () in
      let (_ : Executor.result) = Executor.run cache.catalog meter plan in
      let seconds = (Cost.snapshot meter).Cost.seconds in
      Hashtbl.replace cache.table key seconds;
      seconds

(* ------------------------------------------------------------------ *)
(* Differential result comparison (the plan-correctness oracle)        *)
(* ------------------------------------------------------------------ *)

(* Two plans for the same query must produce the same multiset of rows,
   but not the same presentation: join order permutes output columns, and
   unordered results can arrive in any row order.  Canonicalize both away
   before comparing; float cells get a relative tolerance because summing
   the same numbers in a different order is not bitwise-stable. *)

let column_order schema =
  List.mapi (fun i (c : Schema.column) -> (c.Schema.name, i)) (Schema.columns schema)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let canonical_rows (r : Executor.result) =
  let order = column_order r.Executor.schema in
  let render = function
    | Value.Float f -> Printf.sprintf "%.6g" f
    | v -> Value.to_string v
  in
  let rows =
    Array.map
      (fun tuple -> String.concat "|" (List.map (fun (_, i) -> render tuple.(i)) order))
      r.Executor.tuples
  in
  Array.sort String.compare rows;
  rows

let values_close ~tol a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Float.equal x y
      || Float.abs (x -. y) <= tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.equal a b

let results_equal ?(tol = 1e-6) (a : Executor.result) (b : Executor.result) =
  let order_a = column_order a.Executor.schema in
  let order_b = column_order b.Executor.schema in
  List.map fst order_a = List.map fst order_b
  && Array.length a.Executor.tuples = Array.length b.Executor.tuples
  &&
  let reorder order (r : Executor.result) =
    let rows =
      Array.map (fun tuple -> List.map (fun (_, i) -> tuple.(i)) order) r.Executor.tuples
    in
    Array.sort (fun x y -> List.compare Value.compare x y) rows;
    rows
  in
  let rows_a = reorder order_a a and rows_b = reorder order_b b in
  Array.for_all2 (fun x y -> List.for_all2 (values_close ~tol) x y) rows_a rows_b

(* Field-by-field cost-counter equality (floats under a 1e-9 tolerance). *)
let snapshots_equal (a : Cost.snapshot) (b : Cost.snapshot) =
  a.Cost.seq_pages = b.Cost.seq_pages
  && a.Cost.random_pages = b.Cost.random_pages
  && a.Cost.pages_skipped = b.Cost.pages_skipped
  && a.Cost.cpu_tuples = b.Cost.cpu_tuples
  && a.Cost.index_probes = b.Cost.index_probes
  && a.Cost.index_entries = b.Cost.index_entries
  && a.Cost.hash_build = b.Cost.hash_build
  && a.Cost.hash_probe = b.Cost.hash_probe
  && a.Cost.merge_tuples = b.Cost.merge_tuples
  && a.Cost.sort_tuples = b.Cost.sort_tuples
  && a.Cost.output_tuples = b.Cost.output_tuples
  && Float.abs (a.Cost.sort_units -. b.Cost.sort_units) <= 1e-9
  && Float.abs (a.Cost.extra_seconds -. b.Cost.extra_seconds) <= 1e-9
  && Float.abs (a.Cost.seconds -. b.Cost.seconds)
     <= 1e-9 *. Float.max 1.0 (Float.abs b.Cost.seconds)

let count_plans labels =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun l -> Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
    labels;
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let run_robust_series ~cache ~stats_of_draw ~repetitions ~thresholds ~scale query =
  List.map
    (fun t ->
      let confidence = Rq_core.Confidence.of_percent t in
      let times = Array.make repetitions 0.0 in
      let labels = ref [] in
      for r = 0 to repetitions - 1 do
        let stats = stats_of_draw r in
        let opt = Optimizer.robust ~scale ~confidence stats in
        let decision = Optimizer.optimize_exn opt query in
        times.(r) <- measure cache decision.Optimizer.plan;
        labels := Plan.describe decision.Optimizer.plan :: !labels
      done;
      (threshold_label t, { times; plans = count_plans !labels }))
    thresholds

let run_estimator_series ~cache ~stats_of_draw ~repetitions ~label ~make ~scale query =
  let times = Array.make repetitions 0.0 in
  let labels = ref [] in
  for r = 0 to repetitions - 1 do
    let stats = stats_of_draw r in
    let opt = Rq_optimizer.Optimizer.create ~scale stats (make stats) in
    let decision = Rq_optimizer.Optimizer.optimize_exn opt query in
    times.(r) <- measure cache decision.Rq_optimizer.Optimizer.plan;
    labels := Plan.describe decision.Rq_optimizer.Optimizer.plan :: !labels
  done;
  (label, { times; plans = count_plans !labels })

let run_histogram_cell ~cache ~stats ~scale query =
  let opt = Optimizer.baseline ~scale stats in
  let decision = Optimizer.optimize_exn opt query in
  let seconds = measure cache decision.Optimizer.plan in
  ( histogram_label,
    { times = [| seconds |]; plans = [ (Plan.describe decision.Optimizer.plan, 1) ] } )

let oracle_label = "oracle"

let run_oracle_cell ~cache ~catalog ~scale query =
  let stats =
    (* The oracle estimator never consults statistics, but the optimizer
       needs a store for its catalog handle. *)
    Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create 0)
      ~config:
        { Rq_stats.Stats_store.default_config with sample_size = 1; synopsis_roots = Some [] }
      catalog
  in
  let opt =
    Rq_optimizer.Optimizer.create ~scale stats (Rq_optimizer.Cardinality.oracle catalog)
  in
  let decision = Rq_optimizer.Optimizer.optimize_exn opt query in
  let seconds = measure cache decision.Rq_optimizer.Optimizer.plan in
  ( oracle_label,
    {
      times = [| seconds |];
      plans = [ (Plan.describe decision.Rq_optimizer.Optimizer.plan, 1) ];
    } )

let merge_cells cells =
  let times = Array.concat (List.map (fun c -> c.times) cells) in
  let labels =
    List.concat_map (fun c -> List.concat_map (fun (l, n) -> List.init n (fun _ -> l)) c.plans) cells
  in
  { times; plans = count_plans labels }

let summarize_series rows =
  match rows with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (label, _) ->
          let cells = List.map (fun row -> List.assoc label row.series) rows in
          let merged = merge_cells cells in
          (label, Rq_math.Summary.of_array merged.times))
        first.series
