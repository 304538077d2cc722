(* End-to-end integration tests: full pipelines over the paper's workloads
   (generate -> statistics -> SQL -> optimize -> execute), cross-plan result
   equivalence, and experiment-harness sanity. *)

open Rq_storage
open Rq_exec
open Rq_optimizer
open Rq_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tpch =
  lazy
    (let params = { Tpch.default_params with scale_factor = 0.002 } in
     Tpch.generate (Rq_math.Rng.create 201) ~params ())

let stats_for catalog seed =
  Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create seed)
    ~config:{ Rq_stats.Stats_store.default_config with sample_size = 300 }
    catalog

let result_value (result : Executor.result) =
  (* Single-row single-column aggregate as a string, NULL-safe. *)
  match result.Executor.tuples with
  | [| row |] -> Value.to_string row.(0)
  | _ -> Alcotest.failf "expected one row, got %d" (Array.length result.Executor.tuples)

(* ------------------------------------------------------------------ *)
(* Cross-plan equivalence: every candidate plan for a query computes    *)
(* the same answer.                                                     *)
(* ------------------------------------------------------------------ *)

let all_plans catalog stats query =
  (* Enumerate under several estimators to reach plans a single cost model
     would never pick. *)
  let cost_fn estimator plan = Costing.plan_cost catalog estimator plan in
  let estimators =
    [
      Cardinality.oracle catalog;
      Cardinality.histogram_avi stats;
      Cardinality.robust stats
        (Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.median ());
    ]
  in
  List.concat_map
    (fun est -> Enumerate.join_plans catalog ~cost_fn:(cost_fn est) query)
    estimators
  |> List.map (Enumerate.wrap_top catalog query)

let agg_equal catalog plans =
  match plans with
  | [] -> Alcotest.fail "no plans"
  | first :: rest ->
      let reference = result_value (fst (Executor.run_timed catalog first)) in
      List.iter
        (fun plan ->
          let got = result_value (fst (Executor.run_timed catalog plan)) in
          Alcotest.(check string)
            (Printf.sprintf "plan %s agrees" (Plan.describe plan))
            reference got)
        rest;
      reference

let test_exp1_cross_plan_equivalence () =
  let catalog = Lazy.force tpch in
  let stats = stats_for catalog 1 in
  List.iter
    (fun offset ->
      let query = Tpch.exp1_query ~offset in
      let plans = all_plans catalog stats query in
      check_bool "several plans" true (List.length plans >= 2);
      ignore (agg_equal catalog plans))
    [ 30; 65; 90 ]

let test_exp1_matches_naive () =
  let catalog = Lazy.force tpch in
  let stats = stats_for catalog 2 in
  let query = Tpch.exp1_query ~offset:40 in
  let opt = Optimizer.robust stats in
  let decision = Optimizer.optimize_exn opt query in
  let via_plan = result_value (fst (Executor.run_timed catalog decision.Optimizer.plan)) in
  let via_naive = result_value (Naive.evaluate_query catalog query) in
  Alcotest.(check string) "optimizer plan = naive evaluation" via_naive via_plan

let test_exp2_cross_plan_equivalence () =
  let catalog = Lazy.force tpch in
  let stats = stats_for catalog 3 in
  let query = Tpch.exp2_query ~bucket:900 in
  let plans = all_plans catalog stats query in
  check_bool "several join plans" true (List.length plans >= 2);
  let answer = agg_equal catalog plans in
  Alcotest.(check string) "joins match naive" (result_value (Naive.evaluate_query catalog query)) answer

let test_star_cross_plan_equivalence () =
  let params = { Star.default_params with fact_rows = 10_000; join_fraction = 0.03 } in
  let catalog = Star.generate (Rq_math.Rng.create 202) ~params () in
  let stats = stats_for catalog 4 in
  let query = Star.query () in
  let plans = all_plans catalog stats query in
  (* Must include at least one semijoin strategy and one hash cascade. *)
  let descriptions = List.map Plan.describe plans in
  check_bool "includes a semijoin plan" true
    (List.exists (fun d -> String.length d >= 8 && String.sub d 0 8 = "Semijoin") descriptions
    || List.exists
         (fun d ->
           let rec contains i =
             i + 8 <= String.length d && (String.sub d i 8 = "Semijoin" || contains (i + 1))
           in
           contains 0)
         descriptions);
  let row_count plan = Array.length (fst (Executor.run_timed catalog plan)).Executor.tuples in
  List.iter (fun plan -> check_int "one aggregate row" 1 (row_count plan)) plans;
  ignore (agg_equal catalog plans)

let test_sql_pipeline_end_to_end () =
  let catalog = Lazy.force tpch in
  let stats = stats_for catalog 5 in
  let sql =
    "SELECT SUM(l_extendedprice) FROM lineitem, orders, part \
     WHERE p_bucket = 900 /*+ CONFIDENCE(80) */"
  in
  match Rq_sql.Binder.compile catalog sql with
  | Error msg -> Alcotest.fail msg
  | Ok bound ->
      let confidence = Option.get bound.Rq_sql.Binder.confidence_hint in
      let opt = Optimizer.robust ~confidence stats in
      let decision = Optimizer.optimize_exn opt bound.Rq_sql.Binder.query in
      let via_sql = result_value (fst (Executor.run_timed catalog decision.Optimizer.plan)) in
      let direct = result_value (Naive.evaluate_query catalog (Tpch.exp2_query ~bucket:900)) in
      Alcotest.(check string) "SQL pipeline = direct construction" direct via_sql

let test_group_by_pipeline () =
  let catalog = Lazy.force tpch in
  let stats = stats_for catalog 6 in
  let sql =
    "SELECT p_brand, COUNT(*) AS n FROM lineitem, orders, part GROUP BY p_brand"
  in
  match Rq_sql.Binder.compile catalog sql with
  | Error msg -> Alcotest.fail msg
  | Ok bound ->
      let opt = Optimizer.robust stats in
      let decision = Optimizer.optimize_exn opt bound.Rq_sql.Binder.query in
      let result, _ = Executor.run_timed catalog decision.Optimizer.plan in
      let naive = Naive.evaluate_query catalog bound.Rq_sql.Binder.query in
      check_int "group count matches naive" (Array.length naive.Executor.tuples)
        (Array.length result.Executor.tuples);
      (* Total over groups = lineitem row count (FK joins preserve it). *)
      let total =
        Array.fold_left
          (fun acc row -> match row.(1) with Value.Int n -> acc + n | _ -> acc)
          0 result.Executor.tuples
      in
      check_int "counts add up" (Relation.row_count (Catalog.find_table catalog "lineitem")) total

(* ------------------------------------------------------------------ *)
(* Experiment harness sanity                                            *)
(* ------------------------------------------------------------------ *)

let test_exp_single_table_harness () =
  let config =
    {
      Rq_experiments.Exp_single_table.default_config with
      repetitions = 3;
      offsets = [ 40; 80 ];
      scale_factor = 0.002;
      thresholds = [ 20.0; 95.0 ];
    }
  in
  let rows = Rq_experiments.Exp_single_table.run ~config () in
  check_int "one row per offset" 2 (List.length rows);
  List.iter
    (fun row ->
      check_int "series: two thresholds + histograms + oracle" 4
        (List.length row.Rq_experiments.Exp_common.series);
      List.iter
        (fun (_, cell) ->
          Array.iter
            (fun t -> check_bool "positive time" true (t > 0.0))
            cell.Rq_experiments.Exp_common.times)
        row.Rq_experiments.Exp_common.series)
    rows;
  (* T=95% must be (near-)deterministic across draws. *)
  let tradeoff = Rq_experiments.Exp_single_table.tradeoff rows in
  let t95 = List.assoc "T=95%" tradeoff in
  let t20 = List.assoc "T=20%" tradeoff in
  check_bool "conservative threshold has lower variance" true
    (t95.Rq_math.Summary.std_dev <= t20.Rq_math.Summary.std_dev +. 1e-9)

let test_partial_stats_harness () =
  let config =
    { Rq_experiments.Exp_partial_stats.default_config with scale_factor = 0.002;
      buckets = [ 0; 999 ] }
  in
  let rows = Rq_experiments.Exp_partial_stats.run ~config () in
  check_int "two buckets" 2 (List.length rows);
  List.iter
    (fun row ->
      check_int "three tiers" 3 (List.length row.Rq_experiments.Exp_partial_stats.estimates);
      List.iter
        (fun (_, est) -> check_bool "estimates positive" true (est > 0.0))
        row.Rq_experiments.Exp_partial_stats.estimates)
    rows;
  (* Degraded tiers are selectivity-blind: their estimates cannot depend on
     the bucket parameter. *)
  (match rows with
  | [ a; b ] ->
      let degraded r label = List.assoc label r.Rq_experiments.Exp_partial_stats.estimates in
      List.iter
        (fun label ->
          check_bool (label ^ " is flat") true
            (Float.abs (degraded a label -. degraded b label) < 1e-6))
        [ "single-table-samples"; "no-statistics" ]
  | _ -> Alcotest.fail "expected two rows")

let test_overhead_harness () =
  let config =
    { Rq_experiments.Overhead.default_config with iterations = 3; scale_factor = 0.002 }
  in
  let rows = Rq_experiments.Overhead.run ~config () in
  check_int "three templates" 3 (List.length rows);
  List.iter
    (fun m ->
      check_bool "positive timings" true
        (m.Rq_experiments.Overhead.histogram_ms > 0.0 && m.Rq_experiments.Overhead.robust_ms > 0.0
        && Float.is_finite m.Rq_experiments.Overhead.ratio))
    rows

let test_workbench () =
  let catalog = Lazy.force tpch in
  let scale = Tpch.cost_scale catalog in
  let sqls =
    [
      "SELECT COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN '07/01/97' AND '07/30/97' \
       AND l_receiptdate BETWEEN '08/15/97' AND '09/13/97'";
      "/*+ CONFIDENCE(20) */ SELECT COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN \
       '07/01/97' AND '07/30/97' AND l_receiptdate BETWEEN '11/01/97' AND '11/30/97'";
      "SELECT SUM(l_extendedprice) FROM lineitem, orders, part WHERE p_bucket = 999";
    ]
  in
  match Rq_experiments.Workbench.run ~scale catalog sqls with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      check_int "three queries" 3 (List.length report.Rq_experiments.Workbench.queries);
      check_bool "regret at least 1" true (report.Rq_experiments.Workbench.worst_regret >= 1.0);
      let second = List.nth report.Rq_experiments.Workbench.queries 1 in
      Alcotest.(check (float 1e-9)) "hint honored" 20.0
        second.Rq_experiments.Workbench.threshold_percent;
      let first = List.hd report.Rq_experiments.Workbench.queries in
      Alcotest.(check (float 1e-9)) "default policy (moderate)" 80.0
        first.Rq_experiments.Workbench.threshold_percent;
      check_bool "totals add up" true
        (Float.abs
           (report.Rq_experiments.Workbench.total_seconds
           -. List.fold_left
                (fun acc q -> acc +. q.Rq_experiments.Workbench.simulated_seconds)
                0.0 report.Rq_experiments.Workbench.queries)
        < 1e-6);
      check_bool "bad sql reported" true
        (Result.is_error (Rq_experiments.Workbench.run ~scale catalog [ "SELEC nonsense" ]))

(* ------------------------------------------------------------------ *)
(* The artifact registry behind `robustopt experiment`                 *)
(* ------------------------------------------------------------------ *)

let test_artifact_names_unique () =
  let names = Rq_experiments.Artifacts.names in
  check_int "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* A data line of a figure series: at least two tab-separated numbers. *)
let is_series_line line =
  match String.split_on_char '\t' line with
  | _ :: _ :: _ as fields -> List.for_all (fun f -> Float.of_string_opt f <> None) fields
  | _ -> false

let test_analytical_figures_render () =
  for n = 1 to 8 do
    let name = Printf.sprintf "fig%d" n in
    match Rq_experiments.Artifacts.find name with
    | None -> Alcotest.failf "%s missing from the registry" name
    | Some entry ->
        let out = entry.Rq_experiments.Artifacts.run ~quick:true in
        let header = Printf.sprintf "\n=== Figure %d — " n in
        check_bool (name ^ " header") true
          (String.length out >= String.length header
          && String.sub out 0 (String.length header) = header);
        check_bool (name ^ " has a series line") true
          (List.exists is_series_line (String.split_on_char '\n' out))
  done

let test_unknown_artifact () =
  check_bool "unknown name" true (Rq_experiments.Artifacts.find "fig13" = None);
  check_bool "fuzz is not a registry entry" true (Rq_experiments.Artifacts.find "fuzz" = None)

let () =
  Alcotest.run "integration"
    [
      ( "cross-plan equivalence",
        [
          Alcotest.test_case "Experiment-1 access paths" `Slow test_exp1_cross_plan_equivalence;
          Alcotest.test_case "Experiment-1 vs naive" `Slow test_exp1_matches_naive;
          Alcotest.test_case "Experiment-2 join plans" `Slow test_exp2_cross_plan_equivalence;
          Alcotest.test_case "star-join strategies" `Slow test_star_cross_plan_equivalence;
        ] );
      ( "sql pipeline",
        [
          Alcotest.test_case "hinted 3-way join" `Slow test_sql_pipeline_end_to_end;
          Alcotest.test_case "group by" `Slow test_group_by_pipeline;
        ] );
      ( "experiment harness",
        [
          Alcotest.test_case "single-table experiment" `Slow test_exp_single_table_harness;
          Alcotest.test_case "overhead measurement" `Slow test_overhead_harness;
          Alcotest.test_case "partial statistics (Sec. 3.5)" `Slow test_partial_stats_harness;
          Alcotest.test_case "workbench batch runner" `Slow test_workbench;
        ] );
      ( "artifact registry",
        [
          Alcotest.test_case "names are unique" `Quick test_artifact_names_unique;
          Alcotest.test_case "fig1-fig8 render under quick" `Quick test_analytical_figures_render;
          Alcotest.test_case "unknown name" `Quick test_unknown_artifact;
        ] );
    ]
