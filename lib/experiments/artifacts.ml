(* The registry behind `robustopt experiment`: one entry per table, figure
   and ablation of the paper's analysis and evaluation sections, each
   rendering its section (header line plus TSV series) as a string. *)

open Rq_analysis

type entry = { name : string; run : quick:bool -> string }

let pf = Printf.bprintf

(* [section name title description body]: an entry whose output opens with
   the "=== title — description ===" header line. *)
let section name title description body =
  let run ~quick =
    let b = Buffer.create 4096 in
    pf b "\n=== %s — %s ===\n" title description;
    body b ~quick;
    Buffer.contents b
  in
  { name; run }

let print_series b ~x_label figure series_list =
  List.iter
    (fun { Figures.label; points } ->
      pf b "# %s series: %s\n" figure label;
      pf b "%s\tvalue\n" x_label;
      List.iter (fun (x, y) -> pf b "%.6g\t%.6g\n" x y) points)
    series_list

(* ------------------------------------------------------------------ *)
(* Figures 1-8: analytical                                             *)
(* ------------------------------------------------------------------ *)

let fig1 b ~quick:_ =
  pf b "crossover at selectivity where plans tie: ~26%%\n";
  print_series b ~x_label:"selectivity" "fig1" (Figures.fig1_cost_vs_selectivity ())

let fig3 b ~quick:_ =
  List.iter
    (fun t ->
      let plan =
        match Figures.fig3_preferred_plan (Rq_core.Confidence.of_percent t) with
        | `Plan1 -> "Plan 1"
        | `Plan2 -> "Plan 2"
      in
      pf b "preferred plan at T=%g%%: %s\n" t plan)
    [ 50.0; 60.0; 64.0; 66.0; 70.0; 80.0 ];
  print_series b ~x_label:"cost" "fig3" (Figures.fig3_cost_cdf ())

let fig5 b ~quick:_ =
  pf b "crossover of the cost model: %.4f%%\n" (100.0 *. Model.crossover Model.paper_model);
  print_series b ~x_label:"selectivity" "fig5" (Figures.fig5_confidence_sweep ())

let fig6 b ~quick:_ =
  pf b "threshold%%\tavg_time\tstd_dev\n";
  List.iter
    (fun (t, summary) ->
      pf b "%g\t%.3f\t%.3f\n" t summary.Rq_math.Summary.mean summary.Rq_math.Summary.std_dev)
    (Figures.fig6_tradeoff ())

let fig8 b ~quick:_ =
  pf b "crossover of the perturbed model: %.2f%%\n"
    (100.0 *. Model.crossover Model.high_crossover_model);
  print_series b ~x_label:"selectivity" "fig8" (Figures.fig8_high_crossover ())

let series ~x_label figure data b ~quick:_ = print_series b ~x_label figure (data ())

(* ------------------------------------------------------------------ *)
(* Figures 9-12 and the Section-6.1 overhead table: empirical          *)
(* ------------------------------------------------------------------ *)

let config_of ~quick default quick_config = if quick then quick_config else default

(* The (a) selectivity-vs-time table with its plan mix, then the (b)
   performance-vs-predictability table. *)
let empirical b figure rows tradeoff =
  pf b "-- Figure %s(a): selectivity vs. time\n" figure;
  Buffer.add_string b (Report.rows_table rows);
  Buffer.add_string b (Report.plan_mix rows);
  pf b "-- Figure %s(b): performance vs. predictability\n" figure;
  Buffer.add_string b (Report.tradeoff_table (tradeoff rows))

let fig9 b ~quick =
  let open Exp_single_table in
  empirical b "9" (run ~config:(config_of ~quick default_config quick_config) ()) tradeoff

let fig10 b ~quick =
  let open Exp_three_join in
  empirical b "10" (run ~config:(config_of ~quick default_config quick_config) ()) tradeoff

let fig11 b ~quick =
  let open Exp_star_join in
  empirical b "11" (run ~config:(config_of ~quick default_config quick_config) ()) tradeoff

let fig12 b ~quick =
  Exp_sample_size.(run ~config:(config_of ~quick default_config quick_config) ())
  |> Report.sample_size_table |> Buffer.add_string b

let overhead b ~quick =
  Overhead.(run ~config:(config_of ~quick default_config quick_config) ())
  |> Report.overhead_table |> Buffer.add_string b

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices called out in DESIGN.md             *)
(* ------------------------------------------------------------------ *)

let ablation_prior b ~quick:_ =
  pf b "k/n\tT%%\tJeffreys\tuniform\tdelta\n";
  List.iter
    (fun (k, n) ->
      List.iter
        (fun t ->
          let confidence = Rq_core.Confidence.of_percent t in
          let est prior =
            Rq_core.Robust_estimator.estimate
              (Rq_core.Robust_estimator.create ~prior ~confidence ())
              ~successes:k ~trials:n
          in
          let j = est Rq_core.Prior.Jeffreys and u = est Rq_core.Prior.Uniform in
          pf b "%d/%d\t%g\t%.5f\t%.5f\t%.5f\n" k n t j u (Float.abs (j -. u)))
        [ 50.0; 80.0 ])
    [ (0, 10); (1, 10); (10, 100); (50, 500) ]

let ablation_cost_transfer b ~quick:_ =
  let posterior = Figures.example_posterior in
  pf b "plan\tT%%\tfast_path\texplicit\tabs_diff\n";
  List.iter
    (fun (name, g) ->
      List.iter
        (fun t ->
          let confidence = Rq_core.Confidence.of_percent t in
          let fast =
            Rq_core.Cost_transfer.cost_percentile ~cost_of_selectivity:g posterior confidence
          in
          let explicit =
            Rq_core.Cost_transfer.cost_cdf_inverse ~cost_of_selectivity:g posterior (t /. 100.0)
          in
          pf b "%s\t%g\t%.4f\t%.4f\t%.2e\n" name t fast explicit (Float.abs (fast -. explicit)))
        [ 20.0; 50.0; 80.0; 95.0 ])
    [ ("Plan1", Figures.example_plan_1); ("Plan2", Figures.example_plan_2) ]

let ablation_estimate_kind b ~quick:_ =
  pf b "k/n\tML\tpost_mean\tT=50%%\tT=80%%\tT=95%%\n";
  List.iter
    (fun (k, n) ->
      let q t =
        Rq_core.Robust_estimator.estimate
          (Rq_core.Robust_estimator.create ~confidence:(Rq_core.Confidence.of_percent t) ())
          ~successes:k ~trials:n
      in
      pf b "%d/%d\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\n" k n
        (Rq_core.Robust_estimator.maximum_likelihood_estimate ~successes:k ~trials:n)
        (Rq_core.Robust_estimator.expected_value_estimate ~successes:k ~trials:n ())
        (q 50.0) (q 80.0) (q 95.0))
    [ (0, 500); (1, 500); (5, 500); (50, 500) ]

let fig1_empirical b ~quick:_ =
  let rng = Rq_math.Rng.create 13 in
  let catalog = Rq_workload.Tpch.generate (Rq_math.Rng.split rng) () in
  let scale = Rq_workload.Tpch.cost_scale catalog in
  let pred = Rq_workload.Tpch.exp1_query ~offset:60 in
  let table_ref = List.hd pred.Rq_optimizer.Logical.tables in
  let plans = Rq_optimizer.Enumerate.access_paths catalog table_ref in
  let selectivities = List.init 21 (fun i -> float_of_int i /. 2000.0) in
  List.iter
    (fun plan ->
      pf b "# plan: %s\n" (Rq_exec.Plan.describe plan);
      pf b "selectivity\tcost\n";
      List.iter
        (fun (s, c) -> pf b "%.5f\t%.3f\n" s c)
        (Rq_optimizer.Costing.cost_curve catalog ~scale ~selectivities plan))
    plans;
  let find_plan p = List.find_opt p plans in
  match
    ( find_plan (function
        | Rq_exec.Plan.Scan { access = Rq_exec.Plan.Seq_scan; _ } -> true
        | _ -> false),
      find_plan (function
        | Rq_exec.Plan.Scan { access = Rq_exec.Plan.Index_intersect _; _ } -> true
        | _ -> false) )
  with
  | Some scan, Some isect ->
      let crossings = Rq_optimizer.Costing.crossover_points catalog ~scale ~grid:4000 scan isect in
      pf b "crossover(s) between %s and %s: %s (analytical model: 0.143%%)\n"
        (Rq_exec.Plan.describe scan) (Rq_exec.Plan.describe isect)
        (String.concat ", " (List.map (fun s -> Printf.sprintf "%.4f%%" (100.0 *. s)) crossings))
  | _ -> ()

let ablation_lec b ~quick:_ =
  let selectivities = Figures.default_workload_selectivities in
  let line label rule =
    let s =
      Model.cost_over_workload_rule Model.paper_model ~sample_size:1000 ~rule ~selectivities
    in
    pf b "%-24s %10.3f %10.3f\n" label s.Rq_math.Summary.mean s.Rq_math.Summary.std_dev
  in
  pf b "%-24s %10s %10s\n" "rule" "avg_time" "std_dev";
  List.iter
    (fun t -> line (Printf.sprintf "T=%g%%" t) (Model.At_confidence (Rq_core.Confidence.of_percent t)))
    [ 5.0; 20.0; 50.0; 80.0; 95.0 ];
  line "posterior-mean (LEC)" Model.Posterior_mean;
  line "maximum-likelihood" Model.Maximum_likelihood

let ablation_partial_stats b ~quick =
  Exp_partial_stats.(run ~config:(config_of ~quick default_config quick_config) ())
  |> Report.partial_stats_table |> Buffer.add_string b

let ablation_synopses b ~quick:_ =
  let rng = Rq_math.Rng.create 7 in
  let catalog = Rq_workload.Tpch.generate (Rq_math.Rng.split rng) () in
  let estimator = Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.median () in
  let draws = 10 in
  let estimator_triples =
    List.init draws (fun _ ->
        let stats = Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng) catalog in
        ( Rq_optimizer.Cardinality.robust stats estimator,
          Rq_optimizer.Cardinality.sample_avi stats estimator,
          Rq_optimizer.Cardinality.histogram_avi stats ))
  in
  pf b "p_bucket\ttrue_rows\trobust\tsample_avi\thistogram_avi\n";
  List.iter
    (fun bucket ->
      let refs = (Rq_workload.Tpch.exp2_query ~bucket).Rq_optimizer.Logical.tables in
      let truth = Rq_optimizer.Naive.cardinality catalog refs in
      let mean select =
        List.fold_left
          (fun acc triple ->
            acc +. (select triple).Rq_optimizer.Cardinality.expression_cardinality refs)
          0.0 estimator_triples
        /. float_of_int draws
      in
      pf b "%d\t%d\t%.1f\t%.1f\t%.1f\n" bucket truth
        (mean (fun (r, _, _) -> r))
        (mean (fun (_, a, _) -> a))
        (mean (fun (_, _, h) -> h)))
    [ 0; 700; 900; 975; 999 ]

let ablation_ml_empirical b ~quick =
  let rng = Rq_math.Rng.create 19 in
  let catalog = Rq_workload.Tpch.generate (Rq_math.Rng.split rng) () in
  let scale = Rq_workload.Tpch.cost_scale catalog in
  let cache = Exp_common.make_cache catalog ~scale in
  (* 50-tuple samples: the posterior is too wide to clear the crossover, so
     the robust estimator refuses the risky plan (the paper's Fig.-12
     anomaly); maximum likelihood sees k = 0 as certainty and gambles. *)
  let stats_of_draw = Exp_common.make_stats_of_draw rng ~sample_size:50 catalog in
  let repetitions = if quick then 4 else 12 in
  let offsets = if quick then [ 30; 65; 90 ] else [ 30; 50; 65; 75; 85; 90 ] in
  let rows =
    List.map
      (fun offset ->
        let query = Rq_workload.Tpch.exp1_query ~offset in
        let robust_series =
          Exp_common.run_robust_series ~cache ~stats_of_draw ~repetitions
            ~thresholds:[ 50.0 ] ~scale query
        in
        let ml_cell =
          Exp_common.run_estimator_series ~cache ~stats_of_draw ~repetitions ~label:"sample-ML"
            ~make:Rq_optimizer.Cardinality.sample_ml ~scale query
        in
        {
          Exp_common.parameter = float_of_int offset;
          selectivity = Rq_workload.Tpch.exp1_selectivity catalog ~offset;
          series = robust_series @ [ ml_cell ];
        })
      offsets
  in
  Buffer.add_string b (Report.rows_table rows);
  Buffer.add_string b (Report.tradeoff_table (Exp_common.summarize_series rows))

let ablation_staleness b ~quick:_ =
  let rng = Rq_math.Rng.create 17 in
  let params = { Rq_workload.Tpch.default_params with scale_factor = 0.005 } in
  let catalog = Rq_workload.Tpch.generate (Rq_math.Rng.split rng) ~params () in
  let maintained =
    Rq_stats.Maintenance.create ~refresh_fraction:0.15 (Rq_math.Rng.split rng) catalog
  in
  let stale_stats = Rq_stats.Maintenance.stats maintained in
  let estimator = Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.median () in
  let refs = (Rq_workload.Tpch.exp2_query ~bucket:999).Rq_optimizer.Logical.tables in
  let estimate stats =
    (Rq_optimizer.Cardinality.robust stats estimator).Rq_optimizer.Cardinality.expression_cardinality
      refs
  in
  let buckets = Rq_workload.Tpch.default_params.Rq_workload.Tpch.part_buckets in
  let drift_rng = Rq_math.Rng.split rng in
  pf b "batch\ttrue_rows\tnever_refreshed\tmaintained\trefreshed?\n";
  for batch = 1 to 6 do
    (* Each batch repoints 10% of lineitems at bucket-999 parts: the hot
       set concentrates, drifting the joint distribution the initial
       sample captured. *)
    Rq_stats.Maintenance.apply_update maintained ~table:"lineitem" (fun rows ->
        Array.map
          (fun tup ->
            if Rq_math.Rng.float drift_rng 1.0 < 0.1 then begin
              let parts_per_bucket =
                Rq_storage.Relation.row_count (Rq_storage.Catalog.find_table catalog "part")
                / buckets
              in
              let hot = 999 + (buckets * Rq_math.Rng.int drift_rng parts_per_bucket) in
              let updated = Array.copy tup in
              updated.(2) <- Rq_storage.Value.Int hot;
              updated
            end
            else tup)
          rows);
    let refreshed = Rq_stats.Maintenance.maybe_refresh maintained in
    let truth = Rq_optimizer.Naive.cardinality catalog refs in
    pf b "%d\t%d\t%.1f\t%.1f\t%s\n" batch truth (estimate stale_stats)
      (estimate (Rq_stats.Maintenance.stats maintained))
      (if refreshed then "yes" else "no")
  done

let reopt b ~quick =
  Exp_reopt.(run ~config:(config_of ~quick default_config quick_config) ())
  |> Exp_reopt.render |> Buffer.add_string b

(* ------------------------------------------------------------------ *)

let all =
  [
    section "fig1" "Figure 1" "execution cost of two hypothetical plans vs. selectivity" fig1;
    section "fig1-empirical" "Figure 1 (empirical)"
      "cost-vs-selectivity curves of the engine's own plans" fig1_empirical;
    section "fig2" "Figure 2" "probability density of execution cost (k=50 of n=200)"
      (series ~x_label:"cost" "fig2" Figures.fig2_cost_pdf);
    section "fig3" "Figure 3" "cumulative probability of execution cost" fig3;
    section "fig4" "Figure 4" "sample size matters, prior doesn't (posterior densities)"
      (series ~x_label:"selectivity" "fig4" Figures.fig4_prior_comparison);
    section "fig5" "Figure 5" "effect of the confidence threshold (n=1000, analytical)" fig5;
    section "fig6" "Figure 6" "performance vs. predictability trade-off (analytical)" fig6;
    section "fig7" "Figure 7" "effect of sample size (T=50%, analytical)"
      (series ~x_label:"selectivity" "fig7" Figures.fig7_sample_size_sweep);
    section "fig8" "Figure 8" "crossover at higher selectivity (~5.2%)" fig8;
    section "fig9" "Figure 9" "Experiment 1: two-predicate lineitem query (empirical)" fig9;
    section "fig10" "Figure 10" "Experiment 2: three-table join (empirical)" fig10;
    section "fig11" "Figure 11" "Experiment 3: four-table star join (empirical)" fig11;
    section "fig12" "Figure 12" "Experiment 4: effect of sample size (empirical, T=50%)" fig12;
    section "overhead" "Table: estimation overhead (Sec. 6.1)"
      "optimization time, histogram vs. robust sampling" overhead;
    section "ablation-prior" "Ablation: prior choice"
      "Jeffreys vs. uniform estimates at tiny samples" ablation_prior;
    section "ablation-lec" "Ablation: estimation rule vs. the Figure-6 frontier"
      "confidence thresholds vs. posterior-mean (least-expected-cost) vs. max-likelihood"
      ablation_lec;
    section "ablation-partial-stats" "Ablation: degraded statistics (Sec. 3.5)"
      "three-join estimates under full synopses / single-table samples / no statistics"
      ablation_partial_stats;
    section "ablation-staleness" "Ablation: statistics staleness (Sec. 3.2 maintenance)"
      "drifting part popularity under never-refresh vs. threshold-triggered refresh"
      ablation_staleness;
    section "ablation-ml-empirical"
      "Ablation: Bayesian interpretation vs. maximum likelihood (empirical)"
      "Experiment-1 sweep with 50-tuple synopses: robust T=50% self-adjusts, k/n gambles"
      ablation_ml_empirical;
    section "ablation-cost-transfer" "Ablation: cost-transfer equivalence"
      "g(quantile T) vs. percentile of the explicit cost distribution" ablation_cost_transfer;
    section "ablation-estimate-kind"
      "Ablation: percentile vs. posterior-mean vs. maximum-likelihood"
      "single-value estimates from the same evidence" ablation_estimate_kind;
    section "ablation-synopses" "Ablation: join synopses vs. per-table samples with AVI"
      "three-join cardinality estimates against the truth (mean over 10 sample draws)"
      ablation_synopses;
    section "reopt" "Guard rescue"
      "misestimated plan vs. cardinality guards with mid-query re-optimization" reopt;
  ]

let names = List.map (fun e -> e.name) all
let find name = List.find_opt (fun e -> e.name = name) all
