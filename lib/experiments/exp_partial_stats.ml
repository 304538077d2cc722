open Rq_workload
open Rq_optimizer

type tier = Full_synopses | Single_table_samples | No_statistics

let tier_label = function
  | Full_synopses -> "full-synopses"
  | Single_table_samples -> "single-table-samples"
  | No_statistics -> "no-statistics"

type row = {
  bucket : int;
  true_rows : int;
  estimates : (string * float) list;
}

type config = { seed : int; sample_size : int; scale_factor : float; buckets : int list }

let default_config =
  { seed = 47; sample_size = 500; scale_factor = 0.01; buckets = [ 0; 700; 900; 975; 999 ] }

let quick_config = { default_config with scale_factor = 0.003 }

let stats_config_of base = function
  | Full_synopses -> base
  | Single_table_samples -> { base with Rq_stats.Stats_store.follow_foreign_keys = false }
  | No_statistics -> { base with Rq_stats.Stats_store.synopsis_roots = Some [] }

let run ?(config = default_config) () =
  let rng = Rq_math.Rng.create config.seed in
  let params = { Tpch.default_params with scale_factor = config.scale_factor } in
  let catalog = Tpch.generate (Rq_math.Rng.split rng) ~params () in
  let base =
    { Rq_stats.Stats_store.default_config with sample_size = config.sample_size }
  in
  let estimator = Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.median () in
  let tiers = [ Full_synopses; Single_table_samples; No_statistics ] in
  let estimators =
    List.map
      (fun tier ->
        let stats =
          Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng)
            ~config:(stats_config_of base tier) catalog
        in
        (tier_label tier, Cardinality.robust stats estimator))
      tiers
  in
  List.map
    (fun bucket ->
      let refs = (Tpch.exp2_query ~bucket).Logical.tables in
      {
        bucket;
        true_rows = Naive.cardinality catalog refs;
        estimates =
          List.map
            (fun (label, est) -> (label, est.Cardinality.expression_cardinality refs))
            estimators;
      })
    config.buckets
