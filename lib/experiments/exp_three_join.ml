open Rq_workload

type config = {
  seed : int;
  repetitions : int;
  sample_size : int;
  thresholds : float list;
  buckets : int list;
  scale_factor : float;
}

let default_config =
  {
    seed = 43;
    repetitions = 12;
    sample_size = 500;
    thresholds = Exp_common.paper_thresholds;
    buckets = [ 0; 400; 600; 700; 800; 850; 900; 925; 950; 975; 999 ];
    scale_factor = 0.01;
  }

let quick_config = { default_config with repetitions = 4; buckets = [ 0; 700; 850; 950; 999 ] }

let run ?(config = default_config) () =
  let rng = Rq_math.Rng.create config.seed in
  let params = { Tpch.default_params with scale_factor = config.scale_factor } in
  let catalog = Tpch.generate (Rq_math.Rng.split rng) ~params () in
  let scale = Tpch.cost_scale catalog in
  let cache = Exp_common.make_cache catalog ~scale in
  let stats_of_draw =
    Exp_common.make_stats_of_draw rng ~sample_size:config.sample_size catalog
  in
  let baseline_stats = stats_of_draw 0 in
  List.map
    (fun bucket ->
      let query = Tpch.exp2_query ~bucket in
      let robust_series =
        Exp_common.run_robust_series ~cache ~stats_of_draw ~repetitions:config.repetitions
          ~thresholds:config.thresholds ~scale query
      in
      let histogram_cell =
        Exp_common.run_histogram_cell ~cache ~stats:baseline_stats ~scale query
      in
      let oracle_cell = Exp_common.run_oracle_cell ~cache ~catalog ~scale query in
      {
        Exp_common.parameter = float_of_int bucket;
        selectivity = Tpch.exp2_selectivity catalog ~bucket;
        series = robust_series @ [ histogram_cell; oracle_cell ];
      })
    config.buckets

let tradeoff rows = Exp_common.summarize_series rows
