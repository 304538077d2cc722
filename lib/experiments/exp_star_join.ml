open Rq_workload

type config = {
  seed : int;
  repetitions : int;
  sample_size : int;
  thresholds : float list;
  join_fractions : float list;
  fact_rows : int;
  dim_rows : int;
}

let default_config =
  {
    seed = 44;
    repetitions = 12;
    sample_size = 500;
    thresholds = Exp_common.paper_thresholds;
    join_fractions = [ 0.0; 0.0025; 0.005; 0.01; 0.02; 0.04; 0.07; 0.1 ];
    fact_rows = 100_000;
    dim_rows = 1000;
  }

let quick_config =
  {
    default_config with
    repetitions = 4;
    join_fractions = [ 0.0; 0.01; 0.04; 0.1 ];
    fact_rows = 50_000;
  }

let run ?(config = default_config) () =
  let rng = Rq_math.Rng.create config.seed in
  let query = Star.query () in
  List.map
    (fun join_fraction ->
      (* Unlike Experiments 1-2, the sweep parameter changes the *data*:
         regenerate the fact table per point. *)
      let params = { Star.fact_rows = config.fact_rows; dim_rows = config.dim_rows; join_fraction } in
      let catalog = Star.generate (Rq_math.Rng.split rng) ~params () in
      let scale = Star.cost_scale catalog in
      let cache = Exp_common.make_cache catalog ~scale in
      let stats_of_draw =
        Exp_common.make_stats_of_draw rng ~sample_size:config.sample_size catalog
      in
      let robust_series =
        Exp_common.run_robust_series ~cache ~stats_of_draw ~repetitions:config.repetitions
          ~thresholds:config.thresholds ~scale query
      in
      let histogram_cell =
        Exp_common.run_histogram_cell ~cache ~stats:(stats_of_draw 0) ~scale query
      in
      let oracle_cell = Exp_common.run_oracle_cell ~cache ~catalog ~scale query in
      {
        Exp_common.parameter = join_fraction;
        selectivity = Star.true_selectivity catalog;
        series = robust_series @ [ histogram_cell; oracle_cell ];
      })
    config.join_fractions

let tradeoff rows = Exp_common.summarize_series rows
