open Rq_workload

type config = {
  seed : int;
  repetitions : int;
  sample_sizes : int list;
  offsets : int list;
  scale_factor : float;
}

let default_config =
  {
    seed = 45;
    repetitions = 12;
    sample_sizes = [ 50; 100; 250; 500; 1000; 2500 ];
    offsets = Exp_single_table.default_config.Exp_single_table.offsets;
    scale_factor = 0.01;
  }

let quick_config =
  {
    default_config with
    repetitions = 4;
    sample_sizes = [ 50; 250; 1000 ];
    offsets = [ 30; 50; 65; 80; 90 ];
  }

type point = {
  sample_size : int;
  summary : Rq_math.Summary.t;
  plans : (string * int) list;
}

let run ?(config = default_config) () =
  let rng = Rq_math.Rng.create config.seed in
  let params = { Tpch.default_params with scale_factor = config.scale_factor } in
  let catalog = Tpch.generate (Rq_math.Rng.split rng) ~params () in
  let scale = Tpch.cost_scale catalog in
  let cache = Exp_common.make_cache catalog ~scale in
  List.map
    (fun sample_size ->
      let stats_of_draw = Exp_common.make_stats_of_draw rng ~sample_size catalog in
      let cells =
        List.map
          (fun offset ->
            let query = Tpch.exp1_query ~offset in
            let series =
              Exp_common.run_robust_series ~cache ~stats_of_draw
                ~repetitions:config.repetitions ~thresholds:[ 50.0 ] ~scale query
            in
            snd (List.hd series))
          config.offsets
      in
      let merged = Exp_common.merge_cells cells in
      {
        sample_size;
        summary = Rq_math.Summary.of_array merged.Exp_common.times;
        plans = merged.Exp_common.plans;
      })
    config.sample_sizes
