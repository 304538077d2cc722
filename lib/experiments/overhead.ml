open Rq_workload
open Rq_optimizer

type measurement = {
  query : string;
  histogram_ms : float;
  robust_ms : float;
  degrading_ms : float;
  ratio : float;
}

type config = { seed : int; iterations : int; scale_factor : float; sample_size : int }

let default_config = { seed = 46; iterations = 50; scale_factor = 0.01; sample_size = 500 }

let quick_config = { default_config with iterations = 10 }

let time_per_call ~iterations f =
  (* Warm up once so synopsis lookups and index structures are hot, then
     time DISTINCT queries: optimizing the same text repeatedly would
     mostly measure warm kernel bitmaps and the quantile table.  Histograms
     are built on first use; every iteration of a template names the same
     columns, so the warm-up builds all the histograms the baseline reads
     and the timed calls compare warm statistics on both sides, as when
     they were built at [update_statistics]. *)
  ignore (f 0);
  let t0 = Unix.gettimeofday () in
  for i = 1 to iterations do
    ignore (f i)
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iterations *. 1000.0

let run ?(config = default_config) () =
  let rng = Rq_math.Rng.create config.seed in
  let tpch_params = { Tpch.default_params with scale_factor = config.scale_factor } in
  let tpch = Tpch.generate (Rq_math.Rng.split rng) ~params:tpch_params () in
  let star = Star.generate (Rq_math.Rng.split rng) () in
  let stats_config =
    { Rq_stats.Stats_store.default_config with sample_size = config.sample_size }
  in
  let measure_query name catalog scale query_of =
    let stats =
      Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng) ~config:stats_config
        catalog
    in
    let robust_opt = Optimizer.robust ~scale stats in
    let baseline_opt = Optimizer.baseline ~scale stats in
    (* The degrading chain over healthy statistics answers through an
       internal robust estimator after its health checks, so it should
       track the plain robust estimator — this column is the regression
       check for that claim. *)
    let est =
      Rq_core.Robust_estimator.create
        ~confidence:Rq_core.Confidence.(resolve default_setting) ()
    in
    let degrading_opt = Optimizer.create ~scale stats (Cardinality.degrading stats est) in
    let histogram_ms =
      time_per_call ~iterations:config.iterations (fun i ->
          Optimizer.optimize_exn baseline_opt (query_of i))
    in
    let robust_ms =
      time_per_call ~iterations:config.iterations (fun i ->
          Optimizer.optimize_exn robust_opt (query_of i))
    in
    let degrading_ms =
      time_per_call ~iterations:config.iterations (fun i ->
          Optimizer.optimize_exn degrading_opt (query_of i))
    in
    {
      query = name;
      histogram_ms;
      robust_ms;
      degrading_ms;
      ratio = robust_ms /. Float.max 1e-9 histogram_ms;
    }
  in
  [
    measure_query "exp1-single-table" tpch (Tpch.cost_scale tpch) (fun i ->
        Tpch.exp1_query ~offset:(30 + i));
    measure_query "exp2-three-join" tpch (Tpch.cost_scale tpch) (fun i ->
        Tpch.exp2_query ~bucket:(i mod 1000));
    measure_query "exp3-star-join" star (Star.cost_scale star) (fun i ->
        Star.query ~filter_value:(i mod 10) ());
  ]
