(* robustopt — command-line front end.

   Subcommands:
     explain     parse + optimize a SQL query, print the chosen plan
     run         optimize, execute, print results and simulated time
     estimate    compare selectivity estimates (robust / AVI / truth)
     analyze     print an analytical figure's data series (fig1..fig8)

   Workloads are generated in-memory from a seed: --workload tpch | star. *)

open Cmdliner
open Rq_optimizer

let generate_workload ~workload ~seed ~scale =
  let rng = Rq_math.Rng.create seed in
  match workload with
  | "tpch" ->
      let params = { Rq_workload.Tpch.default_params with scale_factor = scale } in
      let catalog = Rq_workload.Tpch.generate rng ~params () in
      (catalog, Rq_workload.Tpch.cost_scale catalog)
  | "star" ->
      let catalog = Rq_workload.Star.generate rng () in
      (catalog, Rq_workload.Star.cost_scale catalog)
  | other -> failwith (Printf.sprintf "unknown workload %S (expected tpch or star)" other)

(* A --data-dir overrides the generated workload; user data runs at scale 1
   (its costs are whatever its actual size implies). *)
let obtain_catalog ~workload ~seed ~scale ~data_dir =
  match data_dir with
  | Some dir -> (
      match Rq_sql.Loader.load_directory dir with
      | Ok catalog -> (catalog, 1.0)
      | Error msg -> failwith (Printf.sprintf "loading %s: %s" dir msg))
  | None -> generate_workload ~workload ~seed ~scale

let build_stats ~seed ~sample_size catalog =
  Rq_stats.Stats_store.update_statistics
    (Rq_math.Rng.create (seed + 1))
    ~config:{ Rq_stats.Stats_store.default_config with sample_size }
    catalog

let make_optimizer ~estimator ~confidence ~scale stats =
  match estimator with
  | "robust" -> Optimizer.robust ~scale ~confidence stats
  | "histogram" -> Optimizer.baseline ~scale stats
  | other -> failwith (Printf.sprintf "unknown estimator %S (expected robust or histogram)" other)

let compile_sql catalog sql =
  match Rq_sql.Binder.compile catalog sql with
  | Ok bound -> bound
  | Error msg -> failwith ("SQL error: " ^ msg)

let resolve_confidence ~confidence ~hint =
  match hint with
  | Some h -> h
  | None -> Rq_core.Confidence.of_percent confidence

(* ---------------- common flags ---------------- *)

let workload_arg =
  Arg.(value & opt string "tpch" & info [ "workload"; "w" ] ~doc:"Workload: tpch or star.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.")

let scale_arg =
  Arg.(value & opt float 0.01 & info [ "scale" ] ~doc:"TPC-H scale factor (1.0 = 6M lineitems).")

let sample_arg =
  Arg.(value & opt int 500 & info [ "sample-size" ] ~doc:"Synopsis sample size.")

let confidence_arg =
  Arg.(value & opt float 80.0 & info [ "confidence"; "t" ]
       ~doc:"Confidence threshold percent (overridden by a /*+ CONFIDENCE(n) */ hint).")

let estimator_arg =
  Arg.(value & opt string "robust" & info [ "estimator"; "e" ]
       ~doc:"Cardinality estimator: robust or histogram.")

let sql_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let data_dir_arg =
  Arg.(value & opt (some string) None & info [ "data-dir"; "d" ]
       ~doc:"Directory with schema.sql + <table>.csv files (overrides --workload).")

let fault_profile_arg =
  Arg.(value & opt (some string) None & info [ "fault-profile" ]
       ~doc:(Printf.sprintf
               "Damage the statistics store before optimizing (one of %s); estimation then \
                falls back down the degradation chain, reporting each tier transition."
               (String.concat ", " Rq_stats.Fault.profile_names)))

let reopt_threshold_arg =
  Arg.(value & opt (some float) None & info [ "reopt-threshold" ]
       ~doc:"Place cardinality guards in the plan with this q-error threshold (>= 1.0); a \
             violation aborts the pipeline and re-optimizes mid-query over the materialized \
             intermediate.")

let opt_budget_arg =
  Arg.(value & opt (some int) None & info [ "opt-budget" ]
       ~doc:"Cap on candidate-cost evaluations during plan search; when exceeded the \
             optimizer answers with the deterministic left-deep fallback plan.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ]
       ~doc:"After execution, print the trace-event log (guards, re-optimization, \
             degradations) and the per-operator span tree with simulated-cost deltas.")

let metrics_json_arg =
  Arg.(value & flag & info [ "metrics-json" ]
       ~doc:"After execution, print the spans and trace events as one JSON object.")

let make_recorder ~trace ~metrics_json =
  if trace || metrics_json then Some (Rq_obs.Recorder.create ()) else None

(* Bench commands surface input/configuration failures as a one-line
   message naming the failing query, and exit nonzero — not a backtrace. *)
let with_bench_errors f =
  try f ()
  with Rq_experiments.Exp_common.Bench_error { context; message } ->
    Printf.eprintf "bench failed at %s: %s\n" context message;
    exit 1

(* Evidence-kernel counters summed over every live synopsis in the store:
   the optimizer-side work (bitmaps built vs. hit, sample rows scanned vs.
   avoided) that spans and cost meters do not see. *)
let kernel_totals stats =
  List.fold_left
    (fun acc root ->
      match Rq_stats.Stats_store.synopsis stats ~root with
      | None -> acc
      | Some syn -> Rq_obs.Metrics.kernel_add acc (Rq_stats.Join_synopsis.kernel_stats syn))
    Rq_obs.Metrics.kernel_zero
    (Rq_stats.Stats_store.synopsis_roots stats)

let print_observability ~kernel ~trace ~metrics_json recorder =
  match recorder with
  | None -> ()
  | Some r ->
      if trace then begin
        print_string (Rq_obs.Recorder.render_events (Rq_obs.Recorder.events r));
        print_string (Rq_obs.Recorder.render_spans (Rq_obs.Recorder.roots r));
        if kernel.Rq_obs.Metrics.evidence_queries > 0 then
          Format.printf "evidence kernel: %a@." Rq_obs.Metrics.pp_kernel kernel
      end;
      if metrics_json then begin
        let json =
          match Rq_obs.Recorder.to_json r with
          | Rq_obs.Json.Obj fields ->
              Rq_obs.Json.Obj (fields @ [ ("kernel", Rq_obs.Metrics.kernel_to_json kernel) ])
          | json -> json
        in
        print_endline (Rq_obs.Json.to_string json)
      end

let check_reopt_threshold = function
  | Some t when t < 1.0 ->
      failwith (Printf.sprintf "--reopt-threshold must be >= 1.0 (a q-error), got %g" t)
  | _ -> ()

(* Apply --fault-profile: damage a copy of the stats and switch to the
   graceful-degradation estimation chain over the damaged store. *)
let apply_fault_profile ?obs ~seed ~confidence ~cost_scale ~profile stats =
  match profile with
  | None -> None
  | Some p ->
      let rng = Rq_math.Rng.create (seed + 7) in
      (match Rq_stats.Fault.profile_injections rng stats p with
      | Error msg -> failwith msg
      | Ok injections ->
          List.iter
            (fun i -> Printf.printf "fault: %s\n" (Rq_stats.Fault.injection_to_string i))
            injections;
          let damaged = Rq_stats.Fault.apply rng stats injections in
          let estimator =
            Cardinality.degrading
              ~log:(fun e ->
                Printf.printf "degraded: %s\n" (Rq_stats.Fault.event_to_string e))
              ?obs damaged
              (Rq_core.Robust_estimator.create ~confidence ())
          in
          Some (Optimizer.create ~scale:cost_scale damaged estimator))

let print_degradations decision =
  List.iter
    (fun e -> Printf.printf "degraded: %s\n" (Rq_stats.Fault.event_to_string e))
    decision.Optimizer.degraded

(* ---------------- explain ---------------- *)

let explain_cmd =
  let analyze_arg =
    Arg.(value & flag & info [ "analyze" ]
         ~doc:"Also execute the plan and report per-node estimated vs. actual rows.")
  in
  let run workload seed scale sample_size confidence estimator analyze data_dir fault_profile
      reopt_threshold opt_budget trace metrics_json sql =
    check_reopt_threshold reopt_threshold;
    let catalog, cost_scale = obtain_catalog ~workload ~seed ~scale ~data_dir in
    let stats = build_stats ~seed ~sample_size catalog in
    let bound = compile_sql catalog sql in
    let confidence = resolve_confidence ~confidence ~hint:bound.Rq_sql.Binder.confidence_hint in
    let recorder = make_recorder ~trace ~metrics_json in
    let opt =
      match
        apply_fault_profile ?obs:recorder ~seed ~confidence ~cost_scale ~profile:fault_profile
          stats
      with
      | Some damaged_opt -> damaged_opt
      | None -> make_optimizer ~estimator ~confidence ~scale:cost_scale stats
    in
    Printf.printf "confidence threshold: %g%%\n" (Rq_core.Confidence.to_percent confidence);
    (match Optimizer.explain opt bound.Rq_sql.Binder.query with
    | Ok report -> print_string report
    | Error msg -> failwith msg);
    if analyze then begin
      let decision =
        match
          Optimizer.optimize ?budget:opt_budget
            ?record:(Option.map Rq_obs.Recorder.record recorder)
            opt bound.Rq_sql.Binder.query
        with
        | Ok d -> d
        | Error msg -> failwith msg
      in
      print_degradations decision;
      (* With a guard threshold, EXPLAIN ANALYZE shows each checkpoint and
         whether it would have fired. *)
      let plan =
        match reopt_threshold with
        | None -> decision.Optimizer.plan
        | Some threshold -> Reopt.instrument ~threshold opt decision.Optimizer.plan
      in
      print_newline ();
      let report =
        Explain_analyze.analyze catalog ~scale:cost_scale ?obs:recorder
          (Optimizer.estimator opt) plan
      in
      print_string (Explain_analyze.render_report report);
      print_observability ~kernel:(kernel_totals stats) ~trace ~metrics_json recorder
    end
  in
  let term =
    Term.(const run $ workload_arg $ seed_arg $ scale_arg $ sample_arg $ confidence_arg
          $ estimator_arg $ analyze_arg $ data_dir_arg $ fault_profile_arg
          $ reopt_threshold_arg $ opt_budget_arg $ trace_arg $ metrics_json_arg
          $ sql_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Optimize a SQL query and print the chosen plan (optionally EXPLAIN ANALYZE).")
    term

(* ---------------- run ---------------- *)

let print_result_rows result =
  let columns =
    Rq_storage.Schema.columns result.Rq_exec.Executor.schema
    |> List.map (fun c -> c.Rq_storage.Schema.name)
  in
  Printf.printf "%s\n" (String.concat "\t" columns);
  let shown = min 20 (Array.length result.Rq_exec.Executor.tuples) in
  for i = 0 to shown - 1 do
    let row = result.Rq_exec.Executor.tuples.(i) in
    print_endline
      (String.concat "\t"
         (Array.to_list (Array.map Rq_storage.Value.to_string row)))
  done;
  if Array.length result.Rq_exec.Executor.tuples > shown then
    Printf.printf "... (%d rows total)\n" (Array.length result.Rq_exec.Executor.tuples)

let run_cmd =
  let run workload seed scale sample_size confidence estimator data_dir fault_profile
      reopt_threshold opt_budget trace metrics_json sql =
    check_reopt_threshold reopt_threshold;
    let catalog, cost_scale = obtain_catalog ~workload ~seed ~scale ~data_dir in
    let stats = build_stats ~seed ~sample_size catalog in
    let bound = compile_sql catalog sql in
    let confidence = resolve_confidence ~confidence ~hint:bound.Rq_sql.Binder.confidence_hint in
    let recorder = make_recorder ~trace ~metrics_json in
    let opt =
      match
        apply_fault_profile ?obs:recorder ~seed ~confidence ~cost_scale ~profile:fault_profile
          stats
      with
      | Some damaged_opt -> damaged_opt
      | None -> make_optimizer ~estimator ~confidence ~scale:cost_scale stats
    in
    let query = bound.Rq_sql.Binder.query in
    let decision =
      match
        Optimizer.optimize ?budget:opt_budget
          ?record:(Option.map Rq_obs.Recorder.record recorder)
          opt query
      with
      | Ok d -> d
      | Error msg -> failwith msg
    in
    print_degradations decision;
    (match reopt_threshold with
    | None ->
        let meter = Rq_exec.Cost.create ~scale:cost_scale () in
        let result =
          Rq_exec.Executor.run ?obs:recorder catalog meter decision.Optimizer.plan
        in
        let snapshot = Rq_exec.Cost.snapshot meter in
        Printf.printf "plan: %s\n" (Rq_exec.Plan.describe decision.Optimizer.plan);
        Format.printf "estimated cost: %.3f s; simulated execution: %a@."
          decision.Optimizer.estimated_cost Rq_exec.Cost.pp_snapshot snapshot;
        print_result_rows result
    | Some threshold ->
        let outcome =
          Reopt.execute_plan ~threshold ?obs:recorder opt query decision.Optimizer.plan
        in
        Printf.printf "initial plan: %s\n"
          (Rq_exec.Plan.describe outcome.Reopt.initial_plan);
        print_string (Reopt.render_events outcome.Reopt.events);
        if outcome.Reopt.reoptimizations > 0 then
          Printf.printf "final plan: %s\n" (Rq_exec.Plan.describe outcome.Reopt.final_plan);
        Format.printf "simulated execution (incl. wasted work): %a@."
          Rq_exec.Cost.pp_snapshot outcome.Reopt.snapshot;
        print_result_rows outcome.Reopt.result);
    print_observability ~kernel:(kernel_totals stats) ~trace ~metrics_json recorder
  in
  let term =
    Term.(const run $ workload_arg $ seed_arg $ scale_arg $ sample_arg $ confidence_arg
          $ estimator_arg $ data_dir_arg $ fault_profile_arg $ reopt_threshold_arg
          $ opt_budget_arg $ trace_arg $ metrics_json_arg $ sql_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Optimize and execute a SQL query, optionally with cardinality guards \
             (--reopt-threshold), injected statistics faults (--fault-profile), or an \
             optimization budget (--opt-budget).")
    term

(* ---------------- estimate ---------------- *)

let estimate_cmd =
  let run workload seed scale sample_size data_dir sql =
    let catalog, _ = obtain_catalog ~workload ~seed ~scale ~data_dir in
    let stats = build_stats ~seed ~sample_size catalog in
    let bound = compile_sql catalog sql in
    let refs = bound.Rq_sql.Binder.query.Logical.tables in
    let truth = Naive.cardinality catalog refs in
    Printf.printf "true cardinality: %d rows\n" truth;
    Printf.printf "%-14s %12s\n" "estimator" "rows";
    let hist = Cardinality.histogram_avi stats in
    Printf.printf "%-14s %12.1f\n" "histogram-AVI"
      (hist.Cardinality.expression_cardinality refs);
    List.iter
      (fun t ->
        let estimator =
          Rq_core.Robust_estimator.create
            ~confidence:(Rq_core.Confidence.of_percent t) ()
        in
        let robust = Cardinality.robust stats estimator in
        Printf.printf "%-14s %12.1f\n"
          (Printf.sprintf "robust T=%g%%" t)
          (robust.Cardinality.expression_cardinality refs))
      [ 5.0; 20.0; 50.0; 80.0; 95.0 ]
  in
  let term =
    Term.(const run $ workload_arg $ seed_arg $ scale_arg $ sample_arg $ data_dir_arg $ sql_arg)
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Compare cardinality estimates against the true cardinality.")
    term

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let figure_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE"
         ~doc:"One of fig1..fig8.")
  in
  let run figure =
    let print_series series =
      List.iter
        (fun { Rq_analysis.Figures.label; points } ->
          Printf.printf "# %s\n" label;
          List.iter (fun (x, y) -> Printf.printf "%.6g\t%.6g\n" x y) points)
        series
    in
    match figure with
    | "fig1" -> print_series (Rq_analysis.Figures.fig1_cost_vs_selectivity ())
    | "fig2" -> print_series (Rq_analysis.Figures.fig2_cost_pdf ())
    | "fig3" -> print_series (Rq_analysis.Figures.fig3_cost_cdf ())
    | "fig4" -> print_series (Rq_analysis.Figures.fig4_prior_comparison ())
    | "fig5" -> print_series (Rq_analysis.Figures.fig5_confidence_sweep ())
    | "fig6" ->
        List.iter
          (fun (t, s) ->
            Printf.printf "%g\t%.3f\t%.3f\n" t s.Rq_math.Summary.mean s.Rq_math.Summary.std_dev)
          (Rq_analysis.Figures.fig6_tradeoff ())
    | "fig7" -> print_series (Rq_analysis.Figures.fig7_sample_size_sweep ())
    | "fig8" -> print_series (Rq_analysis.Figures.fig8_high_crossover ())
    | other -> failwith (Printf.sprintf "unknown figure %S" other)
  in
  let term = Term.(const run $ figure_arg) in
  Cmd.v (Cmd.info "analyze" ~doc:"Print an analytical figure's data series.") term

(* ---------------- batch ---------------- *)

let batch_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"File with one SQL query per line (blank lines and -- comments skipped).")
  in
  let policy_arg =
    Arg.(value & opt string "moderate" & info [ "policy" ]
         ~doc:"System robustness policy: conservative, moderate or aggressive.")
  in
  let run workload seed scale sample_size data_dir policy file =
    let catalog, cost_scale = obtain_catalog ~workload ~seed ~scale ~data_dir in
    let setting =
      match Rq_core.Confidence.policy_of_string policy with
      | Ok p -> { Rq_core.Confidence.system_default = Rq_core.Confidence.of_policy p }
      | Error msg -> failwith msg
    in
    let ic = open_in file in
    let sqls = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         let is_comment = String.length line >= 2 && String.sub line 0 2 = "--" in
         if line <> "" && not is_comment then sqls := line :: !sqls
       done
     with End_of_file -> close_in ic);
    match
      Rq_experiments.Workbench.run ~setting ~sample_size ~seed ~scale:cost_scale catalog
        (List.rev !sqls)
    with
    | Ok report -> print_string (Rq_experiments.Workbench.render report)
    | Error msg -> failwith msg
  in
  let term =
    Term.(const run $ workload_arg $ seed_arg $ scale_arg $ sample_arg $ data_dir_arg
          $ policy_arg $ file_arg)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run a file of SQL queries under a robustness policy and report regret.")
    term

(* ---------------- export ---------------- *)

let export_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
         ~doc:"Target directory (must exist).")
  in
  let run workload seed scale dir =
    let catalog, _ = generate_workload ~workload ~seed ~scale in
    match Rq_sql.Loader.export_directory catalog dir with
    | Ok () -> Printf.printf "wrote schema.sql and %d CSV files to %s\n"
                 (List.length (Rq_storage.Catalog.table_names catalog)) dir
    | Error msg -> failwith msg
  in
  let term = Term.(const run $ workload_arg $ seed_arg $ scale_arg $ dir_arg) in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write a generated workload to schema.sql + CSVs (reloadable with --data-dir).")
    term

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT"
         ~doc:"One of fig9, fig10, fig11, fig12, overhead, partial-stats, reopt, fuzz.")
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced repetitions.") in
  let iterations_arg =
    Arg.(value & opt (some int) None & info [ "iterations" ] ~docv:"N"
         ~doc:"(fuzz) Mutation iterations; 0 = unbounded soak.")
  in
  let seed_arg =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N"
         ~doc:"(fuzz) Search seed (default 5).")
  in
  let corpus_dir_arg =
    Arg.(value & opt (some string) None & info [ "corpus-dir" ] ~docv:"DIR"
         ~doc:"(fuzz) Persist kept cases as DIR/*.fuzz and reload them on start.")
  in
  let time_budget_arg =
    Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SECONDS"
         ~doc:"(fuzz) Stop after this much wall-clock time.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
         ~doc:"(fuzz) Re-run a .fuzz-repro file instead of searching; exits 1 if the \
               divergence still reproduces.")
  in
  let baseline_arg =
    Arg.(value & flag & info [ "baseline" ]
         ~doc:"(fuzz) Also run the pure-random control; fail unless steering reaches \
               strictly more coverage pairs.")
  in
  let late_after_arg =
    Arg.(value & opt (some int) None & info [ "require-new-after" ] ~docv:"N"
         ~doc:"(fuzz) Fail unless an unseen coverage pair is still being found after \
               iteration N.")
  in
  let self_test_arg =
    Arg.(value & flag & info [ "self-test" ]
         ~doc:"(fuzz) Perturb one estimator's quantile and require the fuzzer to catch \
               and shrink the planted divergence.")
  in
  let self_test_rewrite_arg =
    Arg.(value & flag & info [ "self-test-rewrite" ]
         ~doc:"(fuzz) Plant an unsound logical rewrite and require the fuzzer's rewrite \
               pass to catch and shrink the planted divergence.")
  in
  let repro_out_arg =
    Arg.(value & opt string "divergence.fuzz-repro" & info [ "repro-out" ] ~docv:"FILE"
         ~doc:"(fuzz) Where to write the minimal repro on divergence.")
  in
  let run name quick iterations seed corpus_dir time_budget replay baseline late_after
      self_test self_test_rewrite repro_out =
    let module E = Rq_experiments in
    match name with
    | "fig9" ->
        let config =
          if quick then
            { E.Exp_single_table.default_config with repetitions = 4; offsets = [ 30; 50; 65; 80; 90 ] }
          else E.Exp_single_table.default_config
        in
        let rows = E.Exp_single_table.run ~config () in
        print_string (E.Report.rows_table rows);
        print_string (E.Report.plan_mix rows);
        print_string (E.Report.tradeoff_table (E.Exp_single_table.tradeoff rows))
    | "fig10" ->
        let config =
          if quick then
            { E.Exp_three_join.default_config with repetitions = 4; buckets = [ 0; 700; 850; 950; 999 ] }
          else E.Exp_three_join.default_config
        in
        let rows = E.Exp_three_join.run ~config () in
        print_string (E.Report.rows_table rows);
        print_string (E.Report.plan_mix rows);
        print_string (E.Report.tradeoff_table (E.Exp_three_join.tradeoff rows))
    | "fig11" ->
        let config =
          if quick then
            { E.Exp_star_join.default_config with repetitions = 4;
              join_fractions = [ 0.0; 0.01; 0.04; 0.1 ]; fact_rows = 50_000 }
          else E.Exp_star_join.default_config
        in
        let rows = E.Exp_star_join.run ~config () in
        print_string (E.Report.rows_table rows);
        print_string (E.Report.tradeoff_table (E.Exp_star_join.tradeoff rows))
    | "fig12" ->
        let config =
          if quick then
            { E.Exp_sample_size.default_config with repetitions = 4;
              sample_sizes = [ 50; 250; 1000 ]; offsets = [ 30; 50; 65; 80; 90 ] }
          else E.Exp_sample_size.default_config
        in
        print_string (E.Report.sample_size_table (E.Exp_sample_size.run ~config ()))
    | "overhead" ->
        let config =
          if quick then { E.Overhead.default_config with iterations = 10 }
          else E.Overhead.default_config
        in
        print_string (E.Report.overhead_table (E.Overhead.run ~config ()))
    | "partial-stats" ->
        let config =
          if quick then { E.Exp_partial_stats.default_config with scale_factor = 0.003 }
          else E.Exp_partial_stats.default_config
        in
        print_string (E.Report.partial_stats_table (E.Exp_partial_stats.run ~config ()))
    | "reopt" ->
        let config =
          if quick then
            { E.Exp_reopt.default_config with lineitems = 1000; orders = 100; cutoffs = [ 5; 25; 50 ] }
          else E.Exp_reopt.default_config
        in
        print_string (E.Exp_reopt.render (E.Exp_reopt.run ~config ()))
    | "fuzz" -> (
        let module F = E.Exp_fuzz in
        let config =
          {
            F.default_config with
            iterations =
              (match iterations with
              | Some n -> n
              | None -> if quick then 60 else F.default_config.F.iterations);
            seed = Option.value seed ~default:F.default_config.F.seed;
            corpus_dir;
            time_budget;
            baseline;
            late_after;
            self_test;
            self_test_rewrite;
            repro_file = repro_out;
          }
        in
        match replay with
        | Some file -> (
            match F.replay config file with
            | Error e ->
                prerr_endline ("replay: " ^ e);
                exit 2
            | Ok (case, probe, recorded_pass) -> (
                print_endline ("case: " ^ F.case_summary case);
                match probe.F.divergence with
                | Some d ->
                    Printf.printf "divergence still reproduces in pass %s\ndetail: %s\n" d.F.pass
                      d.F.detail;
                    exit 1
                | None ->
                    Printf.printf "no divergence — the recorded failure (pass %s) is fixed\n"
                      recorded_pass))
        | None ->
            let result = F.run ~log:print_endline ~config () in
            print_string (F.render result);
            if not result.F.r_ok then exit 1)
    | other -> failwith (Printf.sprintf "unknown experiment %S" other)
  in
  let term =
    Term.(const run $ name_arg $ quick_arg $ iterations_arg $ seed_arg $ corpus_dir_arg
          $ time_budget_arg $ replay_arg $ baseline_arg $ late_after_arg $ self_test_arg
          $ self_test_rewrite_arg $ repro_out_arg)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one of the paper's empirical experiments (Figures 9-12).")
    term

(* ---------------- bench-optimizer ---------------- *)

let bench_optimizer_cmd =
  let small_arg =
    Arg.(value & flag & info [ "small" ]
         ~doc:"CI-sized run: smaller catalog and fewer repeats.")
  in
  let seed_arg =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N"
         ~doc:"Override the world seed (default 11).")
  in
  let out_arg =
    Arg.(value & opt string "BENCH_optimizer.json" & info [ "out" ] ~docv:"FILE"
         ~doc:"Where to write the JSON report; - for none.")
  in
  let run small seed out =
    let module E = Rq_experiments in
    let config = if small then E.Exp_optimizer.small_config else E.Exp_optimizer.default_config in
    let config =
      match seed with None -> config | Some seed -> { config with E.Exp_optimizer.seed }
    in
    let result = with_bench_errors (fun () -> E.Exp_optimizer.run ~config ()) in
    print_string (E.Exp_optimizer.render result);
    if out <> "-" then begin
      let oc = open_out out in
      output_string oc (Rq_obs.Json.to_string (E.Exp_optimizer.to_json result));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" out
    end;
    if not result.E.Exp_optimizer.ok then exit 1
  in
  let term = Term.(const run $ small_arg $ seed_arg $ out_arg) in
  Cmd.v
    (Cmd.info "bench-optimizer"
       ~doc:"Bitset evidence kernel vs. row-scan sampling on the optimizer hot path: \
             evidence queries/sec (cold/warm/scan), plans/sec per estimator and \
             confidence, and bit-identity checks on evidence and chosen plans.")
    term

(* ---------------- profile ---------------- *)

let profile_cmd =
  (* Cost-vs-selectivity curves for every access path of a single-table SQL
     query, plus pairwise crossover points: the engine-level Figure 1. *)
  let run workload seed scale sql =
    let catalog, cost_scale = generate_workload ~workload ~seed ~scale in
    let bound = compile_sql catalog sql in
    match bound.Rq_sql.Binder.query.Logical.tables with
    | [ table_ref ] ->
        let plans = Enumerate.access_paths catalog table_ref in
        let selectivities = List.init 21 (fun i -> float_of_int i /. 2000.0) in
        List.iter
          (fun plan ->
            Printf.printf "# plan: %s\n" (Rq_exec.Plan.describe plan);
            List.iter
              (fun (s, c) -> Printf.printf "%.5f\t%.3f\n" s c)
              (Costing.cost_curve catalog ~scale:cost_scale ~selectivities plan))
          plans;
        List.iteri
          (fun i plan_a ->
            List.iteri
              (fun j plan_b ->
                if i < j then
                  match Costing.crossover_points catalog ~scale:cost_scale ~grid:20_000 plan_a plan_b with
                  | [] -> ()
                  | crossings ->
                      Printf.printf "crossover %s / %s: %s\n" (Rq_exec.Plan.describe plan_a)
                        (Rq_exec.Plan.describe plan_b)
                        (String.concat ", "
                           (List.map (fun s -> Printf.sprintf "%.4f%%" (100.0 *. s)) crossings)))
              plans)
          plans
    | _ -> failwith "profile expects a single-table query"
  in
  let term = Term.(const run $ workload_arg $ seed_arg $ scale_arg $ sql_arg) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Cost-vs-selectivity curves and crossover points for a query's access paths.")
    term

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  (* A plan-choice diagram: which plan the robust optimizer picks at each
     (selectivity, confidence threshold) cell of the Experiment-1 template,
     plus the histogram baseline column. *)
  let run seed scale sample_size =
    let catalog, cost_scale = generate_workload ~workload:"tpch" ~seed ~scale in
    let stats = build_stats ~seed ~sample_size catalog in
    let thresholds = [ 5.0; 20.0; 50.0; 80.0; 95.0 ] in
    Printf.printf "offset	sel%%	%s	histograms
"
      (String.concat "	" (List.map (fun t -> Printf.sprintf "T=%g%%" t) thresholds));
    List.iter
      (fun offset ->
        let query = Rq_workload.Tpch.exp1_query ~offset in
        let choice opt =
          Rq_exec.Plan.describe (Optimizer.optimize_exn opt query).Optimizer.plan
        in
        Printf.printf "%d	%.3f" offset
          (100.0 *. Rq_workload.Tpch.exp1_selectivity catalog ~offset);
        List.iter
          (fun t ->
            let opt =
              Optimizer.robust ~scale:cost_scale
                ~confidence:(Rq_core.Confidence.of_percent t) stats
            in
            Printf.printf "	%s" (choice opt))
          thresholds;
        Printf.printf "	%s
" (choice (Optimizer.baseline ~scale:cost_scale stats)))
      [ 30; 40; 50; 60; 70; 80; 90 ]
  in
  let term = Term.(const run $ seed_arg $ scale_arg $ sample_arg) in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Plan-choice diagram: chosen plan per (selectivity x threshold) cell.")
    term

let () =
  let info =
    Cmd.info "robustopt" ~version:"1.0.0"
      ~doc:"Robust query optimization via Bayesian cardinality estimation (SIGMOD 2005)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ explain_cmd; run_cmd; estimate_cmd; analyze_cmd; experiment_cmd;
            bench_optimizer_cmd; profile_cmd; sweep_cmd; export_cmd; batch_cmd ]))
