(* robustopt — command-line front end.

   Subcommands:
     explain          parse + optimize a SQL query, print the chosen plan
     run              optimize, execute, print results and simulated time
     estimate         compare selectivity estimates (robust / AVI / truth)
     experiment       regenerate the paper's figures, tables and ablations
                      (all, or the named ones; --quick for reduced sizes),
                      or run the differential fuzzer (experiment fuzz)
     profile          cost curves and crossovers of a query's access paths
     sweep            plan-choice diagram over selectivity x threshold
     export           write a generated workload as schema.sql + CSVs
     batch            run a file of queries under a robustness policy

   Workloads are generated in-memory from a seed: --workload tpch | star. *)

open Cmdliner
open Rq_optimizer

(* Bad user input — a flag value, a data directory, a query file or SQL
   text — ends the run with one line on stderr and exit code 1. *)
let user_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("robustopt: " ^ msg);
      exit 1)
    fmt

let generate_workload ~workload ~seed ~scale =
  let rng = Rq_math.Rng.create seed in
  match workload with
  | "tpch" ->
      if not (scale > 0.0) then user_error "--scale must be positive (got %g)" scale;
      let params = { Rq_workload.Tpch.default_params with scale_factor = scale } in
      let catalog = Rq_workload.Tpch.generate rng ~params () in
      (catalog, Rq_workload.Tpch.cost_scale catalog)
  | "star" ->
      let catalog = Rq_workload.Star.generate rng () in
      (catalog, Rq_workload.Star.cost_scale catalog)
  | other -> user_error "unknown workload %S (expected tpch or star)" other

(* A --data-dir overrides the generated workload; user data runs at scale 1
   (its costs are whatever its actual size implies). *)
let obtain_catalog ~workload ~seed ~scale ~data_dir =
  match data_dir with
  | Some dir -> (
      match Rq_sql.Loader.load_directory dir with
      | Ok catalog -> (catalog, 1.0)
      | Error msg -> user_error "loading %s: %s" dir msg)
  | None -> generate_workload ~workload ~seed ~scale

let check_sample_size sample_size =
  if sample_size < 1 then user_error "--sample-size must be at least 1 (got %d)" sample_size

let build_stats ~seed ~sample_size catalog =
  check_sample_size sample_size;
  Rq_stats.Stats_store.update_statistics
    (Rq_math.Rng.create (seed + 1))
    ~config:{ Rq_stats.Stats_store.default_config with sample_size }
    catalog

let make_optimizer ~estimator ~confidence ~scale stats =
  match estimator with
  | "robust" -> Optimizer.robust ~scale ~confidence stats
  | "histogram" -> Optimizer.baseline ~scale stats
  | other -> user_error "unknown estimator %S (expected robust or histogram)" other

let compile_sql catalog sql =
  match Rq_sql.Binder.compile catalog sql with
  | Ok bound -> bound
  | Error msg -> user_error "SQL error: %s" msg

let resolve_confidence ~confidence ~hint =
  if not (confidence > 0.0 && confidence < 100.0) then
    user_error "--confidence must be strictly between 0 and 100 (got %g)" confidence;
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
       ~doc:"Cap on the candidate plans the join search costs, each once; when \
             exceeded the optimizer answers with the deterministic left-deep fallback plan.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ]
       ~doc:"After execution, print the trace-event log (guards, re-optimization, \
             degradations) and the per-operator span tree with simulated-cost deltas.")

let metrics_json_arg =
  Arg.(value & flag & info [ "metrics-json" ]
       ~doc:"After execution, print the spans and trace events as one JSON object.")

let make_recorder ~trace ~metrics_json =
  if trace || metrics_json then Some (Rq_obs.Recorder.create ()) else None

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

let print_events events = List.iter (fun e -> print_endline (Rq_obs.Trace.to_string e)) events

let print_observability ~kernel ~trace ~metrics_json recorder =
  match recorder with
  | None -> ()
  | Some r ->
      if trace then begin
        print_events (Rq_obs.Recorder.events r);
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
      user_error "--reopt-threshold must be >= 1.0 (a q-error), got %g" t
  | _ -> ()

(* Apply --fault-profile: damage a copy of the stats and switch to the
   graceful-degradation estimation chain over the damaged store. *)
let apply_fault_profile ?obs ~seed ~confidence ~cost_scale ~profile stats =
  match profile with
  | None -> None
  | Some p ->
      let rng = Rq_math.Rng.create (seed + 7) in
      (match Rq_stats.Fault.profile_injections rng stats p with
      | Error msg -> user_error "%s" msg
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

(* The setup `explain` and `run` share: catalog, statistics, the bound
   query, its confidence threshold, the observability recorder, and the
   optimizer (over damaged statistics when --fault-profile is given). *)
type session = {
  catalog : Rq_storage.Catalog.t;
  cost_scale : float;
  stats : Rq_stats.Stats_store.t;
  query : Logical.t;
  confidence : Rq_core.Confidence.t;
  recorder : Rq_obs.Recorder.t option;
  opt : Optimizer.t;
}

let open_session ~workload ~seed ~scale ~sample_size ~confidence ~estimator ~data_dir
    ~fault_profile ~reopt_threshold ~trace ~metrics_json sql =
  check_reopt_threshold reopt_threshold;
  let catalog, cost_scale = obtain_catalog ~workload ~seed ~scale ~data_dir in
  let stats = build_stats ~seed ~sample_size catalog in
  let bound = compile_sql catalog sql in
  let confidence = resolve_confidence ~confidence ~hint:bound.Rq_sql.Binder.confidence_hint in
  let recorder = make_recorder ~trace ~metrics_json in
  let opt =
    match
      apply_fault_profile ?obs:recorder ~seed ~confidence ~cost_scale ~profile:fault_profile stats
    with
    | Some damaged_opt -> damaged_opt
    | None -> make_optimizer ~estimator ~confidence ~scale:cost_scale stats
  in
  { catalog; cost_scale; stats; query = bound.Rq_sql.Binder.query; confidence; recorder; opt }

let optimize_session ~opt_budget s =
  match
    Optimizer.optimize ?budget:opt_budget
      ?obs:s.recorder
      s.opt s.query
  with
  | Ok d -> d
  | Error msg -> user_error "%s" msg

(* ---------------- explain ---------------- *)

let explain_cmd =
  let analyze_arg =
    Arg.(value & flag & info [ "analyze" ]
         ~doc:"Also execute the plan and report per-node estimated vs. actual rows.")
  in
  let run workload seed scale sample_size confidence estimator analyze data_dir fault_profile
      reopt_threshold opt_budget trace metrics_json sql =
    let s =
      open_session ~workload ~seed ~scale ~sample_size ~confidence ~estimator ~data_dir
        ~fault_profile ~reopt_threshold ~trace ~metrics_json sql
    in
    Printf.printf "confidence threshold: %g%%\n" (Rq_core.Confidence.to_percent s.confidence);
    (match Optimizer.explain s.opt s.query with
    | Ok report -> print_string report
    | Error msg -> user_error "%s" msg);
    if analyze then begin
      let decision = optimize_session ~opt_budget s in
      print_degradations decision;
      (* With a guard threshold, EXPLAIN ANALYZE shows each checkpoint and
         whether it would have fired. *)
      let plan =
        match reopt_threshold with
        | None -> decision.Optimizer.plan
        | Some threshold -> Reopt.instrument ~threshold s.opt decision.Optimizer.plan
      in
      print_newline ();
      let report =
        Explain_analyze.analyze s.catalog ~scale:s.cost_scale ?obs:s.recorder
          (Optimizer.estimator s.opt) plan
      in
      print_string (Explain_analyze.render_report report);
      print_observability ~kernel:(kernel_totals s.stats) ~trace ~metrics_json s.recorder
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
    let s =
      open_session ~workload ~seed ~scale ~sample_size ~confidence ~estimator ~data_dir
        ~fault_profile ~reopt_threshold ~trace ~metrics_json sql
    in
    let decision = optimize_session ~opt_budget s in
    print_degradations decision;
    (match reopt_threshold with
    | None ->
        let meter = Rq_exec.Cost.create ~scale:s.cost_scale () in
        let result =
          Rq_exec.Executor.run ?obs:s.recorder s.catalog meter decision.Optimizer.plan
        in
        let snapshot = Rq_exec.Cost.snapshot meter in
        Printf.printf "plan: %s\n" (Rq_exec.Plan.describe decision.Optimizer.plan);
        Format.printf "estimated cost: %.3f s; simulated execution: %a@."
          decision.Optimizer.estimated_cost Rq_obs.Metrics.pp snapshot;
        print_result_rows result
    | Some threshold ->
        let outcome =
          Reopt.execute_plan ~threshold ?obs:s.recorder s.opt s.query decision.Optimizer.plan
        in
        Printf.printf "initial plan: %s\n"
          (Rq_exec.Plan.describe outcome.Reopt.initial_plan);
        if outcome.Reopt.events = [] then print_endline "no guard fired"
        else print_events outcome.Reopt.events;
        if outcome.Reopt.reoptimizations > 0 then
          Printf.printf "final plan: %s\n" (Rq_exec.Plan.describe outcome.Reopt.final_plan);
        Format.printf "simulated execution (incl. wasted work): %a@."
          Rq_obs.Metrics.pp outcome.Reopt.snapshot;
        print_result_rows outcome.Reopt.result);
    print_observability ~kernel:(kernel_totals s.stats) ~trace ~metrics_json s.recorder
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
    check_sample_size sample_size;
    let catalog, cost_scale = obtain_catalog ~workload ~seed ~scale ~data_dir in
    let setting =
      match Rq_core.Confidence.policy_of_string policy with
      | Ok p -> { Rq_core.Confidence.system_default = Rq_core.Confidence.of_policy p }
      | Error msg -> user_error "%s" msg
    in
    let ic = try open_in file with Sys_error msg -> user_error "%s" msg in
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
    | Error msg -> user_error "%s" msg
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
    | Error msg -> user_error "%s" msg
  in
  let term = Term.(const run $ workload_arg $ seed_arg $ scale_arg $ dir_arg) in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write a generated workload to schema.sql + CSVs (reloadable with --data-dir).")
    term

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"NAME"
         ~doc:(Printf.sprintf "Artifacts to run, in order (default: all of them): %s; or fuzz \
                               alone, with the (fuzz) options."
                 (String.concat ", " Rq_experiments.Artifacts.names)))
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sizes: each experiment's quick configuration.")
  in
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
         ~doc:"(fuzz) Plant an unsound logical rewrite and require the fuzzer's rewrite \
               pass to catch and shrink the planted divergence.")
  in
  let repro_out_arg =
    Arg.(value & opt string "divergence.fuzz-repro" & info [ "repro-out" ] ~docv:"FILE"
         ~doc:"(fuzz) Where to write the minimal repro on divergence.")
  in
  let run names quick iterations seed corpus_dir replay baseline late_after
      self_test repro_out =
    let module E = Rq_experiments in
    match names with
    | [ "fuzz" ] -> (
        let module F = E.Exp_fuzz in
        let base = if quick then F.quick_config else F.default_config in
        let config =
          {
            base with
            iterations = Option.value iterations ~default:base.F.iterations;
            seed = Option.value seed ~default:base.F.seed;
            corpus_dir;
            baseline;
            late_after;
            sabotage = (if self_test then Some E.Differential.Unsound_rewrite else None);
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
    | names ->
        let entries =
          if names = [] then E.Artifacts.all
          else
            List.map
              (fun name ->
                match E.Artifacts.find name with
                | Some e -> e
                | None ->
                    Printf.eprintf "unknown experiment %S; available: %s, fuzz (alone)\n" name
                      (String.concat ", " E.Artifacts.names);
                    exit 2)
              names
        in
        List.iter
          (fun e ->
            print_string (e.E.Artifacts.run ~quick);
            flush stdout)
          entries
  in
  let term =
    Term.(const run $ names_arg $ quick_arg $ iterations_arg $ seed_arg $ corpus_dir_arg
          $ replay_arg $ baseline_arg $ late_after_arg $ self_test_arg $ repro_out_arg)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's figures, tables and ablations (all of them, or the named \
             ones), or run the differential fuzzer.")
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
    | _ -> user_error "profile expects a single-table query"
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
          [ explain_cmd; run_cmd; estimate_cmd; experiment_cmd; profile_cmd; sweep_cmd;
            export_cmd; batch_cmd ]))
