(* Tests for rq_optimizer: logical queries, the naive oracle, cardinality
   estimators, costing coherence, plan enumeration, and end-to-end plan
   choice under correlated data. *)

open Rq_storage
open Rq_exec
open Rq_optimizer

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_close tolerance = Alcotest.(check (float tolerance))

(* Fixture: a "sensors" table with two perfectly correlated indexed
   columns, plus a "sites" dimension. *)
let fixture ?(rows = 5000) () =
  let rng = Rq_math.Rng.create 61 in
  let catalog = Catalog.create () in
  let sites = 25 in
  Catalog.add_table catalog ~primary_key:"site_id"
    (Relation.create ~name:"sites"
       ~schema:
         (Schema.create
            [ { Schema.name = "site_id"; ty = Value.T_int }; { Schema.name = "zone"; ty = Value.T_int } ])
       (Array.init sites (fun i -> [| v_int i; v_int (i mod 5) |])));
  let readings =
    Array.init rows (fun i ->
        (* temp and alert are strongly correlated: alert fires exactly when
           temp is in the top 2%. *)
        let temp = Rq_math.Rng.int rng 1000 in
        [|
          v_int i;
          v_int (Rq_math.Rng.int rng sites);
          v_int temp;
          v_int (if temp >= 980 then 1 else 0);
        |])
  in
  Catalog.add_table catalog ~primary_key:"r_id"
    (Relation.create ~name:"readings"
       ~schema:
         (Schema.create
            [
              { Schema.name = "r_id"; ty = Value.T_int };
              { Schema.name = "site"; ty = Value.T_int };
              { Schema.name = "temp"; ty = Value.T_int };
              { Schema.name = "alert"; ty = Value.T_int };
            ])
       readings);
  Catalog.add_foreign_key catalog
    { from_table = "readings"; from_column = "site"; to_table = "sites"; to_column = "site_id" };
  List.iter
    (fun (table, column) -> Catalog.build_index catalog ~table ~column)
    [ ("readings", "temp"); ("readings", "alert"); ("readings", "site"); ("sites", "site_id") ];
  catalog

let correlated_pred =
  Pred.conj
    [ Pred.ge (Expr.col "temp") (Expr.int 980); Pred.eq (Expr.col "alert") (Expr.int 1) ]

(* ------------------------------------------------------------------ *)
(* Logical                                                             *)
(* ------------------------------------------------------------------ *)

let test_logical_validate () =
  let catalog = fixture () in
  let ok = Logical.query [ Logical.scan "readings"; Logical.scan "sites" ] in
  check_bool "valid join" true (Result.is_ok (Logical.validate catalog ok));
  check_bool "unknown table" true
    (Result.is_error (Logical.validate catalog (Logical.query [ Logical.scan "nope" ])));
  check_bool "empty query" true (Result.is_error (Logical.validate catalog (Logical.query [])));
  check_bool "duplicate table (self-join)" true
    (Result.is_error
       (Logical.validate catalog (Logical.query [ Logical.scan "sites"; Logical.scan "sites" ])));
  let bad_pred = Logical.scan ~pred:(Pred.eq (Expr.col "zz") (Expr.int 1)) "sites" in
  check_bool "unknown predicate column" true
    (Result.is_error (Logical.validate catalog (Logical.query [ bad_pred ])))

let test_logical_root () =
  let catalog = fixture () in
  Alcotest.(check (option string)) "join root" (Some "readings")
    (Logical.root catalog (Logical.query [ Logical.scan "sites"; Logical.scan "readings" ]))

let test_logical_connected_subsets () =
  let catalog = fixture () in
  let q = Logical.query [ Logical.scan "readings"; Logical.scan "sites" ] in
  Alcotest.(check (list (list string)))
    "singletons then the pair"
    [ [ "readings" ]; [ "sites" ]; [ "readings"; "sites" ] ]
    (Logical.connected_subsets catalog q)

let test_logical_combined_predicate () =
  let q =
    Logical.query
      [ Logical.scan ~pred:(Pred.eq (Expr.col "alert") (Expr.int 1)) "readings";
        Logical.scan ~pred:(Pred.eq (Expr.col "zone") (Expr.int 2)) "sites" ]
  in
  Alcotest.(check (list string)) "qualified columns"
    [ "readings.alert"; "sites.zone" ]
    (Pred.columns (Logical.combined_predicate q))

(* ------------------------------------------------------------------ *)
(* Naive oracle                                                        *)
(* ------------------------------------------------------------------ *)

let test_naive_single_table () =
  let catalog = fixture ~rows:1000 () in
  let refs = [ { Logical.table = "readings"; pred = correlated_pred } ] in
  let rel = Catalog.find_table catalog "readings" in
  let direct =
    Relation.filter_count rel (Pred.compile (Relation.schema rel) correlated_pred)
  in
  check_int "matches direct filter" direct (Naive.cardinality catalog refs)

let test_naive_join_cardinality () =
  let catalog = fixture ~rows:1000 () in
  (* FK integrity: the unfiltered join preserves the root's cardinality. *)
  let refs = [ Logical.scan "readings"; Logical.scan "sites" ] in
  check_int "join preserves root" 1000 (Naive.cardinality catalog refs);
  check_close 1e-9 "selectivity 1" 1.0 (Naive.selectivity catalog refs)

let test_naive_join_filtered () =
  let catalog = fixture ~rows:1000 () in
  let zone_pred = Pred.eq (Expr.col "zone") (Expr.int 2) in
  let refs = [ Logical.scan "readings"; Logical.scan ~pred:zone_pred "sites" ] in
  (* Cross-check by manual counting. *)
  let sites = Catalog.find_table catalog "sites" in
  let qualifying =
    Relation.fold
      (fun acc _ tup ->
        if Pred.eval (Relation.schema sites) zone_pred tup then
          match tup.(0) with Value.Int s -> s :: acc | _ -> acc
        else acc)
      [] sites
  in
  let readings = Catalog.find_table catalog "readings" in
  let expected =
    Relation.filter_count readings (fun tup ->
        match tup.(1) with Value.Int s -> List.mem s qualifying | _ -> false)
  in
  check_int "filtered join" expected (Naive.cardinality catalog refs)

(* A hand-built fixture for the full query surface Naive answers: emp ->
   dept over an FK, proj as an unrelated IN-subquery source, and NULLs in
   the aggregated columns and in the subquery's key. *)
let naive_fixture () =
  let i = v_int and f x = Value.Float x and null = Value.Null in
  let catalog = Catalog.create () in
  let table name key cols rows =
    Catalog.add_table catalog ~primary_key:key
      (Relation.create ~name
         ~schema:(Schema.create (List.map (fun (name, ty) -> { Schema.name; ty }) cols))
         (Array.of_list (List.map Array.of_list rows)))
  in
  table "dept" "d_id" [ ("d_id", Value.T_int); ("d_zone", Value.T_int) ]
    [ [ i 1; i 10 ]; [ i 2; i 20 ]; [ i 3; i 10 ] ];
  table "emp" "e_id"
    [ ("e_id", Value.T_int); ("e_dept", Value.T_int); ("e_salary", Value.T_int); ("e_bonus", Value.T_float) ]
    [ [ i 1; i 1; i 100; f 1.5 ]; [ i 2; i 1; null; f 2.5 ]; [ i 3; i 2; i 300; null ];
      [ i 4; i 2; i 50; f 4.0 ]; [ i 5; i 3; null; null ] ];
  table "proj" "p_id" [ ("p_id", Value.T_int); ("p_dept", Value.T_int); ("p_budget", Value.T_int) ]
    [ [ i 1; i 1; i 500 ]; [ i 2; i 3; i 50 ]; [ i 3; null; i 900 ] ];
  Catalog.add_foreign_key catalog
    { from_table = "emp"; from_column = "e_dept"; to_table = "dept"; to_column = "d_id" };
  catalog

let check_rows label names rows actual =
  let expected =
    {
      Rq_exec.Executor.schema =
        Schema.create (List.map (fun name -> { Schema.name; ty = Value.T_float }) names);
      tuples = Array.of_list (List.map Array.of_list rows);
    }
  in
  let render r = String.concat "\n" (Array.to_list (Rq_experiments.Exp_common.canonical_rows r)) in
  if not (Rq_experiments.Exp_common.results_equal expected actual) then
    Alcotest.failf "%s\nexpected:\n%s\ngot:\n%s" label (render expected) (render actual)

(* e_dept IN (SELECT p_dept FROM proj WHERE p_budget > 100) keeps dept 1
   only (the NULL key never matches); the residual e_salary >= d_zone * 5
   drops the NULL salaries and employee 4. *)
let test_naive_semijoin_residual () =
  let catalog = naive_fixture () and i = v_int in
  let semijoins =
    [
      {
        Logical.outer_key = "emp.e_dept";
        inner = Logical.scan ~pred:(Pred.gt (Expr.col "p_budget") (Expr.int 100)) "proj";
        inner_key = "p_dept";
      };
    ]
  in
  let residual = Pred.ge (Expr.col "emp.e_salary") (Expr.Mul (Expr.col "dept.d_zone", Expr.int 5)) in
  let run ?residual ?semijoins ?scalars () =
    Naive.evaluate_query catalog
      (Logical.query ?residual ?semijoins ?scalars ~projection:[ "emp.e_id" ]
         [ Logical.scan "emp"; Logical.scan "dept" ])
  in
  check_rows "semijoin" [ "emp.e_id" ] [ [ i 1 ]; [ i 2 ] ] (run ~semijoins ());
  check_rows "residual" [ "emp.e_id" ] [ [ i 1 ]; [ i 3 ] ] (run ~residual ());
  check_rows "both" [ "emp.e_id" ] [ [ i 1 ] ] (run ~residual ~semijoins ());
  let scalar =
    { Logical.s_expr = Expr.col "emp.e_salary"; s_cmp = Pred.Gt;
      s_agg = Plan.Avg (Expr.col "emp.e_salary"); s_table = "emp"; s_pred = Pred.True }
  in
  match run ~scalars:[ scalar ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a scalar subquery must be refused"

(* Every aggregate over NULL-bearing groups, behind a residual
   (e_id * 10 <> d_zone drops employee 1, leaving dept 1 no non-NULL
   salary), and the grand total of an empty input. *)
let test_naive_grouped_aggregates () =
  let catalog = naive_fixture () in
  let i = v_int and f x = Value.Float x and null = Value.Null in
  let agg fn output_name = { Plan.fn; output_name } and col = Expr.col in
  let aggs =
    [ agg Plan.Count_star "n"; agg (Plan.Count (col "emp.e_salary")) "c";
      agg (Plan.Sum (col "emp.e_salary")) "s"; agg (Plan.Avg (col "emp.e_bonus")) "a";
      agg (Plan.Min (col "emp.e_salary")) "lo"; agg (Plan.Max (col "emp.e_bonus")) "hi" ]
  in
  let names = [ "n"; "c"; "s"; "a"; "lo"; "hi" ] in
  let residual = Pred.Cmp (Pred.Ne, Expr.Mul (col "emp.e_id", Expr.int 10), col "dept.d_zone") in
  check_rows "grouped" ("emp.e_dept" :: names)
    [ [ i 1; i 1; i 0; null; f 2.5; null; f 2.5 ];
      [ i 2; i 2; i 2; f 350.0; f 4.0; i 50; f 4.0 ];
      [ i 3; i 1; i 0; null; null; null; null ] ]
    (Naive.evaluate_query catalog
       (Logical.query ~residual ~group_by:[ "emp.e_dept" ] ~aggs [ Logical.scan "emp"; Logical.scan "dept" ]));
  check_rows "grand total of nothing" names [ [ i 0; i 0; null; null; null; null ] ]
    (Naive.evaluate_query catalog
       (Logical.query ~aggs [ Logical.scan ~pred:(Pred.gt (col "e_id") (Expr.int 100)) "emp" ]))

(* ------------------------------------------------------------------ *)
(* Cardinality estimators                                              *)
(* ------------------------------------------------------------------ *)

let build_stats ?(sample_size = 500) catalog seed =
  Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create seed)
    ~config:{ Rq_stats.Stats_store.default_config with sample_size }
    catalog

let test_oracle_estimator_is_exact () =
  let catalog = fixture ~rows:1000 () in
  let oracle = Cardinality.oracle catalog in
  let refs = [ { Logical.table = "readings"; pred = correlated_pred } ] in
  check_close 1e-9 "exact cardinality"
    (float_of_int (Naive.cardinality catalog refs))
    (oracle.Cardinality.expression_cardinality refs);
  (* Two literals that straddle a stored value and agree to six
     significant digits: they render apart, and the oracle's memo keeps
     them apart. *)
  let stored =
    match (Relation.get (Catalog.find_table catalog "readings") 0).(2) with
    | Value.Int t -> float_of_int t
    | _ -> Alcotest.fail "temp is an int column"
  in
  let below t =
    [ { Logical.table = "readings"; pred = Pred.lt (Expr.col "temp") (Expr.Const (Value.Float t)) } ]
  in
  let lo = below (stored -. 1e-7) and hi = below (stored +. 1e-7) in
  check_bool "the two predicates render apart" true
    (Pred.render (List.hd lo).Logical.pred <> Pred.render (List.hd hi).Logical.pred);
  List.iter
    (fun refs ->
      check_close 1e-9 "memoized answer is exact"
        (float_of_int (Naive.cardinality catalog refs))
        (oracle.Cardinality.expression_cardinality refs))
    [ lo; hi ];
  (* A GROUP BY over an empty input has no groups: the executor emits no
     row, and the oracle must say so too. *)
  let none = Pred.gt (Expr.col "temp") (Expr.int 1000) in
  let grouped =
    Plan.Aggregate
      {
        input = Plan.Scan { table = "readings"; access = Plan.Seq_scan; pred = none };
        group_by = [ "readings.site" ];
        aggs = [ { Plan.fn = Plan.Count_star; output_name = "n" } ];
      }
  in
  check_close 1e-9 "empty-input group count"
    (float_of_int (Array.length (Executor.run catalog (Cost.create ()) grouped).Executor.tuples))
    (oracle.Cardinality.group_count
       [ { Logical.table = "readings"; pred = none } ]
       [ "readings.site" ])

let test_robust_beats_avi_on_correlation () =
  (* The headline behaviour: under perfectly correlated predicates, the
     AVI estimate is ~50x too low (2% * 2%), while the robust estimate
     stays within a small factor of the truth. *)
  let catalog = fixture ~rows:20_000 () in
  let stats = build_stats ~sample_size:1000 catalog 77 in
  let estimator =
    Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.median ()
  in
  let robust = Cardinality.robust stats estimator in
  let hist = Cardinality.histogram_avi stats in
  let refs = [ { Logical.table = "readings"; pred = correlated_pred } ] in
  let truth = float_of_int (Naive.cardinality catalog refs) in
  let robust_est = robust.Cardinality.expression_cardinality refs in
  let avi_est = hist.Cardinality.expression_cardinality refs in
  check_bool
    (Printf.sprintf "robust %.0f within 2.5x of truth %.0f" robust_est truth)
    true
    (robust_est > truth /. 2.5 && robust_est < truth *. 2.5);
  check_bool
    (Printf.sprintf "AVI %.0f at least 10x below truth %.0f" avi_est truth)
    true
    (avi_est < truth /. 10.0)

let test_robust_join_estimate () =
  let catalog = fixture ~rows:5000 () in
  let stats = build_stats catalog 78 in
  let estimator =
    Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.median ()
  in
  let robust = Cardinality.robust stats estimator in
  let refs =
    [ Logical.scan "readings"; Logical.scan ~pred:(Pred.eq (Expr.col "zone") (Expr.int 2)) "sites" ]
  in
  let truth = float_of_int (Naive.cardinality catalog refs) in
  let est = robust.Cardinality.expression_cardinality refs in
  check_bool
    (Printf.sprintf "join estimate %.0f within 50%% of %.0f" est truth)
    true
    (Float.abs (est -. truth) < 0.5 *. truth)

let test_estimator_threshold_ordering () =
  let catalog = fixture ~rows:5000 () in
  let stats = build_stats catalog 79 in
  let refs = [ { Logical.table = "readings"; pred = correlated_pred } ] in
  let estimate t =
    let estimator =
      Rq_core.Robust_estimator.create ~confidence:(Rq_core.Confidence.of_percent t) ()
    in
    (Cardinality.robust stats estimator).Cardinality.expression_cardinality refs
  in
  check_bool "higher threshold, higher estimate" true
    (estimate 5.0 < estimate 50.0 && estimate 50.0 < estimate 95.0)

let test_sample_ml_estimator () =
  let catalog = fixture ~rows:5000 () in
  let stats = build_stats ~sample_size:200 catalog 87 in
  let ml = Cardinality.sample_ml stats in
  let refs = [ { Logical.table = "readings"; pred = correlated_pred } ] in
  let est = ml.Cardinality.expression_cardinality refs in
  let truth = float_of_int (Naive.cardinality catalog refs) in
  check_bool
    (Printf.sprintf "ML estimate %.0f within 3x of truth %.0f" est truth)
    true
    (est < 3.0 *. truth && est > truth /. 3.0);
  (* The defining hazard: an empty-evidence predicate estimates exactly 0. *)
  let impossible = Pred.eq (Expr.col "temp") (Expr.int (-1)) in
  Alcotest.(check (float 1e-9)) "k=0 -> 0"
    0.0
    (ml.Cardinality.expression_cardinality [ { Logical.table = "readings"; pred = impossible } ]);
  let robust_est =
    (Cardinality.robust stats
       (Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.median ()))
      .Cardinality.expression_cardinality
      [ { Logical.table = "readings"; pred = impossible } ]
  in
  check_bool "robust keeps a floor" true (robust_est > 0.0)


(* The evidence [(k, n)] of a synopsis by a row scan of its sample under
   [Pred.compile]: the reference the bitset kernel must reproduce. *)
let scan_evidence syn pred =
  let rows = Rq_stats.Sample.rows (Rq_stats.Join_synopsis.sample syn) in
  (Relation.filter_count rows (Pred.compile (Relation.schema rows) pred), Relation.row_count rows)

let test_memo_invalidated_by_fault () =
  (* Evidence is cached only in each synopsis's kernel, and a damaged
     synopsis is a new synopsis with a fresh kernel: bitmaps warmed on the
     healthy store must never answer for the damaged one.  The robust
     estimate over the damaged store must equal the one computed from a
     row scan of the damaged synopsis, and the healthy store must still
     answer as before. *)
  let catalog = fixture ~rows:5000 () in
  let stats = build_stats catalog 81 in
  let estimator =
    Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.median ()
  in
  let refs = [ { Logical.table = "readings"; pred = correlated_pred } ] in
  let estimate stats' =
    (Cardinality.robust stats' estimator).Cardinality.expression_cardinality refs
  in
  (* Warms the healthy kernel's bitmaps for every atom of [refs]. *)
  let before = estimate stats in
  let damaged =
    Rq_stats.Fault.apply (Rq_math.Rng.create 94) stats
      [ Rq_stats.Fault.Truncate_synopsis { root = "readings"; keep = 100 } ]
  in
  let syn = Option.get (Rq_stats.Stats_store.synopsis damaged ~root:"readings") in
  let k, n =
    scan_evidence syn (Pred.rename_columns (fun c -> "readings." ^ c) correlated_pred)
  in
  check_int "the damaged synopsis keeps 100 rows" 100 n;
  let from_scan =
    Rq_core.Robust_estimator.estimate estimator ~successes:k ~trials:n
    *. float_of_int (Rq_stats.Join_synopsis.root_size syn)
  in
  let after = estimate damaged in
  check_close 1e-9 "damaged store = row scan of the damaged synopsis" from_scan after;
  check_bool
    (Printf.sprintf "stale evidence not served: before %.1f, after %.1f" before after)
    true
    (Float.abs (before -. after) > 1e-6);
  check_close 1e-9 "original store unaffected" before (estimate stats)

let test_group_count_estimates () =
  let catalog = fixture ~rows:5000 () in
  let stats = build_stats catalog 80 in
  let estimator =
    Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.median ()
  in
  let robust = Cardinality.robust stats estimator in
  let refs = [ Logical.scan "readings"; Logical.scan "sites" ] in
  let groups = robust.Cardinality.group_count refs [ "sites.zone" ] in
  check_bool (Printf.sprintf "zone groups ~5, got %.1f" groups) true
    (groups >= 4.0 && groups <= 7.0);
  let oracle = Cardinality.oracle catalog in
  check_close 1e-9 "oracle group count" 5.0 (oracle.Cardinality.group_count refs [ "sites.zone" ])

(* ------------------------------------------------------------------ *)
(* Costing                                                             *)
(* ------------------------------------------------------------------ *)

let test_costing_monotone_in_selectivity () =
  let catalog = fixture ~rows:5000 () in
  let oracle = Cardinality.oracle catalog in
  let isect_cost lo =
    let pred = Pred.ge (Expr.col "temp") (Expr.int lo) in
    Costing.plan_cost catalog oracle
      (Plan.Scan
         {
           table = "readings";
           access =
             Plan.Index_intersect
               [
                 { Plan.column = "temp"; lo = Some (v_int lo); hi = None };
                 { Plan.column = "alert"; lo = Some (v_int 0); hi = None };
               ];
           pred;
         })
  in
  check_bool "wider range costs more" true (isect_cost 100 > isect_cost 900)

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

let test_fixed_selectivity_and_crossovers () =
  let catalog = fixture ~rows:20_000 () in
  let scan = Plan.Scan { table = "readings"; access = Plan.Seq_scan; pred = correlated_pred } in
  let isect =
    Plan.Scan
      {
        table = "readings";
        access =
          Plan.Index_intersect
            [
              { Plan.column = "temp"; lo = Some (v_int 980); hi = None };
              { Plan.column = "alert"; lo = Some (v_int 1); hi = Some (v_int 1) };
            ];
        pred = correlated_pred;
      }
  in
  (* Scan cost is flat in assumed selectivity; intersection rises. *)
  let curve plan = Costing.cost_curve catalog ~selectivities:[ 0.001; 0.5 ] plan in
  (match curve scan with
  | [ (_, lo); (_, hi) ] ->
      check_bool "scan flat" true (hi -. lo < 0.1 *. Float.max lo 1e-9)
  | _ -> Alcotest.fail "two points expected");
  (match curve isect with
  | [ (_, lo); (_, hi) ] -> check_bool "intersection rises" true (hi > 2.0 *. lo)
  | _ -> Alcotest.fail "two points expected");
  (* Exactly one crossover, at a low selectivity. *)
  (match Costing.crossover_points catalog ~grid:2000 scan isect with
  | [ s ] -> check_bool (Printf.sprintf "crossover at %.4f" s) true (s > 0.0 && s < 0.1)
  | other -> Alcotest.failf "expected one crossover, got %d" (List.length other));
  check_bool "fixed estimator validates input" true
    (try
       ignore (Cardinality.fixed_selectivity catalog 1.5);
       false
     with Invalid_argument _ -> true)

let test_sargable_extraction () =
  let pred =
    Pred.conj
      [
        Pred.ge (Expr.col "a") (Expr.int 10);
        Pred.le (Expr.col "a") (Expr.int 20);
        Pred.eq (Expr.col "b") (Expr.int 5);
        Pred.Contains (Expr.col "c", "x");
      ]
  in
  let ranges = Enumerate.sargable_ranges pred in
  check_int "two sargable columns" 2 (List.length ranges);
  (match List.assoc_opt "a" (List.map (fun (c, lo, hi) -> (c, (lo, hi))) ranges) with
  | Some (Some (Value.Int 10), Some (Value.Int 20)) -> ()
  | _ -> Alcotest.fail "merged range for a");
  match List.assoc_opt "b" (List.map (fun (c, lo, hi) -> (c, (lo, hi))) ranges) with
  | Some (Some (Value.Int 5), Some (Value.Int 5)) -> ()
  | _ -> Alcotest.fail "equality range for b"

let test_access_path_enumeration () =
  let catalog = fixture () in
  let paths = Enumerate.access_paths catalog { Logical.table = "readings"; pred = correlated_pred } in
  (* seq scan + 2 single-index ranges + 1 two-index intersection. *)
  check_int "path count" 4 (List.length paths);
  check_bool "includes seq scan" true
    (List.exists (function Plan.Scan { access = Plan.Seq_scan; _ } -> true | _ -> false) paths);
  check_bool "includes intersection" true
    (List.exists
       (function Plan.Scan { access = Plan.Index_intersect _; _ } -> true | _ -> false)
       paths)

let test_optimizer_picks_cheapest_alternative () =
  let catalog = fixture ~rows:5000 () in
  let stats = build_stats catalog 81 in
  let opt = Optimizer.robust stats in
  let q = Logical.query [ Logical.scan ~pred:correlated_pred "readings" ] in
  let d = Optimizer.optimize_exn opt q in
  match d.Optimizer.alternatives with
  | [] -> Alcotest.fail "no alternatives"
  | (_, best_cost) :: rest ->
      check_close 1e-9 "chosen = cheapest" best_cost d.Optimizer.estimated_cost;
      List.iter (fun (_, c) -> check_bool "sorted ascending" true (c >= best_cost)) rest

let test_plan_choice_shifts_with_threshold () =
  (* Correlated predicates, truth ~2%: AVI says 0.04% (risky plan); the
     robust estimator at a high threshold must refuse the index plan. *)
  let catalog = fixture ~rows:50_000 () in
  let stats = build_stats ~sample_size:200 catalog 82 in
  let choose t =
    let opt = Optimizer.robust ~confidence:(Rq_core.Confidence.of_percent t) stats in
    let q = Logical.query [ Logical.scan ~pred:correlated_pred "readings" ] in
    Plan.describe (Optimizer.optimize_exn opt q).Optimizer.plan
  in
  let baseline =
    let opt = Optimizer.baseline stats in
    let q = Logical.query [ Logical.scan ~pred:correlated_pred "readings" ] in
    Plan.describe (Optimizer.optimize_exn opt q).Optimizer.plan
  in
  Alcotest.(check string) "baseline falls for AVI" "IdxIsect(readings)" baseline;
  Alcotest.(check string) "conservative robust scans" "Scan(readings)" (choose 95.0)

let test_join_enumeration_produces_joins () =
  let catalog = fixture ~rows:2000 () in
  let stats = build_stats catalog 83 in
  let opt = Optimizer.robust stats in
  let q =
    Logical.query
      [ Logical.scan "readings"; Logical.scan ~pred:(Pred.eq (Expr.col "zone") (Expr.int 0)) "sites" ]
  in
  let d = Optimizer.optimize_exn opt q in
  check_bool "plan references both tables" true
    (List.sort compare (Plan.base_tables d.Optimizer.plan) = [ "readings"; "sites" ]);
  check_bool "plan validates" true (Result.is_ok (Plan.validate catalog d.Optimizer.plan))

let test_oracle_optimizer_low_regret () =
  (* With exact cardinalities, the chosen plan's MEASURED time must be near
     the best measured time over all enumerated candidates — the cost model
     predicts the executor's counters (test_stream's counter-parity law)
     closely enough for the argmin to carry over. *)
  let catalog = fixture ~rows:20_000 () in
  let stats = build_stats catalog 86 in
  let oracle = Cardinality.oracle catalog in
  let opt = Optimizer.create stats oracle in
  List.iter
    (fun pred ->
      let q = Logical.query [ Logical.scan ~pred "readings" ] in
      let decision = Optimizer.optimize_exn opt q in
      let measure plan =
        let meter = Cost.create () in
        ignore (Executor.run catalog meter plan);
        (Cost.snapshot meter).Cost.seconds
      in
      let chosen = measure decision.Optimizer.plan in
      let best =
        Enumerate.access_paths catalog { Logical.table = "readings"; pred }
        |> List.map measure
        |> List.fold_left Float.min infinity
      in
      check_bool
        (Printf.sprintf "regret %.2fx" (chosen /. best))
        true
        (chosen <= best *. 1.6))
    [
      correlated_pred;
      Pred.ge (Expr.col "temp") (Expr.int 999);
      Pred.ge (Expr.col "temp") (Expr.int 0);
      Pred.conj [ Pred.eq (Expr.col "temp") (Expr.int 5); Pred.eq (Expr.col "alert") (Expr.int 0) ];
    ]

let test_optimize_invalid_query () =
  let catalog = fixture () in
  let stats = build_stats catalog 84 in
  let opt = Optimizer.robust stats in
  check_bool "invalid query is an error" true
    (Result.is_error (Optimizer.optimize opt (Logical.query [ Logical.scan "missing" ])))

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_explain_analyze () =
  let catalog = fixture ~rows:2000 () in
  let oracle = Cardinality.oracle catalog in
  let plan =
    Plan.Aggregate
      {
        input = Plan.Scan { table = "readings"; access = Plan.Seq_scan; pred = correlated_pred };
        group_by = [];
        aggs = [ { Plan.fn = Plan.Count_star; output_name = "n" } ];
      }
  in
  let nodes = Explain_analyze.collect catalog oracle plan in
  check_int "two nodes" 2 (List.length nodes);
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf "%s q-error %.2f is perfect under the oracle" n.Explain_analyze.label
           n.Explain_analyze.q_error)
        true
        (n.Explain_analyze.q_error < 1.01))
    nodes;
  (* A deliberately wrong estimator shows up as q-error. *)
  let wrong = Cardinality.fixed_selectivity catalog 0.5 in
  let scan_node =
    List.nth (Explain_analyze.collect catalog wrong plan) 1
  in
  check_bool "bad estimate exposed" true (scan_node.Explain_analyze.q_error > 5.0);
  let rendered = Explain_analyze.render catalog oracle plan in
  check_bool "render mentions operators" true (string_contains rendered "SeqScan(readings)");
  check_bool "render reports time" true (string_contains rendered "total simulated execution")

let prop_random_query_pipeline =
  (* Random single-table conjunctive queries: whatever plan the optimizer
     chooses (under the robust estimator and a random threshold), executing
     it returns exactly the rows the naive oracle computes. *)
  let catalog = fixture ~rows:1500 () in
  let stats = build_stats ~sample_size:200 catalog 88 in
  QCheck.Test.make ~name:"optimize+execute = naive on random queries" ~count:40
    QCheck.(quad (int_range 0 999) (int_range 0 999) (int_range 0 1) (float_range 0.05 0.95))
    (fun (b1, b2, alert, t) ->
      let lo = min b1 b2 and hi = max b1 b2 in
      let pred =
        Pred.conj
          [
            Pred.between (Expr.col "temp") (Expr.int lo) (Expr.int hi);
            Pred.eq (Expr.col "alert") (Expr.int alert);
          ]
      in
      let query = Logical.query [ Logical.scan ~pred "readings" ] in
      let opt =
        Optimizer.robust ~confidence:(Rq_core.Confidence.of_fraction t) stats
      in
      let decision = Optimizer.optimize_exn opt query in
      let result, _ = Executor.run_timed catalog decision.Optimizer.plan in
      let naive = Naive.evaluate catalog query.Logical.tables in
      let ids (res : Executor.result) =
        let pos = Schema.index_of res.Executor.schema "readings.r_id" in
        Array.to_list (Array.map (fun tup -> Value.to_string tup.(pos)) res.Executor.tuples)
        |> List.sort compare
      in
      ids result = ids naive)

let test_explain_output () =
  let catalog = fixture ~rows:2000 () in
  let stats = build_stats catalog 85 in
  let opt = Optimizer.robust stats in
  let q = Logical.query [ Logical.scan ~pred:correlated_pred "readings" ] in
  match Optimizer.explain opt q with
  | Error e -> Alcotest.fail e
  | Ok report ->
      check_bool "names the estimator" true (string_contains report "robust-sampling");
      check_bool "lists alternatives" true (string_contains report "alternatives")

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let fingerprint_of opt q =
  Rq_sql.Fingerprint.to_key
    (Rq_sql.Fingerprint.of_logical ~estimator:(Optimizer.estimator opt).Cardinality.name q)

let cache_query ?(threshold = 980) () =
  Logical.query
    [
      Logical.scan ~pred:(Pred.ge (Expr.col "temp") (Expr.int threshold)) "readings";
      Logical.scan "sites";
    ]

let outcome_of = function
  | Ok (_, outcome) -> Plan_cache.outcome_to_string outcome
  | Error e -> Alcotest.fail e

let test_cache_hit_on_repeat () =
  let catalog = fixture () in
  let stats = build_stats catalog 90 in
  let opt = Optimizer.robust stats in
  let cache = Plan_cache.create () in
  let q = cache_query () in
  let fingerprint = fingerprint_of opt q in
  Alcotest.(check string) "first sighting misses" "miss"
    (outcome_of (Plan_cache.find_or_optimize cache opt ~fingerprint q));
  (* Same logical query written with the tables in the other order: the
     fingerprint normalizes it to the same key. *)
  let q' =
    Logical.query
      [
        Logical.scan "sites";
        Logical.scan ~pred:(Pred.ge (Expr.col "temp") (Expr.int 980)) "readings";
      ]
  in
  Alcotest.(check string) "commuted repeat hits" "hit"
    (outcome_of (Plan_cache.find_or_optimize cache opt ~fingerprint:(fingerprint_of opt q') q'));
  let s = Plan_cache.stats cache in
  check_int "one hit" 1 s.Plan_cache.hits;
  check_int "one miss" 1 s.Plan_cache.misses;
  check_close 1e-9 "hit rate" 0.5 (Plan_cache.hit_rate s);
  check_int "one live entry" 1 (Plan_cache.length cache)

let test_cache_invalidated_by_refresh () =
  let catalog = fixture () in
  let m = Rq_stats.Maintenance.create (Rq_math.Rng.create 91) catalog in
  let cache = Plan_cache.create () in
  let obs = Rq_obs.Recorder.create () in
  let q = cache_query () in
  let lookup () =
    let opt = Optimizer.robust (Rq_stats.Maintenance.stats m) in
    outcome_of (Plan_cache.find_or_optimize ~obs cache opt ~fingerprint:(fingerprint_of opt q) q)
  in
  Alcotest.(check string) "miss" "miss" (lookup ());
  Alcotest.(check string) "hit before refresh" "hit" (lookup ());
  Rq_stats.Maintenance.refresh m;
  (* The refresh redrew every sample: serving the old plan would replay a
     decision made against statistics that no longer exist. *)
  Alcotest.(check string) "invalidated after refresh" "invalidated" (lookup ());
  Alcotest.(check string) "hit again after re-optimization" "hit" (lookup ());
  let outcomes =
    List.filter_map
      (function
        | Rq_obs.Trace.Plan_cache { outcome; _ } -> Some outcome
        | _ -> None)
      (Rq_obs.Recorder.events obs)
  in
  Alcotest.(check (list string)) "trace records the re-optimization"
    [ "miss"; "hit"; "invalidated"; "hit" ] outcomes

(* A miss optimizes through the cache, so the rewrite pass's events reach
   the caller's recorder next to the lookup's own; a hit rewrites nothing. *)
let test_cache_miss_records_rewrites () =
  let catalog = fixture () in
  let stats = build_stats catalog 93 in
  let opt = Optimizer.robust stats in
  let cache = Plan_cache.create () in
  let obs = Rq_obs.Recorder.create () in
  (* The residual conjunct names one table: filter-pushdown moves it. *)
  let q =
    Logical.query
      ~residual:(Pred.ge (Expr.col "readings.temp") (Expr.int 980))
      [ Logical.scan "readings"; Logical.scan "sites" ]
  in
  let lookup () =
    outcome_of (Plan_cache.find_or_optimize ~obs cache opt ~fingerprint:(fingerprint_of opt q) q)
  in
  let rewrites () =
    List.length
      (List.filter
         (function Rq_obs.Trace.Rewrite_applied _ -> true | _ -> false)
         (Rq_obs.Recorder.events obs))
  in
  Alcotest.(check string) "miss" "miss" (lookup ());
  let after_miss = rewrites () in
  check_bool "the miss recorded its rewrites" true (after_miss > 0);
  Alcotest.(check string) "hit" "hit" (lookup ());
  check_int "the hit rewrote nothing" after_miss (rewrites ())

let test_cache_survives_unrelated_injection () =
  let catalog = fixture () in
  let stats = build_stats catalog 92 in
  let opt = Optimizer.robust stats in
  let cache = Plan_cache.create () in
  let sites_q = Logical.query [ Logical.scan ~pred:(Pred.eq (Expr.col "zone") (Expr.int 2)) "sites" ] in
  let readings_q = cache_query () in
  ignore (Plan_cache.find_or_optimize cache opt ~fingerprint:(fingerprint_of opt sites_q) sites_q);
  ignore (Plan_cache.find_or_optimize cache opt ~fingerprint:(fingerprint_of opt readings_q) readings_q);
  (* Damage only the readings synopsis: per-table version granularity must
     keep the sites entry servable while invalidating the readings one. *)
  let damaged =
    Rq_stats.Fault.apply (Rq_math.Rng.create 93) stats [ Rq_stats.Fault.Drop_synopsis "readings" ]
  in
  let opt' = Optimizer.robust damaged in
  Alcotest.(check string) "unrelated entry still hits" "hit"
    (outcome_of (Plan_cache.find_or_optimize cache opt' ~fingerprint:(fingerprint_of opt' sites_q) sites_q));
  Alcotest.(check string) "damaged root's entry invalidated" "invalidated"
    (outcome_of
       (Plan_cache.find_or_optimize cache opt' ~fingerprint:(fingerprint_of opt' readings_q) readings_q))

let test_cache_lru_eviction () =
  let catalog = fixture () in
  let stats = build_stats catalog 94 in
  let opt = Optimizer.robust stats in
  let cache = Plan_cache.create ~capacity:2 () in
  let qa = cache_query ~threshold:900 () in
  let qb = cache_query ~threshold:950 () in
  let qc = cache_query ~threshold:990 () in
  let run q = ignore (Plan_cache.find_or_optimize cache opt ~fingerprint:(fingerprint_of opt q) q) in
  run qa;
  run qb;
  run qa;  (* touch A so B is the least recently used *)
  run qc;  (* capacity 2: inserting C must evict B, not A *)
  check_bool "A survives (recently used)" true (Plan_cache.mem cache opt ~fingerprint:(fingerprint_of opt qa));
  check_bool "B evicted (least recently used)" false (Plan_cache.mem cache opt ~fingerprint:(fingerprint_of opt qb));
  check_bool "C present" true (Plan_cache.mem cache opt ~fingerprint:(fingerprint_of opt qc));
  check_int "bounded by capacity" 2 (Plan_cache.length cache);
  let s = Plan_cache.stats cache in
  check_int "one eviction" 1 s.Plan_cache.evictions;
  check_int "one hit (the touch)" 1 s.Plan_cache.hits;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Plan_cache.create: capacity must be positive") (fun () ->
      ignore (Plan_cache.create ~capacity:0 ()))

(* Regression: re-optimizing an invalidated entry while the cache sits at
   capacity re-inserts under the same key; that must never evict an
   innocent sibling entry. *)
let test_cache_reinsert_at_capacity_evicts_nothing () =
  let catalog = fixture () in
  let m = Rq_stats.Maintenance.create (Rq_math.Rng.create 96) catalog in
  let cache = Plan_cache.create ~capacity:2 () in
  let qa = cache_query ~threshold:900 () in
  let qb = cache_query ~threshold:950 () in
  let lookup q =
    let opt = Optimizer.robust (Rq_stats.Maintenance.stats m) in
    outcome_of (Plan_cache.find_or_optimize cache opt ~fingerprint:(fingerprint_of opt q) q)
  in
  ignore (lookup qa);
  ignore (lookup qb);
  check_int "cache at capacity" 2 (Plan_cache.length cache);
  (* The refresh stales both entries; re-optimizing A re-inserts its key. *)
  Rq_stats.Maintenance.refresh m;
  Alcotest.(check string) "A re-optimized in place" "invalidated" (lookup qa);
  let opt = Optimizer.robust (Rq_stats.Maintenance.stats m) in
  check_bool "B's entry was not evicted" true
    (Plan_cache.mem cache opt ~fingerprint:(fingerprint_of opt qb));
  check_int "still at capacity" 2 (Plan_cache.length cache);
  check_int "no evictions" 0 (Plan_cache.stats cache).Plan_cache.evictions;
  Alcotest.(check string) "A now hits" "hit" (lookup qa)

let test_cache_never_caches_errors () =
  let catalog = fixture () in
  let stats = build_stats catalog 95 in
  let opt = Optimizer.robust stats in
  let cache = Plan_cache.create () in
  let bad = Logical.query [ Logical.scan "missing" ] in
  let fingerprint = fingerprint_of opt bad in
  check_bool "validation failure surfaces" true
    (Result.is_error (Plan_cache.find_or_optimize cache opt ~fingerprint bad));
  check_bool "error not cached" false (Plan_cache.mem cache opt ~fingerprint);
  check_int "cache stays empty" 0 (Plan_cache.length cache)

(* Two float literals that agree to six significant digits, straddling
   the stored quantity 25: each lookup must miss and count its own rows.
   When fingerprints printed literals with [%g], both queries shared one
   key and the second was served the first one's plan. *)
let test_cache_keeps_float_literals_apart () =
  let catalog = Rq_workload.Tpch.generate (Rq_math.Rng.create 1) () in
  let stats = Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create 2) catalog in
  let opt = Optimizer.robust stats in
  let cache = Plan_cache.create () in
  List.iter
    (fun literal ->
      let q =
        Logical.query
          [
            Logical.scan
              ~pred:(Pred.lt (Expr.col "l_quantity") (Expr.Const (Value.Float literal)))
              "lineitem";
          ]
      in
      match Plan_cache.find_or_optimize cache opt ~fingerprint:(fingerprint_of opt q) q with
      | Error e -> Alcotest.fail e
      | Ok (d, outcome) ->
          let label = Printf.sprintf "l_quantity < %.7f" literal in
          Alcotest.(check string) (label ^ " misses") "miss"
            (Plan_cache.outcome_to_string outcome);
          let result, _ = Executor.run_timed catalog d.Optimizer.plan in
          check_int (label ^ " counts its own rows")
            (Naive.cardinality catalog q.Logical.tables)
            (Array.length result.Executor.tuples))
    [ 25.0000001; 24.9999999 ]

(* ------------------------------------------------------------------ *)
(* The bitset evidence kernel against the row-scan reference           *)
(* ------------------------------------------------------------------ *)

(* TPC-H SF 0.004 with 500-row synopses (seed 11).  The Experiment-1
   windows share their base shipdate atom and the Experiment-2 queries
   share the join template: the repeated atoms the kernel's bitmaps
   cache. *)
let kernel_world =
  lazy
    (let rng = Rq_math.Rng.create 11 in
     let params = { Rq_workload.Tpch.default_params with scale_factor = 0.004 } in
     let catalog = Rq_workload.Tpch.generate (Rq_math.Rng.split rng) ~params () in
     let config = { Rq_stats.Stats_store.default_config with sample_size = 500 } in
     Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng) ~config catalog)

let exp2_queries () =
  List.map (fun bucket -> Rq_workload.Tpch.exp2_query ~bucket) [ 0; 250; 500; 750; 999 ]

let kernel_synopsis stats =
  Option.get (Rq_stats.Stats_store.synopsis_for stats [ "lineitem"; "orders"; "part" ])

let evidence_pool () =
  List.map Logical.combined_predicate
    (List.map (fun offset -> Rq_workload.Tpch.exp1_query ~offset) [ 30; 45; 60; 75; 90 ]
    @ exp2_queries ())

let robust_at stats percent =
  Cardinality.robust stats
    (Rq_core.Robust_estimator.create ~confidence:(Rq_core.Confidence.of_percent percent) ())

(* Same (k, n) as the row scan on every pooled predicate, cold and from
   cached bitmaps. *)
let test_kernel_matches_scan () =
  let stats = Lazy.force kernel_world in
  let syn = kernel_synopsis stats in
  for ask = 1 to 2 do
    List.iter
      (fun pred ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "evidence of %s, ask %d" (Pred.render pred) ask)
          (scan_evidence syn pred)
          (Rq_stats.Join_synopsis.evidence syn pred))
      (evidence_pool ())
  done

(* GEE group counts stream the matching rows off the kernel's bitmap: the
   stream must be exactly the sample rows the compiled predicate accepts,
   in sample order, and the group count GEE's estimate over them — for a
   predicate no sample row satisfies (k = 0) and on a repeated ask (warm
   bitmaps) alike. *)
let test_kernel_group_counts_match_scan () =
  let stats = Lazy.force kernel_world in
  let kernel = robust_at stats 80.0 in
  let lineitem pred = Logical.scan ~pred "lineitem" in
  let never = [ lineitem (Pred.lt (Expr.col "l_quantity") (Expr.Const (Value.Float (-1.0)))) ] in
  let cases =
    [
      ([ lineitem Pred.True; Logical.scan "orders"; Logical.scan "part" ], [ "part.p_brand" ]);
      ( [
          lineitem (Pred.lt (Expr.col "l_quantity") (Expr.Const (Value.Float 10.5)));
          Logical.scan "orders";
        ],
        [ "orders.o_custkey"; "lineitem.l_quantity" ] );
      ( [
          Logical.scan ~pred:(Pred.between (Expr.col "p_bucket") (Expr.int 0) (Expr.int 99)) "part";
        ],
        [ "part.p_size" ] );
      (never, [ "lineitem.l_partkey" ]);
    ]
  in
  List.iteri
    (fun i (refs, group_by) ->
      let syn =
        Option.get (Rq_stats.Stats_store.synopsis_for stats (Logical.table_names (Logical.query refs)))
      in
      let pred =
        Pred.conj
          (List.map
             (fun (r : Logical.table_ref) ->
               Pred.rename_columns (fun c -> r.Logical.table ^ "." ^ c) r.Logical.pred)
             refs)
      in
      let rows = Rq_stats.Sample.rows (Rq_stats.Join_synopsis.sample syn) in
      let scanned =
        List.of_seq (Seq.filter (Pred.compile (Relation.schema rows) pred) (Relation.to_seq rows))
      in
      for ask = 1 to 2 do
        let context = Printf.sprintf "case %d, ask %d" i ask in
        check_bool (context ^ ": matching rows = row scan, in order") true
          (List.of_seq (Rq_stats.Join_synopsis.matching_rows syn pred) = scanned);
        let expected =
          if scanned = [] then 1.0
          else
            let population_size =
              int_of_float (Float.max 1.0 (kernel.Cardinality.expression_cardinality refs))
            in
            Rq_stats.Distinct.estimate_groups_seq ~schema:(Relation.schema rows) ~columns:group_by
              ~population_size (List.to_seq scanned)
        in
        Alcotest.(check (float 0.0)) (context ^ ": group count") expected
          (kernel.Cardinality.group_count refs group_by)
      done)
    cases;
  check_close 0.0 "no matching sample row: one group" 1.0
    (kernel.Cardinality.group_count never [ "lineitem.l_partkey" ])

(* Process CPU seconds of [f], from a collected heap, so that no arm pays
   for collecting another arm's garbage. *)
let cpu_seconds f =
  Gc.full_major ();
  let t0 = Sys.time () in
  f ();
  Sys.time () -. t0

(* Five repetitions of three arms, the arm order reversed on every other
   repetition; each bound compares per-arm medians.  Each arm makes 60
   passes over the pool: cold drops the bitmaps before every pass, warm
   keeps them, scan counts the sample rows that satisfy each predicate,
   compiled once before timing. *)
let test_kernel_beats_scan () =
  let stats = Lazy.force kernel_world in
  let syn = kernel_synopsis stats in
  let preds = evidence_pool () in
  let rows = Rq_stats.Sample.rows (Rq_stats.Join_synopsis.sample syn) in
  let checks = List.map (Pred.compile (Relation.schema rows)) preds in
  let cold () =
    cpu_seconds (fun () ->
        for _ = 1 to 60 do
          Rq_stats.Join_synopsis.clear_kernel syn;
          List.iter (fun p -> ignore (Rq_stats.Join_synopsis.evidence syn p)) preds
        done)
  in
  let warm () =
    List.iter (fun p -> ignore (Rq_stats.Join_synopsis.evidence syn p)) preds;
    cpu_seconds (fun () ->
        for _ = 1 to 60 do
          List.iter (fun p -> ignore (Rq_stats.Join_synopsis.evidence syn p)) preds
        done)
  in
  let scan () =
    cpu_seconds (fun () ->
        for _ = 1 to 60 do
          List.iter (fun check -> ignore (Relation.filter_count rows check)) checks
        done)
  in
  let arms = [ cold; warm; scan ] in
  let samples = Array.make (List.length arms) [] in
  for rep = 0 to 4 do
    let order = List.mapi (fun i arm -> (i, arm)) arms in
    List.iter
      (fun (i, arm) -> samples.(i) <- arm () :: samples.(i))
      (if rep mod 2 = 0 then order else List.rev order)
  done;
  let median i = Rq_math.Summary.percentile (Array.of_list samples.(i)) 0.5 in
  let cold = median 0 and warm = median 1 and scan = median 2 in
  let warm_vs_scan = scan /. warm and warm_vs_cold = cold /. warm in
  let per_query seconds = 1e6 *. seconds /. float_of_int (60 * List.length preds) in
  Printf.printf "evidence us/query: cold %.2f warm %.3f scan %.1f\nwarm/scan %.1fx  warm/cold %.1fx\n"
    (per_query cold) (per_query warm) (per_query scan) warm_vs_scan warm_vs_cold;
  let bounds =
    [
      (warm_vs_scan >= 5.0, Printf.sprintf "warm evidence %.1fx the row scan (>= 5x)" warm_vs_scan);
      (warm < cold, Printf.sprintf "warm evidence %.1fx cold (> 1x)" warm_vs_cold);
    ]
  in
  Alcotest.(check (list string))
    "bounds missed" []
    (List.filter_map (fun (ok, bound) -> if ok then None else Some bound) bounds)

let () =
  Alcotest.run "rq_optimizer"
    [
      ( "logical",
        [
          Alcotest.test_case "validation" `Quick test_logical_validate;
          Alcotest.test_case "root detection" `Quick test_logical_root;
          Alcotest.test_case "connected subsets" `Quick test_logical_connected_subsets;
          Alcotest.test_case "combined predicate" `Quick test_logical_combined_predicate;
        ] );
      ( "naive",
        [
          Alcotest.test_case "single table" `Quick test_naive_single_table;
          Alcotest.test_case "join preserves root" `Quick test_naive_join_cardinality;
          Alcotest.test_case "filtered join" `Quick test_naive_join_filtered;
          Alcotest.test_case "semijoin and residual" `Quick test_naive_semijoin_residual;
          Alcotest.test_case "grouped aggregates" `Quick test_naive_grouped_aggregates;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "oracle is exact" `Quick test_oracle_estimator_is_exact;
          Alcotest.test_case "robust beats AVI on correlation" `Quick
            test_robust_beats_avi_on_correlation;
          Alcotest.test_case "join estimate" `Quick test_robust_join_estimate;
          Alcotest.test_case "threshold ordering" `Quick test_estimator_threshold_ordering;
          Alcotest.test_case "sample-ML ablation estimator" `Quick test_sample_ml_estimator;
          Alcotest.test_case "group counts" `Quick test_group_count_estimates;
          Alcotest.test_case "fault injection invalidates shared memo" `Quick
            test_memo_invalidated_by_fault;
        ] );
      ( "costing",
        [
          Alcotest.test_case "monotone in selectivity" `Quick test_costing_monotone_in_selectivity;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "fixed-selectivity curves and crossovers" `Quick
            test_fixed_selectivity_and_crossovers;
          Alcotest.test_case "sargable extraction" `Quick test_sargable_extraction;
          Alcotest.test_case "access paths" `Quick test_access_path_enumeration;
          Alcotest.test_case "picks the cheapest" `Quick test_optimizer_picks_cheapest_alternative;
          Alcotest.test_case "plan choice shifts with threshold" `Quick
            test_plan_choice_shifts_with_threshold;
          Alcotest.test_case "join enumeration" `Quick test_join_enumeration_produces_joins;
          Alcotest.test_case "oracle optimizer has low regret" `Quick
            test_oracle_optimizer_low_regret;
          Alcotest.test_case "invalid query" `Quick test_optimize_invalid_query;
          Alcotest.test_case "explain" `Quick test_explain_output;
          Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
          QCheck_alcotest.to_alcotest prop_random_query_pipeline;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "hit on repeat (modulo commutation)" `Quick test_cache_hit_on_repeat;
          Alcotest.test_case "refresh invalidates" `Quick test_cache_invalidated_by_refresh;
          Alcotest.test_case "unrelated injection leaves hits servable" `Quick
            test_cache_survives_unrelated_injection;
          Alcotest.test_case "LRU eviction order and capacity" `Quick test_cache_lru_eviction;
          Alcotest.test_case "re-insert at capacity evicts nothing" `Quick
            test_cache_reinsert_at_capacity_evicts_nothing;
          Alcotest.test_case "errors are not cached" `Quick test_cache_never_caches_errors;
          Alcotest.test_case "a miss records its rewrite events" `Quick
            test_cache_miss_records_rewrites;
          Alcotest.test_case "float literals keep their own plans" `Quick
            test_cache_keeps_float_literals_apart;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "matches the row scan (evidence)" `Quick test_kernel_matches_scan;
          Alcotest.test_case "beats the row scan (median of 5)" `Quick test_kernel_beats_scan;
          Alcotest.test_case "group counts match the row scan" `Quick
            test_kernel_group_counts_match_scan;
        ] );
    ]
