(* Differential plan-correctness suite.

   Queries drawn from the fuzzer's generator ({!Rq_experiments.Exp_fuzz.gen_query}),
   SQL statements bound by {!Rq_sql.Binder.bind}, go through
   {!Rq_experiments.Differential.check}, which holds every
   differential pass and takes {!Naive.evaluate_query} as the reference
   answer.  Each generated-query group runs one pass, with one damaged
   statistics store per fault profile and morsel pools at 1, 2 and 4
   domains.  Whatever the estimation quality, the answers must agree: a bad
   estimate may pick a slow plan, never a wrong answer.  Fixed SQL and
   fixed plans cover what generated queries cannot: the ORDER BY/LIMIT
   surface through the binder, a spilled catalog against Naive on the heap,
   a zone-map-pruned plan per family against Naive, and the span tree's
   shape.

   The generator seed comes from DIFF_SEED (default 42); CI runs the suite
   under several seeds. *)

open Rq_exec
open Rq_optimizer
open Rq_workload
module D = Rq_experiments.Differential
module F = Rq_experiments.Exp_fuzz

let seed =
  match Sys.getenv_opt "DIFF_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

(* ------------------------------------------------------------------ *)
(* Generated queries through the harness                               *)
(* ------------------------------------------------------------------ *)

let queries_per_catalog = 12

let make_env catalog pools =
  let rng = Rq_math.Rng.create seed in
  let stats =
    Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng)
      ~config:{ Rq_stats.Stats_store.default_config with sample_size = 200 }
      catalog
  in
  let faulted =
    List.map
      (fun profile ->
        match Rq_stats.Fault.profile_injections (Rq_math.Rng.split rng) stats profile with
        | Ok injections ->
            (profile, Rq_stats.Fault.apply (Rq_math.Rng.split rng) stats injections)
        | Error e -> failwith (Printf.sprintf "fault profile %s did not expand: %s" profile e))
      Rq_stats.Fault.profile_names
  in
  { D.catalog; scale = 1.0; stats; faulted; pools }

(* Each group draws its own queries ([offset] moves the stream) and runs
   one pass; a failure names the pass, the DIFF_SEED and the query. *)
let run_pass pass ~offset workload env () =
  let rng = Rq_math.Rng.create (seed + offset) in
  for i = 1 to queries_per_catalog do
    let statement = F.gen_query rng workload in
    let context =
      Printf.sprintf "%s query %d (DIFF_SEED=%d)\nquery: %s" (F.workload_to_string workload) i
        seed (Rq_sql.Ast.to_sql statement)
    in
    let env = Lazy.force env in
    match
      Result.bind (Rq_sql.Binder.bind env.D.catalog statement) (fun { Rq_sql.Binder.query; _ } ->
          D.check ~passes:[ pass ] env query)
    with
    | Error e -> Alcotest.failf "%s: the harness refused the query: %s" context e
    | Ok { D.divergence = None; _ } -> ()
    | Ok { D.divergence = Some d; _ } ->
        Alcotest.failf "%s: pass %s diverged from Naive\n%s" context d.D.pass d.D.detail
  done

(* ------------------------------------------------------------------ *)
(* The harness catches what it must                                    *)
(* ------------------------------------------------------------------ *)

let test_row_swap_reported () =
  let open Rq_storage in
  let schema =
    Schema.create
      [ { Schema.name = "t.k"; ty = Value.T_int }; { Schema.name = "t.v"; ty = Value.T_int } ]
  in
  let result rows =
    { Executor.schema; tuples = Array.of_list (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) rows) }
  in
  let query =
    Logical.query ~order_by:[ { Plan.sort_column = "t.k"; descending = false } ] [ Logical.scan "t" ]
  in
  let reference = result [ (1, 10); (1, 11); (2, 20) ] in
  let verdict candidate = D.answer_mismatch query ~reference (result candidate) in
  Alcotest.(check bool) "in order" true (verdict [ (1, 10); (1, 11); (2, 20) ] = None);
  Alcotest.(check bool) "ties may reorder" true (verdict [ (1, 11); (1, 10); (2, 20) ] = None);
  Alcotest.(check bool) "row-swapped candidate reported" true
    (verdict [ (2, 20); (1, 10); (1, 11) ] <> None);
  Alcotest.(check bool) "different rows reported" true (verdict [ (1, 10); (1, 11); (2, 21) ] <> None)

(* An estimator whose estimate grows with every conjunct must fail CERT,
   and the honest one it wraps must pass. *)
let test_cert_catches_non_monotone env () =
  let env = Lazy.force env in
  let honest = List.assoc "robust-sampling" (D.estimators env.D.catalog env.D.stats) in
  let conjuncts (refs : Logical.table_ref list) =
    List.fold_left (fun n (r : Logical.table_ref) -> n + List.length (Pred.conjuncts r.Logical.pred)) 0 refs
  in
  let rising =
    {
      honest with
      Cardinality.name = "rising";
      expression_cardinality =
        (fun refs -> honest.Cardinality.expression_cardinality refs +. (1000.0 *. float_of_int (conjuncts refs)));
    }
  in
  let query =
    Logical.query
      [
        Logical.scan
          ~pred:
            (Pred.conj
               [ Pred.le (Expr.col "l_quantity") (Expr.int 20); Pred.gt (Expr.col "l_extendedprice") (Expr.float 1000.0) ])
          "lineitem";
      ]
  in
  Alcotest.(check (option string)) "honest estimator passes" None (D.cert_violation honest query);
  Alcotest.(check bool) "non-monotone estimator caught" true (D.cert_violation rising query <> None)

(* ------------------------------------------------------------------ *)
(* SQL text against the Naive oracle                                   *)
(* ------------------------------------------------------------------ *)

(* Fixed SQL through the whole pipeline — bind, optimize under every
   estimator, execute — against {!Naive.evaluate_query} on the bound
   query: the ORDER BY/LIMIT surface the generated queries above cannot
   reach, including sorting on a column the SELECT list drops. *)
let sql_queries =
  [
    "SELECT l_orderkey FROM lineitem WHERE l_quantity > 10 ORDER BY l_extendedprice LIMIT 5";
    "SELECT l_rowid FROM lineitem WHERE l_quantity <= 3 ORDER BY l_shipdate DESC, l_rowid";
    "SELECT l_rowid, o_orderdate FROM lineitem, orders WHERE o_totalprice > 100000 ORDER BY \
     o_totalprice, l_rowid LIMIT 20";
    "SELECT l_quantity, COUNT(*) AS n FROM lineitem GROUP BY l_quantity ORDER BY n DESC, \
     l_quantity LIMIT 7";
    "SELECT o_orderdate, SUM(l_extendedprice) AS rev FROM lineitem, orders WHERE l_quantity < \
     10 AND o_totalprice > 150000 GROUP BY o_orderdate ORDER BY rev DESC, o_orderdate LIMIT 10";
    "SELECT p_brand, COUNT(*) AS n, AVG(l_quantity) AS q FROM lineitem, part WHERE p_size < 10 \
     GROUP BY p_brand ORDER BY p_brand";
  ]

(* [oracle] holds the same data as [catalog] (by default it is [catalog]):
   the reference answer comes from it, the pipeline runs on [catalog]. *)
let run_sql_naive_differential ?oracle catalog () =
  let scale = 1.0 in
  let stats =
    Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create seed)
      ~config:{ Rq_stats.Stats_store.default_config with sample_size = 200 }
      catalog
  in
  List.iter
    (fun sql ->
      let statement =
        match Rq_sql.Parser.parse sql with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: %s" sql e
      in
      (* the printing law, on the fixed SQL: to_sql reads back to the
         statement it printed *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: parse (to_sql s) = s" sql)
        true
        (Rq_sql.Parser.parse (Rq_sql.Ast.to_sql statement) = Ok statement);
      let query =
        match Rq_sql.Binder.bind catalog statement with
        | Ok bound -> bound.Rq_sql.Binder.query
        | Error e -> Alcotest.failf "%s: bind error %s" sql e
      in
      let reference = Naive.evaluate_query (Option.value oracle ~default:catalog) query in
      List.iter
        (fun (name, estimator) ->
          match Optimizer.optimize (Optimizer.create ~scale stats estimator) query with
          | Error e -> Alcotest.failf "%s: %s rejected the query: %s" sql name e
          | Ok d -> (
              let result = Executor.run catalog (Cost.create ~scale ()) d.Optimizer.plan in
              match D.answer_mismatch query ~reference result with
              | None -> ()
              | Some detail -> Alcotest.failf "%s under %s (DIFF_SEED=%d): %s" sql name seed detail))
        (D.estimators catalog stats))
    sql_queries

(* The same SQL with lineitem and orders moved into spill files and a
   one-chunk buffer pool, against Naive on the heap twin: every scan faults
   chunks that decode only the columns the plan reads, and the pool evicts
   between nearly every pin, so decoding, column pruning and re-faulting
   all answer for the rows. *)
let spill_table catalog name =
  let open Rq_storage in
  let rel = Catalog.find_table catalog name in
  let b = Relation.Builder.create ~spill:true ~name ~schema:(Relation.schema rel) () in
  Relation.iter (fun _ tup -> Relation.Builder.add_row b tup) rel;
  Catalog.replace_table catalog (Relation.Builder.finish b)

let run_sql_naive_spilled ~heap spilled () =
  let open Rq_storage in
  let before =
    (Buffer_pool.global_stats ()).Buffer_pool.capacity_chunks * Page.pages_per_chunk
  in
  Buffer_pool.configure ~capacity_pages:Page.pages_per_chunk;
  Fun.protect
    ~finally:(fun () -> Buffer_pool.configure ~capacity_pages:before)
    (run_sql_naive_differential ~oracle:heap spilled)

(* ------------------------------------------------------------------ *)
(* Zone-map pruning per plan family                                    *)
(* ------------------------------------------------------------------ *)

(* One plan per executor family, over clustered bands the zone maps can
   prune, with the logical query it answers. *)
let prune_families tpch star =
  let li pred = Plan.Scan { table = "lineitem"; access = Plan.Seq_scan; pred } in
  let band = Pred.lt (Expr.col "l_orderkey") (Expr.int 300) in
  let orders_band_pred = Pred.lt (Expr.col "o_orderkey") (Expr.int 300) in
  let orders_band = Plan.Scan { table = "orders"; access = Plan.Seq_scan; pred = orders_band_pred } in
  let li_band = Logical.scan ~pred:band "lineitem" in
  let band_query = Logical.query [ li_band ] in
  let band_join = Logical.query [ li_band; Logical.scan ~pred:orders_band_pred "orders" ] in
  let partkey_range = Pred.between (Expr.col "l_partkey") (Expr.int 0) (Expr.int 2000) in
  let fact_pred = Pred.lt (Expr.col "f_id") (Expr.int 500) in
  let dim_pred = Pred.eq (Expr.col "d_filter") (Expr.int 0) in
  let dims = List.map (Printf.sprintf "dim%d") [ 1; 2; 3 ] in
  let aggs =
    [
      { Plan.fn = Plan.Count_star; output_name = "n" };
      { Plan.fn = Plan.Sum (Expr.col "lineitem.l_extendedprice"); output_name = "rev" };
    ]
  in
  let by_count = [ { Plan.sort_column = "n"; descending = true } ] in
  [
    ("seq-scan", tpch, li band, band_query);
    ( "index-range",
      tpch,
      Plan.Scan
        {
          table = "lineitem";
          access = Plan.Index_range { column = "l_orderkey"; lo = None; hi = Some (Rq_storage.Value.Int 300) };
          pred = band;
        },
      band_query );
    ( "index-intersect",
      tpch,
      Plan.Scan
        {
          table = "lineitem";
          access =
            Plan.Index_intersect
              [
                { column = "l_orderkey"; lo = None; hi = Some (Rq_storage.Value.Int 300) };
                { column = "l_partkey"; lo = Some (Rq_storage.Value.Int 0); hi = Some (Rq_storage.Value.Int 2000) };
              ];
          pred = band;
        },
      Logical.query [ Logical.scan ~pred:(Pred.conj [ band; partkey_range ]) "lineitem" ] );
    ( "hash-join",
      tpch,
      Plan.Hash_join
        {
          build = orders_band;
          probe = li band;
          build_key = "orders.o_orderkey";
          probe_key = "lineitem.l_orderkey";
        },
      band_join );
    ( "merge-join",
      tpch,
      Plan.Merge_join
        {
          left = li band;
          right = orders_band;
          left_key = "lineitem.l_orderkey";
          right_key = "orders.o_orderkey";
        },
      band_join );
    ( "indexed-nl-join",
      tpch,
      Plan.Indexed_nl_join
        {
          outer = li band;
          outer_key = "lineitem.l_orderkey";
          inner_table = "orders";
          inner_key = "o_orderkey";
          inner_pred = Pred.True;
        },
      Logical.query [ li_band; Logical.scan "orders" ] );
    ( "star-semijoin",
      star,
      Plan.Star_semijoin
        {
          fact = "fact";
          fact_pred;
          dims =
            List.mapi
              (fun i dim_table ->
                { Plan.dim_table; dim_pred; fact_fk = Printf.sprintf "f_dim%d" (i + 1) })
              dims;
        },
      Logical.query
        (Logical.scan ~pred:fact_pred "fact" :: List.map (Logical.scan ~pred:dim_pred) dims) );
    ( "agg-filter-project-sort",
      tpch,
      Plan.Sort
        {
          input =
            Plan.Aggregate
              {
                input =
                  Plan.Project
                    ( Plan.Filter (li band, Pred.True),
                      [ "lineitem.l_quantity"; "lineitem.l_extendedprice" ] );
                group_by = [ "lineitem.l_quantity" ];
                aggs;
              };
          keys = by_count;
        },
      Logical.query ~group_by:[ "lineitem.l_quantity" ] ~aggs ~order_by:by_count [ li_band ] );
    ( "guard-pass",
      tpch,
      Plan.Guard
        { input = li band; expected_rows = 2000.0; max_q_error = 1e9; label = "wide" },
      band_query );
  ]

(* Fixed plans covering every plan family, with predicates over clustered
   columns so zone maps genuinely skip chunks (asserted on the seq-scan
   family): each family's pruned answer must equal Naive's, which never
   prunes. *)
let run_prune_families tpch star () =
  List.iter
    (fun (name, cat, plan, query) ->
      (match Plan.validate cat plan with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (name ^ ": fixture plan invalid: " ^ msg));
      Option.iter (Alcotest.failf "%s: %s" name)
        (D.answer_mismatch query ~reference:(Naive.evaluate_query cat query)
           (Executor.run cat (Cost.create ()) plan)))
    (prune_families tpch star);
  (* The fixture must actually prune: the clustered band leaves most
     lineitem chunks disprovable by their zone maps. *)
  let meter = Cost.create () in
  let band = Pred.lt (Expr.col "l_orderkey") (Expr.int 300) in
  ignore
    (Executor.run tpch meter (Plan.Scan { table = "lineitem"; access = Plan.Seq_scan; pred = band }));
  if (Cost.snapshot meter).Cost.pages_skipped = 0 then
    Alcotest.fail "seq-scan family: zone maps skipped no pages on the clustered band"

(* An instrumented run spans every plan node once, children in
   [Plan.children] order: the span tree has the plan's shape.  Each family
   runs as is and with a never-firing guard above every input. *)
let rec guard_inputs plan =
  let guard input =
    Plan.Guard
      { input = guard_inputs input; expected_rows = 1.0; max_q_error = infinity; label = "g" }
  in
  match plan with
  | Plan.Hash_join j -> Plan.Hash_join { j with build = guard j.build; probe = guard j.probe }
  | Plan.Merge_join j -> Plan.Merge_join { j with left = guard j.left; right = guard j.right }
  | Plan.Indexed_nl_join j -> Plan.Indexed_nl_join { j with outer = guard j.outer }
  | Plan.Filter (input, pred) -> Plan.Filter (guard input, pred)
  | Plan.Project (input, cols) -> Plan.Project (guard input, cols)
  | Plan.Sort s -> Plan.Sort { s with input = guard s.input }
  | Plan.Aggregate a -> Plan.Aggregate { a with input = guard a.input }
  | Plan.Limit (input, n) -> Plan.Limit (guard input, n)
  | Plan.Guard g -> Plan.Guard { g with input = guard_inputs g.input }
  | Plan.Scan _ | Plan.Scan_resume _ | Plan.Materialized _ | Plan.Star_semijoin _
  | Plan.Append _ ->
      plan

let run_span_shape tpch star () =
  let rec check_shape name plan (span : Rq_obs.Recorder.span) =
    Alcotest.(check string) (name ^ ": span label") (Plan.node_label plan) span.label;
    let children = Plan.children plan in
    Alcotest.(check int)
      (Printf.sprintf "%s: children of %s" name span.label)
      (List.length children) (List.length span.children);
    List.iter2 (check_shape name) children span.children
  in
  List.iter
    (fun (name, cat, plan, _) ->
      List.iter
        (fun (name, plan) ->
          let obs = Rq_obs.Recorder.create () in
          ignore (Executor.run ~obs cat (Cost.create ()) plan);
          match Rq_obs.Recorder.roots obs with
          | [ root ] -> check_shape name plan root
          | roots -> Alcotest.failf "%s: %d root spans" name (List.length roots))
        [ (name, plan); (name ^ " guarded", guard_inputs plan) ])
    (prune_families tpch star)

let () =
  let rng = Rq_math.Rng.create (seed + 2) in
  let tpch_params = { Tpch.default_params with scale_factor = 0.003 } in
  let tpch_rng = Rq_math.Rng.split rng in
  let tpch = Tpch.generate (Rq_math.Rng.copy tpch_rng) ~params:tpch_params () in
  let tpch_spilled = Tpch.generate (Rq_math.Rng.copy tpch_rng) ~params:tpch_params () in
  List.iter (spill_table tpch_spilled) [ "lineitem"; "orders" ];
  let star_params = { Star.default_params with fact_rows = 5_000 } in
  let star = Star.generate (Rq_math.Rng.split rng) ~params:star_params () in
  let pools = lazy (List.map (fun domains -> Parallel.create ~domains ()) [ 1; 2; 4 ]) in
  at_exit (fun () -> if Lazy.is_val pools then List.iter Parallel.shutdown (Lazy.force pools));
  let tpch_env = lazy (make_env tpch (Lazy.force pools)) in
  let star_env = lazy (make_env star (Lazy.force pools)) in
  let both pass offset =
    [
      Alcotest.test_case "tpch" `Quick (run_pass pass ~offset F.Tpch tpch_env);
      Alcotest.test_case "star" `Quick (run_pass pass ~offset F.Star star_env);
    ]
  in
  Alcotest.run "differential"
    [
      ("estimators agree on results", both D.Estimators 0);
      ("cache agrees with cold optimization", both D.Cache 1);
      ( "sql agrees with naive",
        [
          Alcotest.test_case "tpch" `Quick (run_sql_naive_differential tpch);
          Alcotest.test_case "spilled tpch, one-chunk pool" `Quick
            (run_sql_naive_spilled ~heap:tpch tpch_spilled);
        ] );
      ("degraded statistics still answer correctly", both D.Degraded 5);
      ("rewrites preserve results", both D.Rewrites 6);
      ( "zone-map pruning is invisible",
        [ Alcotest.test_case "plan families" `Quick (run_prune_families tpch star) ] );
      ( "spans",
        [
          Alcotest.test_case "span tree follows Plan.children" `Quick
            (run_span_shape tpch star);
        ] );
      ("estimates never rise with a conjunct", both D.Cert 8);
      ( "harness catches planted faults",
        [
          Alcotest.test_case "row-swapped candidate is reported" `Quick test_row_swap_reported;
          Alcotest.test_case "non-monotone estimator fails CERT" `Quick
            (test_cert_catches_non_monotone tpch_env);
        ] );
    ]
