(* Observability suite: recorder span accounting, trace events, JSON
   round-trips, and the invariants the layer was built to enforce —
   EXPLAIN ANALYZE executes each operator exactly once, per-span self
   deltas reconcile with the meter's totals on every plan family, the
   [FIRES] label agrees with the executor's guard rule on boundary
   q-errors, and the cost meter's seconds are recomputable from its
   counters. *)

open Rq_storage
open Rq_exec
open Rq_obs
open Rq_optimizer

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* customers <- orders <- lineitems chain, with enough indexes that every
   access-path family (range, intersect, INL inner) is executable:
   orders.o_id, lineitems.l_order and lineitems.l_qty are indexed. *)
let chain_catalog () =
  let rng = Rq_math.Rng.create 17 in
  let catalog = Catalog.create () in
  let customers = 20 and orders = 200 and lineitems = 2000 in
  Catalog.add_table catalog ~primary_key:"c_id"
    (Relation.create ~name:"customers"
       ~schema:
         (Schema.create
            [ { Schema.name = "c_id"; ty = Value.T_int }; { Schema.name = "c_tier"; ty = Value.T_int } ])
       (Array.init customers (fun i -> [| v_int i; v_int (i mod 4) |])));
  Catalog.add_table catalog ~primary_key:"o_id"
    (Relation.create ~name:"orders"
       ~schema:
         (Schema.create
            [
              { Schema.name = "o_id"; ty = Value.T_int };
              { Schema.name = "o_cust"; ty = Value.T_int };
              { Schema.name = "o_status"; ty = Value.T_int };
            ])
       (Array.init orders (fun i ->
            [| v_int i; v_int (Rq_math.Rng.int rng customers); v_int (Rq_math.Rng.int rng 3) |])));
  Catalog.add_table catalog ~primary_key:"l_id"
    (Relation.create ~name:"lineitems"
       ~schema:
         (Schema.create
            [
              { Schema.name = "l_id"; ty = Value.T_int };
              { Schema.name = "l_order"; ty = Value.T_int };
              { Schema.name = "l_qty"; ty = Value.T_int };
            ])
       (Array.init lineitems (fun i ->
            [| v_int i; v_int (Rq_math.Rng.int rng orders); v_int (1 + Rq_math.Rng.int rng 50) |])));
  Catalog.add_foreign_key catalog
    { from_table = "orders"; from_column = "o_cust"; to_table = "customers"; to_column = "c_id" };
  Catalog.add_foreign_key catalog
    { from_table = "lineitems"; from_column = "l_order"; to_table = "orders"; to_column = "o_id" };
  Catalog.build_index catalog ~table:"orders" ~column:"o_id";
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_order";
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_qty";
  catalog

let fresh_stats catalog = Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create 41) catalog

let qty_pred = Pred.le (Expr.col "l_qty") (Expr.int 25)
let scan_lineitems access = Plan.Scan { table = "lineitems"; access; pred = qty_pred }
let scan_orders = Plan.Scan { table = "orders"; access = Plan.Seq_scan; pred = Pred.True }

let hash_join =
  Plan.Hash_join
    {
      build = scan_orders;
      probe = scan_lineitems Plan.Seq_scan;
      build_key = "orders.o_id";
      probe_key = "lineitems.l_order";
    }

let inl_join =
  Plan.Indexed_nl_join
    {
      outer = scan_lineitems Plan.Seq_scan;
      outer_key = "lineitems.l_order";
      inner_table = "orders";
      inner_key = "o_id";
      inner_pred = Pred.True;
    }

let two_join_query () =
  Logical.query
    [ Logical.scan ~pred:qty_pred "lineitems"; Logical.scan "orders" ]

let guarded_mat_plan catalog =
  Plan.Sort
    {
      input =
        Plan.Guard
          {
            input =
              Plan.Hash_join
                {
                  build =
                    Plan.Materialized
                      {
                        name = "mat";
                        schema =
                          Schema.qualify "orders"
                            (Relation.schema (Catalog.find_table catalog "orders"));
                        cols =
                          [|
                            Array.init 50 v_int;
                            Array.init 50 (fun i -> v_int (i mod 20));
                            Array.make 50 (v_int 0);
                          |];
                        n_rows = 50;
                        refs = [];
                      };
                  probe = scan_lineitems Plan.Seq_scan;
                  build_key = "orders.o_id";
                  probe_key = "lineitems.l_order";
                };
            expected_rows = 200.0;
            max_q_error = 1e9;
            label = "mat-join";
          };
      keys = [ { Plan.sort_column = "lineitems.l_id"; descending = false } ];
    }

(* Every plan family the executor knows: scans over all three access
   paths, all three join algorithms, the star semijoin, and a
   guard-over-materialized sandwich under a sort. *)
let plan_families catalog =
  let star =
    Rq_workload.Star.generate (Rq_math.Rng.create 23)
      ~params:{ Rq_workload.Star.default_params with fact_rows = 5000; dim_rows = 100 } ()
  in
  let dim i =
    {
      Plan.dim_table = Printf.sprintf "dim%d" i;
      dim_pred = Pred.eq (Expr.col "d_filter") (Expr.int 0);
      fact_fk = Printf.sprintf "f_dim%d" i;
    }
  in
  [
    ("seq-scan", catalog, scan_lineitems Plan.Seq_scan);
    ( "index-range",
      catalog,
      scan_lineitems
        (Plan.Index_range { column = "l_qty"; lo = None; hi = Some (v_int 25) }) );
    ( "index-intersect",
      catalog,
      scan_lineitems
        (Plan.Index_intersect
           [
             { column = "l_qty"; lo = None; hi = Some (v_int 25) };
             { column = "l_order"; lo = Some (v_int 0); hi = Some (v_int 100) };
           ]) );
    ("hash-join", catalog, hash_join);
    ( "merge-join",
      catalog,
      Plan.Merge_join
        {
          left = scan_lineitems Plan.Seq_scan;
          right = scan_orders;
          left_key = "lineitems.l_order";
          right_key = "orders.o_id";
        } );
    ("indexed-nl-join", catalog, inl_join);
    ( "star-semijoin",
      star,
      Plan.Star_semijoin { fact = "fact"; fact_pred = Pred.True; dims = [ dim 1; dim 2; dim 3 ] }
    );
    ("guard+materialized+sort", catalog, guarded_mat_plan catalog);
  ]

(* ------------------------------------------------------------------ *)
(* Span accounting                                                     *)
(* ------------------------------------------------------------------ *)

(* The load-bearing invariant: for every plan family, the per-span self
   deltas sum back to the meter's snapshot, counter for counter and to
   1e-9 in simulated seconds. *)
let test_span_reconciliation () =
  let catalog = chain_catalog () in
  List.iter
    (fun (name, cat, plan) ->
      (match Plan.validate cat plan with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (name ^ ": fixture plan invalid: " ^ msg));
      let recorder = Recorder.create () in
      let meter = Cost.create ~scale:2.5 () in
      let result = Executor.run ~obs:recorder cat meter plan in
      let roots = Recorder.roots recorder in
      check_int (name ^ ": one root span") 1 (List.length roots);
      let root = List.hd roots in
      check_int (name ^ ": root rows = result rows")
        (Array.length result.Executor.tuples)
        root.Recorder.rows;
      let metered = Cost.snapshot meter in
      check_bool (name ^ ": self deltas sum to the meter") true
        (Metrics.approx_equal ~tolerance:1e-9 (Recorder.sum_self roots) metered);
      check_bool (name ^ ": root total = meter") true
        (Metrics.approx_equal ~tolerance:1e-9 root.Recorder.total metered);
      check_bool (name ^ ": work was metered") true (metered.Metrics.seconds > 0.0))
    (plan_families catalog)

(* Children appear in execution order (build before probe) and self
   deltas never go negative. *)
let test_span_structure () =
  let catalog = chain_catalog () in
  let recorder = Recorder.create () in
  let meter = Cost.create () in
  ignore (Executor.run ~obs:recorder catalog meter hash_join);
  match Recorder.roots recorder with
  | [ root ] ->
      check_int "two children" 2 (List.length root.Recorder.children);
      check_bool "build span first" true
        ((List.nth root.Recorder.children 0).Recorder.label = "SeqScan(orders)");
      check_bool "probe span second" true
        ((List.nth root.Recorder.children 1).Recorder.label = "SeqScan(lineitems)");
      List.iter
        (fun (s : Recorder.span) ->
          check_bool (s.Recorder.label ^ ": self seconds >= 0") true
            (s.Recorder.self.Metrics.seconds >= 0.0))
        (Recorder.flatten root)
  | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots))

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE executes once                                       *)
(* ------------------------------------------------------------------ *)

(* Regression for the quadratic re-execution bug: a 3-node plan over one
   table used to run the scan once per node (plus once more for the
   render total).  A single instrumented pass charges the table's pages
   exactly once. *)
let test_explain_analyze_single_execution () =
  let catalog = chain_catalog () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let plan =
    Plan.Aggregate
      {
        input = Plan.Filter (scan_lineitems Plan.Seq_scan, Pred.True);
        group_by = [];
        aggs = [ { Plan.fn = Plan.Count_star; output_name = "n" } ];
      }
  in
  let report = Explain_analyze.analyze catalog (Cardinality.oracle catalog) plan in
  check_int "three nodes" 3 (List.length report.Explain_analyze.nodes);
  check_int "table scanned exactly once"
    (Relation.page_count lineitems)
    report.Explain_analyze.snapshot.Cost.seq_pages;
  (* The rendered report is fed by the same single execution. *)
  let rendered = Explain_analyze.render_report report in
  check_bool "render mentions the scan" true
    (string_contains rendered "SeqScan(lineitems)");
  check_bool "render reports time" true
    (string_contains rendered "total simulated execution");
  check_float "render total = single pass total"
    report.Explain_analyze.snapshot.Cost.seconds
    (Recorder.sum_self report.Explain_analyze.spans).Metrics.seconds

(* Guards are transparent to the single execution: a guarded plan still
   charges its table's pages exactly once, and the guard row reuses its
   input's actuals. *)
let test_explain_analyze_guard_transparent () =
  let catalog = chain_catalog () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let actual =
    Relation.filter_count lineitems (Pred.compile (Relation.schema lineitems) qty_pred)
  in
  let plan =
    Plan.Guard
      {
        input = scan_lineitems Plan.Seq_scan;
        expected_rows = float_of_int actual;
        max_q_error = 4.0;
        label = "scan";
      }
  in
  let report = Explain_analyze.analyze catalog (Cardinality.oracle catalog) plan in
  check_int "table scanned exactly once"
    (Relation.page_count lineitems)
    report.Explain_analyze.snapshot.Cost.seq_pages;
  match report.Explain_analyze.nodes with
  | [ guard; scan ] ->
      check_bool "guard row labeled pass" true (string_contains guard.Explain_analyze.label "[pass]");
      check_int "guard actuals = scan actuals" scan.Explain_analyze.actual_rows
        guard.Explain_analyze.actual_rows;
      check_int "scan actuals are real" actual scan.Explain_analyze.actual_rows
  | nodes -> Alcotest.fail (Printf.sprintf "expected 2 nodes, got %d" (List.length nodes))

(* ------------------------------------------------------------------ *)
(* One q-error definition                                              *)
(* ------------------------------------------------------------------ *)

(* The [FIRES] label and the executor's Guard_violation must agree at the
   firing boundary: a guard fires strictly when q > max_q_error, so a
   q-error of exactly the threshold passes in both views. *)
let test_guard_boundary_agreement () =
  let catalog = chain_catalog () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let actual =
    Relation.filter_count lineitems (Pred.compile (Relation.schema lineitems) qty_pred)
  in
  let expected = 2.0 *. float_of_int actual in
  check_float "q-error at the boundary" 2.0 (Plan.q_error ~expected ~actual);
  let guarded max_q_error =
    Plan.Guard
      { input = scan_lineitems Plan.Seq_scan; expected_rows = expected; max_q_error; label = "b" }
  in
  let fires plan =
    match Executor.run catalog (Cost.create ()) plan with
    | _ -> false
    | exception Executor.Guard_violation { q_error; _ } ->
        check_float "violation carries the q-error" 2.0 q_error;
        true
  in
  let label_fires plan =
    let nodes = Explain_analyze.collect catalog (Cardinality.oracle catalog) plan in
    string_contains (List.hd nodes).Explain_analyze.label "[FIRES]"
  in
  (* q = threshold exactly: passes in both views. *)
  check_bool "executor passes at q = threshold" false (fires (guarded 2.0));
  check_bool "label passes at q = threshold" false (label_fires (guarded 2.0));
  (* threshold just below q: fires in both views. *)
  check_bool "executor fires just past threshold" true (fires (guarded 1.999));
  check_bool "label fires just past threshold" true (label_fires (guarded 1.999))

(* ------------------------------------------------------------------ *)
(* Cost counters                                                       *)
(* ------------------------------------------------------------------ *)

(* Every charge kind has a counter, so the meter's simulated seconds can
   be recomputed from a snapshot — including index entries (which used to
   charge seconds without a counter), log-weighted sort units and raw
   second charges — at a non-trivial scale. *)
let test_seconds_recomputable () =
  let catalog = chain_catalog () in
  let run plan =
    let meter = Cost.create ~scale:3.0 () in
    ignore (Executor.run catalog meter plan);
    (* A raw seconds charge exercises the extra_seconds bucket. *)
    Cost.charge_seconds meter 0.125;
    meter
  in
  List.iter
    (fun (name, plan) ->
      let meter = run plan in
      let snap = Cost.snapshot meter in
      check_bool (name ^ ": seconds recomputed from counters") true
        (Float.abs
           (Cost.seconds_of_counters ~constants:(Cost.constants meter)
              ~scale:(Cost.scale meter) snap
           -. snap.Cost.seconds)
        < 1e-9))
    [
      ("hash-join", hash_join);
      ( "index-range",
        scan_lineitems (Plan.Index_range { column = "l_qty"; lo = None; hi = Some (v_int 25) })
      );
      ("guard+materialized+sort", guarded_mat_plan catalog);
    ];
  (* index entries are now visible as a counter, not just as seconds. *)
  let meter = Cost.create () in
  ignore
    (Executor.run catalog meter
       (scan_lineitems (Plan.Index_range { column = "l_qty"; lo = None; hi = Some (v_int 25) })));
  let snap = Cost.snapshot meter in
  check_bool "index entries counted" true (snap.Cost.index_entries > 0);
  check_bool "index probes counted" true (snap.Cost.index_probes > 0)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip_values () =
  let tricky =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te \x01 unicode");
        ("neg", Json.Num (-0.5));
        ("big", Json.Num 1.234e18);
        ("int", Json.Num 42.0);
        ("precise", Json.Num 0.1);
        ("t", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Num 1.0; Json.Str ""; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string tricky) with
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)
  | Ok parsed -> check_bool "tricky value round-trips" true (Json.equal tricky parsed)

let test_json_roundtrip_recorder () =
  let catalog = chain_catalog () in
  let recorder = Recorder.create () in
  let meter = Cost.create ~scale:2.5 () in
  ignore (Executor.run ~obs:recorder catalog meter (guarded_mat_plan catalog));
  check_bool "guard pass recorded" true
    (List.exists
       (function Trace.Guard_ok _ -> true | _ -> false)
       (Recorder.events recorder));
  let json = Recorder.to_json recorder in
  match Json.parse (Json.to_string json) with
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)
  | Ok parsed ->
      check_bool "recorder JSON round-trips" true (Json.equal json parsed);
      (* The JSON carries the same reconciliation the spans do. *)
      check_bool "spans key present" true
        (match parsed with
        | Json.Obj kvs -> List.mem_assoc "spans" kvs && List.mem_assoc "events" kvs
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* Re-optimization attribution                                         *)
(* ------------------------------------------------------------------ *)

(* A fired guard leaves: a Guard_fired event from the executor, the
   reopt loop's Reopt_planned/Reopt_adopted narration, an aborted
   attempt-root span whose cost delta is the wasted prefix, and a
   completed root for the rescue. *)
let test_reopt_events_and_spans () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let opt = Optimizer.create stats (Cardinality.fixed_selectivity catalog 5e-4) in
  let recorder = Recorder.create () in
  let outcome =
    Reopt.execute_plan ~threshold:4.0 ~obs:recorder opt (two_join_query ()) inl_join
  in
  check_bool "a guard fired" true (outcome.Reopt.events <> []);
  let events = Recorder.events recorder in
  let has p = List.exists p events in
  check_bool "Guard_fired traced" true
    (has (function Trace.Guard_fired _ -> true | _ -> false));
  check_bool "Reopt_planned traced" true
    (has (function Trace.Reopt_planned _ -> true | _ -> false));
  check_bool "Reopt_adopted traced" true
    (has (function Trace.Reopt_adopted _ -> true | _ -> false));
  let roots = Recorder.roots recorder in
  check_bool "at least two attempts" true (List.length roots >= 2);
  let aborted = List.filter (fun (s : Recorder.span) -> s.Recorder.aborted) roots in
  check_bool "an aborted attempt root" true (aborted <> []);
  check_bool "attempt roots labeled" true
    (List.for_all (fun (s : Recorder.span) -> string_contains s.Recorder.label "attempt") roots);
  List.iter
    (fun (s : Recorder.span) ->
      check_bool "aborted attempt cost attributed" true (s.Recorder.total.Metrics.seconds > 0.0))
    aborted;
  (* Span deltas over ALL attempts still reconcile with the outcome's
     single shared meter. *)
  check_bool "attempt self deltas sum to the shared meter" true
    (Metrics.approx_equal ~tolerance:1e-9 (Recorder.sum_self roots)
       outcome.Reopt.snapshot);
  check_bool "events render" true
    (List.exists (fun e -> string_contains (Trace.to_string e) "guard") events);
  check_bool "spans render" true
    (string_contains (Recorder.render_spans roots) "attempt1")

(* The reopt experiment's wasted-prefix column: present, positive when a
   guard fired and replanning happened, and bounded by the guarded total. *)
let test_exp_reopt_wasted_column () =
  let config =
    {
      Rq_experiments.Exp_reopt.default_config with
      customers = 20;
      orders = 100;
      lineitems = 800;
      cutoffs = [ 25 ];
    }
  in
  let result = Rq_experiments.Exp_reopt.run ~config () in
  let row = List.hd result.Rq_experiments.Exp_reopt.rows in
  check_bool "guard fired in fixture" true row.Rq_experiments.Exp_reopt.fired;
  check_bool "wasted > 0 on a fired run" true (row.Rq_experiments.Exp_reopt.wasted_s > 0.0);
  check_bool "wasted < guarded total" true
    (row.Rq_experiments.Exp_reopt.wasted_s < row.Rq_experiments.Exp_reopt.guarded_s);
  check_bool "render has the column" true
    (string_contains (Rq_experiments.Exp_reopt.render result) "wasted")

(* ------------------------------------------------------------------ *)
(* Degradation chain                                                   *)
(* ------------------------------------------------------------------ *)

(* On healthy statistics the degrading chain must answer exactly like the
   robust estimator (its tier 1 is an internal robust estimator over the
   same synopses, hence the same kernel bitmaps). *)
let test_degrading_robust_parity () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let est =
    Rq_core.Robust_estimator.create ~confidence:(Rq_core.Confidence.of_percent 80.0) ()
  in
  let robust = Cardinality.robust stats est in
  let degrading = Cardinality.degrading stats est in
  let refs = (two_join_query ()).Logical.tables in
  check_float "expression cardinality parity"
    (robust.Cardinality.expression_cardinality refs)
    (degrading.Cardinality.expression_cardinality refs);
  check_float "table selectivity parity"
    (robust.Cardinality.table_selectivity ~table:"lineitems" qty_pred)
    (degrading.Cardinality.table_selectivity ~table:"lineitems" qty_pred);
  check_float "group count parity"
    (robust.Cardinality.group_count refs [ "orders.o_status" ])
    (degrading.Cardinality.group_count refs [ "orders.o_status" ])

(* Tier transitions surface as Degraded trace events when a recorder is
   attached (same dedup as the log callback). *)
let test_degraded_trace_event () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let rng = Rq_math.Rng.create 99 in
  let injections =
    match Rq_stats.Fault.profile_injections rng stats "missing" with
    | Ok inj -> inj
    | Error msg -> Alcotest.fail msg
  in
  let damaged = Rq_stats.Fault.apply rng stats injections in
  let recorder = Recorder.create () in
  let est =
    Rq_core.Robust_estimator.create ~confidence:(Rq_core.Confidence.of_percent 80.0) ()
  in
  let chain = Cardinality.degrading ~obs:recorder damaged est in
  ignore (chain.Cardinality.expression_cardinality (two_join_query ()).Logical.tables);
  check_bool "Degraded event recorded" true
    (List.exists
       (function
         | Trace.Degraded { kind; _ } -> kind = "missing"
         | _ -> false)
       (Recorder.events recorder))

(* Statistics refreshes narrate themselves. *)
let test_stats_refresh_event () =
  let catalog = chain_catalog () in
  let recorder = Recorder.create () in
  let m = Rq_stats.Maintenance.create ~obs:recorder (Rq_math.Rng.create 5) catalog in
  Rq_stats.Maintenance.record_modifications m ~table:"lineitems" 2000;
  check_bool "stale after bulk modification" true (Rq_stats.Maintenance.is_stale m);
  check_bool "maybe_refresh rebuilt" true (Rq_stats.Maintenance.maybe_refresh m);
  match Recorder.events recorder with
  | [ Trace.Stats_refresh { tables } ] ->
      check_bool "names the dirty table" true (tables = [ "lineitems" ])
  | events -> Alcotest.fail (Printf.sprintf "expected 1 refresh event, got %d" (List.length events))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "self deltas reconcile across plan families" `Quick
            test_span_reconciliation;
          Alcotest.test_case "execution-ordered children, non-negative self" `Quick
            test_span_structure;
        ] );
      ( "explain-analyze",
        [
          Alcotest.test_case "executes each operator exactly once" `Quick
            test_explain_analyze_single_execution;
          Alcotest.test_case "guards are transparent to the single pass" `Quick
            test_explain_analyze_guard_transparent;
          Alcotest.test_case "FIRES label agrees with the executor at the boundary" `Quick
            test_guard_boundary_agreement;
        ] );
      ( "cost",
        [
          Alcotest.test_case "seconds recomputable from counters" `Quick
            test_seconds_recomputable;
        ] );
      ( "json",
        [
          Alcotest.test_case "tricky values round-trip" `Quick test_json_roundtrip_values;
          Alcotest.test_case "recorder output round-trips" `Quick test_json_roundtrip_recorder;
        ] );
      ( "reopt",
        [
          Alcotest.test_case "events and attempt spans" `Quick test_reopt_events_and_spans;
          Alcotest.test_case "wasted-prefix column" `Quick test_exp_reopt_wasted_column;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "healthy-stats parity with robust" `Quick
            test_degrading_robust_parity;
          Alcotest.test_case "Degraded trace event" `Quick test_degraded_trace_event;
          Alcotest.test_case "Stats_refresh trace event" `Quick test_stats_refresh_event;
        ] );
    ]
