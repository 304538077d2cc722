(* Tests for rq_stats: samples, join synopses, histograms, distinct-value
   estimation, and the statistics store. *)

open Rq_storage
open Rq_exec
open Rq_stats

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_close tolerance = Alcotest.(check (float tolerance))

(* Fixture: customers <- orders <- lineitems chain (FKs point left). *)
let chain_catalog () =
  let rng = Rq_math.Rng.create 17 in
  let catalog = Catalog.create () in
  let customers = 20 and orders = 200 and lineitems = 1000 in
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
  catalog

(* ------------------------------------------------------------------ *)
(* Sample                                                              *)
(* ------------------------------------------------------------------ *)

(* The number of rows of [rel] satisfying [pred], by a row scan under
   [Pred.compile]: the reference count k. *)
let scan_count rel pred = Relation.filter_count rel (Pred.compile (Relation.schema rel) pred)

let test_sample_basics () =
  let catalog = chain_catalog () in
  let rel = Catalog.find_table catalog "lineitems" in
  let rng = Rq_math.Rng.create 3 in
  let sample = Sample.of_relation rng ~size:100 rel in
  check_int "size" 100 (Sample.size sample);
  check_int "population" 1000 (Sample.population_size sample)

let test_sample_without_replacement_distinct () =
  let catalog = chain_catalog () in
  let rel = Catalog.find_table catalog "customers" in
  let rng = Rq_math.Rng.create 4 in
  let sample = Sample.of_relation rng ~with_replacement:false ~size:20 rel in
  let ids =
    Relation.fold (fun acc _ tup -> Value.to_string tup.(0) :: acc) [] (Sample.rows sample)
  in
  check_int "all rows, no duplicates" 20 (List.length (List.sort_uniq compare ids))

let test_sample_clamps_without_replacement () =
  let catalog = chain_catalog () in
  let rel = Catalog.find_table catalog "customers" in
  let rng = Rq_math.Rng.create 5 in
  let sample = Sample.of_relation rng ~with_replacement:false ~size:500 rel in
  check_int "clamped to population" 20 (Sample.size sample)

let test_sample_invalid () =
  let catalog = chain_catalog () in
  let rel = Catalog.find_table catalog "customers" in
  Alcotest.check_raises "non-positive size"
    (Invalid_argument "Sample.of_relation: size must be positive") (fun () ->
      ignore (Sample.of_relation (Rq_math.Rng.create 1) ~size:0 rel))

let test_sample_statistical_accuracy () =
  (* With 500 of 1000 tuples sampled, k/n for a ~50% predicate must land
     well inside [0.35, 0.65]. *)
  let catalog = chain_catalog () in
  let rel = Catalog.find_table catalog "lineitems" in
  let rng = Rq_math.Rng.create 6 in
  let sample = Sample.of_relation rng ~size:500 rel in
  let sel =
    float_of_int (scan_count (Sample.rows sample) (Pred.le (Expr.col "l_qty") (Expr.int 25)))
    /. float_of_int (Sample.size sample)
  in
  check_bool "roughly half" true (sel > 0.35 && sel < 0.65)

let test_sample_reservoir () =
  let schema = Schema.create [ { Schema.name = "v"; ty = Value.T_int } ] in
  let stream n = Seq.init n (fun i -> [| v_int i |]) in
  let rng = Rq_math.Rng.create 7 in
  (* Stream longer than the reservoir: uniform without-replacement sample. *)
  let s = Sample.reservoir rng ~size:50 ~schema ~name:"r" (stream 1000) in
  check_int "reservoir size" 50 (Sample.size s);
  check_int "population counted" 1000 (Sample.population_size s);
  let values =
    Relation.fold (fun acc _ tup -> Value.to_string tup.(0) :: acc) [] (Sample.rows s)
  in
  check_int "distinct (without replacement)" 50 (List.length (List.sort_uniq compare values));
  (* Short stream: everything is kept. *)
  let small = Sample.reservoir rng ~size:50 ~schema ~name:"r2" (stream 8) in
  check_int "short stream kept whole" 8 (Sample.size small)

let test_sample_reservoir_statistics () =
  (* Means of reservoir samples over 0..999 must concentrate near 499.5. *)
  let schema = Schema.create [ { Schema.name = "v"; ty = Value.T_int } ] in
  let rng = Rq_math.Rng.create 8 in
  let means =
    List.init 30 (fun _ ->
        let s =
          Sample.reservoir rng ~size:100 ~schema ~name:"r" (Seq.init 1000 (fun i -> [| v_int i |]))
        in
        Relation.fold (fun acc _ tup -> acc +. Value.to_float tup.(0)) 0.0 (Sample.rows s)
        /. 100.0)
  in
  let grand = List.fold_left ( +. ) 0.0 means /. 30.0 in
  check_bool (Printf.sprintf "grand mean %.1f near 499.5" grand) true
    (Float.abs (grand -. 499.5) < 30.0)

(* ------------------------------------------------------------------ *)
(* Join synopsis                                                       *)
(* ------------------------------------------------------------------ *)

let test_synopsis_tables_and_schema () =
  let catalog = chain_catalog () in
  let syn =
    Join_synopsis.build (Rq_math.Rng.create 7) catalog ~size:200 ~root:"lineitems"
  in
  Alcotest.(check (list string)) "closure order"
    [ "lineitems"; "orders"; "customers" ]
    (Join_synopsis.tables syn);
  check_bool "covers pairs" true (Join_synopsis.covers syn [ "lineitems"; "orders" ]);
  check_bool "does not cover outsiders" false (Join_synopsis.covers syn [ "lineitems"; "parts" ]);
  check_int "root size" 1000 (Join_synopsis.root_size syn);
  check_int "sample size" 200 (Join_synopsis.size syn);
  let schema = Relation.schema (Sample.rows (Join_synopsis.sample syn)) in
  List.iter
    (fun col -> check_bool col true (Schema.mem schema col))
    [ "lineitems.l_id"; "orders.o_id"; "customers.c_tier" ]

let test_synopsis_rows_satisfy_fk_join () =
  (* Every synopsis row must be an actual join row: FK columns equal the
     referenced PK columns. *)
  let catalog = chain_catalog () in
  let syn = Join_synopsis.build (Rq_math.Rng.create 8) catalog ~size:150 ~root:"lineitems" in
  let rows = Sample.rows (Join_synopsis.sample syn) in
  let schema = Relation.schema rows in
  let pos c = Schema.index_of schema c in
  Relation.iter
    (fun _ tup ->
      check_bool "l_order = o_id" true
        (Value.equal tup.(pos "lineitems.l_order") tup.(pos "orders.o_id"));
      check_bool "o_cust = c_id" true
        (Value.equal tup.(pos "orders.o_cust") tup.(pos "customers.c_id")))
    rows

let test_synopsis_estimates_join_selectivity () =
  (* The join-synopsis estimate of a cross-table predicate must approach
     the true selectivity (computed by brute force). *)
  let catalog = chain_catalog () in
  let syn = Join_synopsis.build (Rq_math.Rng.create 9) catalog ~size:800 ~root:"lineitems" in
  let pred =
    Pred.conj
      [
        Pred.eq (Expr.col "customers.c_tier") (Expr.int 1);
        Pred.le (Expr.col "lineitems.l_qty") (Expr.int 25);
      ]
  in
  let k, n = Join_synopsis.evidence syn pred in
  let estimate = float_of_int k /. float_of_int n in
  let truth =
    let refs =
      [
        { Rq_optimizer.Logical.table = "lineitems"; pred = Pred.le (Expr.col "l_qty") (Expr.int 25) };
        { Rq_optimizer.Logical.table = "orders"; pred = Pred.True };
        { Rq_optimizer.Logical.table = "customers"; pred = Pred.eq (Expr.col "c_tier") (Expr.int 1) };
      ]
    in
    Rq_optimizer.Naive.selectivity catalog refs
  in
  check_bool
    (Printf.sprintf "estimate %.3f within 5 points of truth %.3f" estimate truth)
    true
    (Float.abs (estimate -. truth) < 0.05)

let test_synopsis_dangling_fk () =
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~primary_key:"p"
    (Relation.create ~name:"parent"
       ~schema:(Schema.create [ { Schema.name = "p"; ty = Value.T_int } ])
       [| [| v_int 0 |] |]);
  Catalog.add_table catalog ~primary_key:"c"
    (Relation.create ~name:"child"
       ~schema:
         (Schema.create
            [ { Schema.name = "c"; ty = Value.T_int }; { Schema.name = "fk"; ty = Value.T_int } ])
       [| [| v_int 0; v_int 99 |] |]);
  Catalog.add_foreign_key catalog
    { from_table = "child"; from_column = "fk"; to_table = "parent"; to_column = "p" };
  check_bool "dangling FK raises" true
    (try
       ignore (Join_synopsis.build (Rq_math.Rng.create 1) catalog ~size:10 ~root:"child");
       false
     with Invalid_argument _ -> true)

let test_synopsis_unknown_root () =
  let catalog = chain_catalog () in
  check_bool "unknown root raises" true
    (try
       ignore (Join_synopsis.build (Rq_math.Rng.create 1) catalog ~size:10 ~root:"nope");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let uniform_relation n =
  Relation.create ~name:"u"
    ~schema:(Schema.create [ { Schema.name = "v"; ty = Value.T_int } ])
    (Array.init n (fun i -> [| v_int (i mod 1000) |]))

let test_histogram_full_range () =
  let h = Histogram.build (uniform_relation 10_000) "v" in
  check_close 1e-9 "everything" 1.0 (Histogram.selectivity_range h ~lo:None ~hi:None);
  check_close 1e-9 "empty below" 0.0
    (Histogram.selectivity_range h ~lo:(Some (v_int 2000)) ~hi:None)

let test_histogram_half_range () =
  let h = Histogram.build (uniform_relation 10_000) "v" in
  let sel = Histogram.selectivity_range h ~lo:(Some (v_int 0)) ~hi:(Some (v_int 499)) in
  check_bool "about half" true (Float.abs (sel -. 0.5) < 0.02)

let test_histogram_equality () =
  let h = Histogram.build (uniform_relation 10_000) "v" in
  let sel = Histogram.selectivity_eq h (v_int 137) in
  check_bool "about 1/1000" true (Float.abs (sel -. 0.001) < 0.0005);
  check_close 1e-9 "null never matches" 0.0 (Histogram.selectivity_eq h Value.Null)

let test_histogram_nulls_excluded () =
  let rel =
    Relation.create ~name:"n"
      ~schema:(Schema.create [ { Schema.name = "v"; ty = Value.T_int } ])
      (Array.init 100 (fun i -> if i < 50 then [| Value.Null |] else [| v_int i |]))
  in
  let h = Histogram.build rel "v" in
  check_int "null rows counted" 50 (Histogram.null_rows h);
  check_close 1e-9 "range over non-nulls only" 0.5
    (Histogram.selectivity_range h ~lo:None ~hi:None)

let test_histogram_bucket_count () =
  let h = Histogram.build ~buckets:10 (uniform_relation 1000) "v" in
  check_int "respects bucket budget" 10 (List.length (Histogram.buckets h));
  let tiny = Histogram.build ~buckets:250 (uniform_relation 5) "v" in
  check_bool "never more buckets than rows" true (List.length (Histogram.buckets tiny) <= 5)

let test_histogram_distinct () =
  let rel =
    Relation.create ~name:"d"
      ~schema:(Schema.create [ { Schema.name = "v"; ty = Value.T_int } ])
      (Array.init 1000 (fun i -> [| v_int (i mod 7) |]))
  in
  let h = Histogram.build rel "v" in
  check_int "distinct" 7 (Histogram.estimated_distinct h)

(* ------------------------------------------------------------------ *)
(* Distinct values                                                     *)
(* ------------------------------------------------------------------ *)

let test_distinct_frequency_profile () =
  let values = Array.map v_int [| 1; 1; 1; 2; 2; 3 |] in
  Alcotest.(check (list (pair int int))) "profile" [ (1, 1); (2, 1); (3, 1) ]
    (Distinct.frequency_profile values)

let test_distinct_gee () =
  (* All-distinct sample: GEE = sqrt(N/n) * n. *)
  let sample = Array.init 100 v_int in
  check_close 1e-6 "all distinct" (sqrt (10_000.0 /. 100.0) *. 100.0)
    (Distinct.gee ~sample ~population_size:10_000);
  (* All-same sample: GEE = 1. *)
  let same = Array.make 100 (v_int 7) in
  check_close 1e-9 "one value" 1.0 (Distinct.gee ~sample:same ~population_size:10_000)

let test_distinct_clamped () =
  (* Estimates always land in [observed distinct, population size]. *)
  let sample = Array.init 100 (fun i -> v_int (i mod 60)) in
  let gee = Distinct.gee ~sample ~population_size:150 in
  check_bool "gee within bounds" true (gee >= 60.0 && gee <= 150.0);
  let su = Distinct.scale_up ~sample ~population_size:150 in
  check_bool "scale_up within bounds" true (su >= 60.0 && su <= 150.0);
  (* Exhaustive sample: both estimators report the truth. *)
  let full = Array.init 100 v_int in
  check_close 1e-9 "gee on a census" 100.0 (Distinct.gee ~sample:full ~population_size:100);
  check_close 1e-9 "scale_up on a census" 100.0
    (Distinct.scale_up ~sample:full ~population_size:100)

let test_distinct_groups () =
  let schema =
    Schema.create
      [ { Schema.name = "a"; ty = Value.T_int }; { Schema.name = "b"; ty = Value.T_int } ]
  in
  let rel =
    Relation.create ~name:"g" ~schema
      (Array.init 100 (fun i -> [| v_int (i mod 2); v_int (i mod 3) |]))
  in
  (* 6 combined groups, all heavily repeated: GEE sees no singletons, so
     the estimate is exactly the observed 6. *)
  check_close 1e-9 "group count" 6.0
    (Distinct.estimate_groups ~sample:rel ~columns:[ "a"; "b" ] ~population_size:100_000)

(* Two float keys that agree to six significant digits are two groups:
   the composite key must not print them with [%g]. *)
let test_distinct_float_keys () =
  let schema = Schema.create [ { Schema.name = "x"; ty = Value.T_float } ] in
  let rel =
    Relation.create ~name:"f" ~schema
      (Array.init 100 (fun i -> [| Value.Float (if i mod 2 = 0 then 1.0000001 else 1.0000002) |]))
  in
  check_close 1e-9 "two float groups" 2.0
    (Distinct.estimate_groups ~sample:rel ~columns:[ "x" ] ~population_size:100_000)

(* ------------------------------------------------------------------ *)
(* Stats store                                                         *)
(* ------------------------------------------------------------------ *)

let test_store_builds_everything () =
  let catalog = chain_catalog () in
  let stats = Stats_store.update_statistics (Rq_math.Rng.create 21) catalog in
  check_bool "histogram per column" true
    (Stats_store.histogram stats ~table:"orders" ~column:"o_status" <> None);
  check_bool "synopsis per table" true (Stats_store.synopsis stats ~root:"lineitems" <> None);
  check_bool "synopsis for leaf" true (Stats_store.synopsis stats ~root:"customers" <> None)

let test_store_root_of_expression () =
  let catalog = chain_catalog () in
  Alcotest.(check (option string)) "chain root" (Some "lineitems")
    (Stats_store.root_of_expression catalog [ "orders"; "lineitems"; "customers" ]);
  Alcotest.(check (option string)) "pair root" (Some "orders")
    (Stats_store.root_of_expression catalog [ "customers"; "orders" ]);
  Alcotest.(check (option string)) "disconnected pair has no root" None
    (Stats_store.root_of_expression catalog [ "customers"; "lineitems" ])

let test_store_synopsis_for () =
  let catalog = chain_catalog () in
  let stats = Stats_store.update_statistics (Rq_math.Rng.create 22) catalog in
  (match Stats_store.synopsis_for stats [ "orders"; "customers" ] with
  | Some syn -> Alcotest.(check string) "rooted at orders" "orders" (Join_synopsis.root syn)
  | None -> Alcotest.fail "expected a covering synopsis");
  check_bool "no synopsis for disconnected set" true
    (Stats_store.synopsis_for stats [ "customers"; "lineitems" ] = None)

let test_single_table_synopsis () =
  let catalog = chain_catalog () in
  let syn =
    Join_synopsis.build ~follow_fks:false (Rq_math.Rng.create 25) catalog ~size:100
      ~root:"lineitems"
  in
  Alcotest.(check (list string)) "covers only the root" [ "lineitems" ]
    (Join_synopsis.tables syn);
  check_bool "does not cover joins" false (Join_synopsis.covers syn [ "lineitems"; "orders" ])

let test_store_without_fk_expansion () =
  let catalog = chain_catalog () in
  let config = { Stats_store.default_config with follow_foreign_keys = false } in
  let stats = Stats_store.update_statistics (Rq_math.Rng.create 26) ~config catalog in
  check_bool "single-table synopsis exists" true
    (Stats_store.synopsis stats ~root:"lineitems" <> None);
  check_bool "no covering synopsis for joins" true
    (Stats_store.synopsis_for stats [ "lineitems"; "orders" ] = None)

let test_store_partial_roots () =
  let catalog = chain_catalog () in
  let config = { Stats_store.default_config with synopsis_roots = Some [ "orders" ] } in
  let stats = Stats_store.update_statistics (Rq_math.Rng.create 23) ~config catalog in
  check_bool "requested root present" true (Stats_store.synopsis stats ~root:"orders" <> None);
  check_bool "other roots absent" true (Stats_store.synopsis stats ~root:"lineitems" = None)

let test_store_histogram_avi () =
  let catalog = chain_catalog () in
  let stats = Stats_store.update_statistics (Rq_math.Rng.create 24) catalog in
  (* Single range conjunct: close to truth on the uniform column. *)
  let sel_half =
    Stats_store.histogram_selectivity stats ~table:"lineitems"
      (Pred.le (Expr.col "l_qty") (Expr.int 25))
  in
  check_bool "half range" true (Float.abs (sel_half -. 0.5) < 0.1);
  (* Two conjuncts multiply (the AVI assumption made observable). *)
  let p = Pred.le (Expr.col "l_qty") (Expr.int 25) in
  let joint = Stats_store.histogram_selectivity stats ~table:"lineitems" (Pred.And [ p; p ]) in
  check_close 1e-9 "AVI multiplies even identical conjuncts" (sel_half *. sel_half) joint;
  (* Unsupported shapes fall back to magic numbers. *)
  let magic =
    Stats_store.histogram_selectivity stats ~table:"lineitems"
      (Pred.eq (Expr.col "l_qty") (Expr.col "l_order"))
  in
  check_close 1e-9 "magic number" (1.0 /. 3.0) magic

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let test_maintenance_refresh_policy () =
  let catalog = chain_catalog () in
  let m = Maintenance.create ~refresh_fraction:0.2 (Rq_math.Rng.create 31) catalog in
  check_bool "fresh at start" false (Maintenance.is_stale m);
  (* 10% of lineitems modified: not yet stale. *)
  Maintenance.record_modifications m ~table:"lineitems" 100;
  check_bool "below threshold" false (Maintenance.is_stale m);
  check_bool "no refresh below threshold" false (Maintenance.maybe_refresh m);
  (* Another 15%: crosses 20%. *)
  Maintenance.record_modifications m ~table:"lineitems" 150;
  check_bool "above threshold" true (Maintenance.is_stale m);
  check_bool "refresh happens" true (Maintenance.maybe_refresh m);
  check_int "counters reset" 0 (Maintenance.modifications_since_refresh m ~table:"lineitems")

let test_maintenance_apply_update () =
  let catalog = chain_catalog () in
  let m = Maintenance.create ~refresh_fraction:0.5 (Rq_math.Rng.create 32) catalog in
  (* Rewrite every lineitem's quantity: all 1000 rows count as modified. *)
  Maintenance.apply_update m ~table:"lineitems" (fun rows ->
      Array.map (fun tup -> [| tup.(0); tup.(1); Value.Int 1 |]) rows);
  check_int "all rows modified" 1000 (Maintenance.modifications_since_refresh m ~table:"lineitems");
  check_bool "stale" true (Maintenance.is_stale m);
  (* Stale stats still describe the old data; a refresh fixes them. *)
  let sel stats =
    match Stats_store.synopsis stats ~root:"lineitems" with
    | Some syn ->
        let k, n =
          Join_synopsis.evidence syn
            (Pred.eq (Expr.col "lineitems.l_qty") (Expr.int 1))
        in
        float_of_int k /. float_of_int n
    | None -> Alcotest.fail "synopsis missing"
  in
  let stale_view = sel (Maintenance.stats m) in
  check_bool "stale stats miss the change" true (stale_view < 0.5);
  check_bool "refresh triggers" true (Maintenance.maybe_refresh m);
  let fresh_view = sel (Maintenance.stats m) in
  Alcotest.(check (float 1e-9)) "fresh stats see the change" 1.0 fresh_view

(* The dashboard workload's update shape: each batch moves 5% of
   lineitem's l_partkey values (fresh tuples at distinct positions), then
   asks for a refresh.  Counting and the refresh rule are unchanged by
   index patching; the l_partkey index equals a rebuild, and the other
   lineitem indexes come through every batch as the same values. *)
let test_maintenance_partkey_batches () =
  let catalog =
    Rq_workload.Tpch.generate (Rq_math.Rng.create 41)
      ~params:{ Rq_workload.Tpch.default_params with scale_factor = 0.002 }
      ()
  in
  let m = Maintenance.create ~refresh_fraction:0.2 (Rq_math.Rng.create 42) catalog in
  let rng = Rq_math.Rng.create 43 in
  let lineitem () = Catalog.find_table catalog "lineitem" in
  let n = Relation.row_count (lineitem ()) in
  let col = Schema.index_of (Relation.schema (lineitem ())) "l_partkey" in
  let others () =
    List.filter
      (fun idx -> Index.column idx <> "l_partkey")
      (Catalog.indexes_on catalog "lineitem")
  in
  check_int "three other lineitem indexes" 3 (List.length (others ()));
  let moved = n / 20 in
  List.iteri
    (fun batch expect_refresh ->
      let before = others () in
      let positions = Rq_math.Rng.sample_without_replacement rng moved n in
      Maintenance.apply_update m ~table:"lineitem" (fun rows ->
          let rows = Array.copy rows in
          Array.iter
            (fun pos ->
              let row = Array.copy rows.(pos) in
              row.(col) <- Value.Int (Rq_math.Rng.int rng 400);
              rows.(pos) <- row)
            positions;
          rows);
      let label what = Printf.sprintf "batch %d: %s" (batch + 1) what in
      check_int (label "modifications") (moved * (batch + 1))
        (Maintenance.modifications_since_refresh m ~table:"lineitem");
      check_bool (label "unchanged indexes kept") true (List.for_all2 ( == ) before (others ()));
      let rel = lineitem () in
      let partkey = Option.get (Catalog.find_index catalog ~table:"lineitem" ~column:"l_partkey") in
      let rebuilt = Index.build rel "l_partkey" in
      check_bool (label "l_partkey index equals a rebuild") true
        (Index.ordered_rids partkey ~descending:false
         = Index.ordered_rids rebuilt ~descending:false
        && Index.min_key partkey = Index.min_key rebuilt
        && Index.max_key partkey = Index.max_key rebuilt);
      check_bool (label "refresh decision") expect_refresh (Maintenance.maybe_refresh m))
    [ false; false; false; true ];
  check_int "counter reset by the refresh" 0
    (Maintenance.modifications_since_refresh m ~table:"lineitem")

let test_maintenance_identity_update_is_free () =
  let catalog = chain_catalog () in
  let m = Maintenance.create (Rq_math.Rng.create 33) catalog in
  Maintenance.apply_update m ~table:"orders" (fun rows -> rows);
  check_int "identity counts nothing" 0 (Maintenance.modifications_since_refresh m ~table:"orders")

let test_maintenance_empty_table () =
  (* An empty table must neither divide by zero in the staleness rule nor
     break the statistics rebuild. *)
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~primary_key:"id"
    (Relation.create ~name:"void"
       ~schema:(Schema.create [ { Schema.name = "id"; ty = Value.T_int } ])
       [||]);
  let m = Maintenance.create ~refresh_fraction:1.0 (Rq_math.Rng.create 34) catalog in
  check_bool "fresh at start" false (Maintenance.is_stale m);
  check_bool "no refresh when fresh" false (Maintenance.maybe_refresh m);
  (* [max 1 rows] in the policy: one modification to an empty table is
     already a full-table change. *)
  Maintenance.record_modifications m ~table:"void" 1;
  check_bool "one mod stales an empty table" true (Maintenance.is_stale m);
  check_bool "refresh succeeds on empty table" true (Maintenance.maybe_refresh m);
  check_int "counter reset" 0 (Maintenance.modifications_since_refresh m ~table:"void")

let test_maintenance_refresh_fraction_boundaries () =
  let catalog = chain_catalog () in
  Alcotest.check_raises "zero fraction rejected"
    (Invalid_argument "Maintenance.create: refresh_fraction must be positive") (fun () ->
      ignore (Maintenance.create ~refresh_fraction:0.0 (Rq_math.Rng.create 35) catalog));
  Alcotest.check_raises "negative fraction rejected"
    (Invalid_argument "Maintenance.create: refresh_fraction must be positive") (fun () ->
      ignore (Maintenance.create ~refresh_fraction:(-0.1) (Rq_math.Rng.create 35) catalog));
  (* fraction = 1.0: stale only once every row has changed. *)
  let m = Maintenance.create ~refresh_fraction:1.0 (Rq_math.Rng.create 36) catalog in
  Maintenance.record_modifications m ~table:"customers" 19;
  check_bool "19/20 rows: not yet stale" false (Maintenance.is_stale m);
  Maintenance.record_modifications m ~table:"customers" 1;
  check_bool "20/20 rows: stale" true (Maintenance.is_stale m)

let test_maintenance_record_modifications_edge_counts () =
  let catalog = chain_catalog () in
  let m = Maintenance.create (Rq_math.Rng.create 37) catalog in
  Alcotest.check_raises "negative count rejected"
    (Invalid_argument "Maintenance.record_modifications: negative count") (fun () ->
      Maintenance.record_modifications m ~table:"orders" (-1));
  Maintenance.record_modifications m ~table:"orders" 0;
  check_int "zero count is a no-op" 0 (Maintenance.modifications_since_refresh m ~table:"orders");
  check_bool "still fresh" false (Maintenance.is_stale m)

(* ---- statistics versioning (the plan cache's invalidation signal) ---- *)

let test_version_monotonic_rebuild () =
  let catalog = chain_catalog () in
  let s1 = Stats_store.update_statistics (Rq_math.Rng.create 50) catalog in
  let s2 = Stats_store.update_statistics (Rq_math.Rng.create 51) catalog in
  check_bool "rebuild advances the store version" true
    (Stats_store.version s2 > Stats_store.version s1);
  (* A full rebuild redraws every sample, so every table is stamped fresh. *)
  List.iter
    (fun t ->
      check_int (t ^ " stamped with the store version") (Stats_store.version s2)
        (Stats_store.table_version s2 t))
    [ "customers"; "orders"; "lineitems" ];
  check_int "unknown table reports the store version" (Stats_store.version s2)
    (Stats_store.table_version s2 "nope")

let test_version_per_table_bump () =
  let catalog = chain_catalog () in
  let s = Stats_store.update_statistics (Rq_math.Rng.create 52) catalog in
  let orders_before = Stats_store.table_version s "orders" in
  let customers_before = Stats_store.table_version s "customers" in
  let s' = Stats_store.with_histogram s ~table:"orders" ~column:"o_status" None in
  check_bool "touched table advanced" true (Stats_store.table_version s' "orders" > orders_before);
  check_int "untouched table unchanged" customers_before (Stats_store.table_version s' "customers");
  check_bool "store version advanced" true (Stats_store.version s' > Stats_store.version s);
  check_int "copy-on-write: original untouched" orders_before (Stats_store.table_version s "orders")

let test_version_fault_injection_bumps_root () =
  let catalog = chain_catalog () in
  let s = Stats_store.update_statistics (Rq_math.Rng.create 53) catalog in
  let customers_before = Stats_store.table_version s "customers" in
  let damaged = Fault.apply (Rq_math.Rng.create 54) s [ Fault.Drop_synopsis "lineitems" ] in
  check_bool "injected root advanced" true
    (Stats_store.table_version damaged "lineitems" > Stats_store.table_version s "lineitems");
  check_int "unrelated table unchanged" customers_before
    (Stats_store.table_version damaged "customers")

(* ---- refresh over emptied tables (must degrade, not raise) ---- *)

let test_refresh_after_root_emptied () =
  let catalog = chain_catalog () in
  let m = Maintenance.create (Rq_math.Rng.create 55) catalog in
  Maintenance.apply_update m ~table:"lineitems" (fun _ -> [||]);
  Maintenance.refresh m;
  let stats = Maintenance.stats m in
  match Stats_store.synopsis stats ~root:"lineitems" with
  | None -> Alcotest.fail "synopsis should exist (empty, not absent)"
  | Some syn ->
      check_int "empty synopsis" 0 (Join_synopsis.size syn);
      let k, n = Join_synopsis.evidence syn Pred.True in
      check_int "evidence k over empty sample" 0 k;
      check_int "evidence n over empty sample" 0 n;
      (match Fault.verify_synopsis catalog syn with
      | Error e ->
          check_bool "health check flags Missing" true (e.Fault.kind = Fault.Missing)
      | Ok () -> Alcotest.fail "empty synopsis must fail the health check")

let test_refresh_after_parent_emptied () =
  (* Emptying a referenced table leaves every child row dangling; the
     lenient rebuild drops them instead of raising mid-refresh. *)
  let catalog = chain_catalog () in
  let m = Maintenance.create (Rq_math.Rng.create 56) catalog in
  Maintenance.apply_update m ~table:"customers" (fun _ -> [||]);
  Maintenance.refresh m;
  let stats = Maintenance.stats m in
  match Stats_store.synopsis stats ~root:"lineitems" with
  | None -> Alcotest.fail "synopsis should exist"
  | Some syn -> check_int "all dangling join rows dropped" 0 (Join_synopsis.size syn)

(* ------------------------------------------------------------------ *)
(* Bitset / Lru / Pred_index: the evidence kernel                      *)
(* ------------------------------------------------------------------ *)

let test_bitset_basics () =
  List.iter
    (fun len ->
      let b = Bitset.create len in
      check_int (Printf.sprintf "empty popcount len=%d" len) 0 (Bitset.popcount b);
      check_int (Printf.sprintf "full popcount len=%d" len) len
        (Bitset.popcount (Bitset.full len));
      (* lognot must respect the tail mask: no phantom bits past len. *)
      check_int (Printf.sprintf "lognot empty len=%d" len) len
        (Bitset.popcount (Bitset.lognot b));
      let every3 = Bitset.of_pred ~len (fun i -> i mod 3 = 0) in
      check_int
        (Printf.sprintf "every 3rd bit len=%d" len)
        ((len + 2) / 3)
        (Bitset.popcount every3);
      let expected = List.filter (fun i -> i mod 3 = 0) (List.init len Fun.id) in
      let seen = ref [] in
      Bitset.iter_set (fun i -> seen := i :: !seen) every3;
      Alcotest.(check (list int))
        (Printf.sprintf "iter_set len=%d" len)
        expected (List.rev !seen))
    [ 0; 1; 63; 64; 65; 130; 200 ];
  (* Random words, dense and sparse, with bits on both sides of each
     word's 32-bit halves: iteration and popcount agree with [get]. *)
  let rng = Rq_math.Rng.create 61 in
  for trial = 1 to 200 do
    let len = Rq_math.Rng.int rng 300 in
    let density = 1 + Rq_math.Rng.int rng 8 in
    let b = Bitset.of_pred ~len (fun _ -> Rq_math.Rng.int rng density = 0) in
    let expected = List.filter (Bitset.get b) (List.init len Fun.id) in
    let seen = ref [] in
    Bitset.iter_set (fun i -> seen := i :: !seen) b;
    Alcotest.(check (list int))
      (Printf.sprintf "random iter_set %d" trial)
      expected (List.rev !seen);
    check_int (Printf.sprintf "random popcount %d" trial) (List.length expected) (Bitset.popcount b)
  done

let test_bitset_algebra () =
  let len = 130 in
  let a = Bitset.of_pred ~len (fun i -> i mod 2 = 0) in
  let b = Bitset.of_pred ~len (fun i -> i mod 3 = 0) in
  let both = Bitset.logand a b in
  let either = Bitset.logor a b in
  check_int "and = multiples of 6" (1 + ((len - 1) / 6)) (Bitset.popcount both);
  check_int "count_and agrees" (Bitset.popcount both) (Bitset.count_and a b);
  (* inclusion-exclusion *)
  check_int "or = a + b - and"
    (Bitset.popcount a + Bitset.popcount b - Bitset.popcount both)
    (Bitset.popcount either);
  check_bool "equal reflexive" true (Bitset.equal a a);
  check_bool "not equal" false (Bitset.equal a b);
  check_int "double negation" (Bitset.popcount a)
    (Bitset.popcount (Bitset.lognot (Bitset.lognot a)))

let test_lru_bounds_and_evicts () =
  let evicted = ref [] in
  let lru = Lru.create ~on_evict:(fun k -> evicted := k :: !evicted) ~capacity:2 () in
  Lru.insert lru "a" 1;
  Lru.insert lru "b" 2;
  check_bool "a cached" true (Lru.find lru "a" <> None);
  (* a is now most recent; inserting c must evict b. *)
  Lru.insert lru "c" 3;
  Alcotest.(check (list string)) "b evicted" [ "b" ] !evicted;
  check_bool "a survives" true (Lru.mem lru "a");
  check_bool "b gone" false (Lru.find lru "b" <> None);
  check_int "bounded" 2 (Lru.length lru);
  check_int "evictions counted" 1 (Lru.evictions lru);
  check_bool "hits and misses counted" true (Lru.hits lru >= 1 && Lru.misses lru >= 1)

let kernel_fixture () =
  let schema =
    Schema.create
      [ { Schema.name = "q"; ty = Value.T_int }; { Schema.name = "tag"; ty = Value.T_string } ]
  in
  let rows =
    Array.init 100 (fun i ->
        [|
          (if i mod 10 = 9 then Value.Null else v_int (i mod 20));
          (if i mod 7 = 0 then Value.Null else Value.String (if i mod 2 = 0 then "even" else "odd"));
        |])
  in
  Relation.create ~name:"kernel_fixture" ~schema rows

let kernel_preds =
  [
    Pred.le (Expr.col "q") (Expr.int 10);
    Pred.And [ Pred.le (Expr.col "q") (Expr.int 10); Pred.Contains (Expr.col "tag", "ev") ];
    Pred.Or [ Pred.eq (Expr.col "q") (Expr.int 3); Pred.Contains (Expr.col "tag", "odd") ];
    Pred.Not (Pred.le (Expr.col "q") (Expr.int 10));
    Pred.True;
    Pred.False;
  ]

(* Every predicate of [kernel_preds]: the kernel's count over [rel] equals
   the row scan's over the same rows, cold and then from cached bitmaps,
   and every bit sits on the row it describes. *)
let check_kernel_matches_scan label rel =
  let idx = Pred_index.create rel in
  let rows = Array.of_seq (Relation.to_seq rel) in
  List.iter
    (fun pred ->
      let expected = scan_count rel pred in
      check_int (label ^ " kernel = scan: " ^ Pred.render pred) expected
        (Pred_index.count idx pred);
      (* second ask: served from cached bitmaps, same answer *)
      check_int (label ^ " cached: " ^ Pred.render pred) expected (Pred_index.count idx pred);
      let check = Pred.compile (Relation.schema rel) pred in
      check_bool (label ^ " bit per row: " ^ Pred.render pred) true
        (Bitset.equal
           (Bitset.of_pred ~len:(Array.length rows) (fun i -> check rows.(i)))
           (Pred_index.eval idx pred)))
    kernel_preds;
  let stats = Pred_index.stats idx in
  check_bool "bitmaps were built" true (stats.Rq_obs.Metrics.bitmaps_built > 0);
  check_bool "cache hits recorded" true (stats.Rq_obs.Metrics.bitmap_hits > 0)

let test_pred_index_counts () = check_kernel_matches_scan "one chunk" (kernel_fixture ())

(* The kernel builds bitmaps chunk by chunk, so chunk boundaries must not
   shift or drop bits.  Six padding strings make a row 132 bytes: 62 rows
   per page and 992 rows per chunk, so every chunk after the first starts
   mid-word (992 = 15.5 * 64).  Every column holds nulls. *)
let multi_chunk_schema =
  Schema.create
    ([
       { Schema.name = "q"; ty = Value.T_int };
       { Schema.name = "tag"; ty = Value.T_string };
       { Schema.name = "d"; ty = Value.T_date };
     ]
    @ List.init 5 (fun i -> { Schema.name = Printf.sprintf "pad%d" i; ty = Value.T_string }))

let multi_chunk_row i =
  Array.append
    [|
      (if i mod 10 = 9 then Value.Null else v_int (i mod 20));
      (if i mod 7 = 0 then Value.Null else Value.String (if i mod 2 = 0 then "even" else "odd"));
      (if i mod 13 = 0 then Value.Null else Value.Date (i mod 400));
    |]
    (Array.init 5 (fun c -> if (i + c) mod 11 = 0 then Value.Null else Value.String "p"))

let test_pred_index_counts_multi_chunk () =
  let before =
    (Buffer_pool.global_stats ()).Buffer_pool.capacity_chunks * Page.pages_per_chunk
  in
  (* A pool of one chunk: building a bitmap must not hold two pins. *)
  Buffer_pool.configure ~capacity_pages:Page.pages_per_chunk;
  Fun.protect
    ~finally:(fun () -> Buffer_pool.configure ~capacity_pages:before)
    (fun () ->
      List.iter
        (fun spill ->
          let b =
            Relation.Builder.create ~spill ~name:"kernel_chunks" ~schema:multi_chunk_schema ()
          in
          for i = 0 to 2_499 do
            Relation.Builder.add_row b (multi_chunk_row i)
          done;
          let rel = Relation.Builder.finish b in
          check_bool "at least three chunks" true (Relation.chunk_count rel >= 3);
          check_bool "chunk starts fall mid-word" true (Relation.rows_per_chunk rel mod 64 <> 0);
          check_kernel_matches_scan (if spill then "spill" else "heap") rel)
        [ false; true ])

(* Statistics read rows through the chunk store, so where a table's chunks
   live must not change what UPDATE STATISTICS produces: one seed over a
   spilled table and over the same rows on the heap gives the same store. *)
let test_spilled_table_statistics () =
  let store_of spill =
    let b = Relation.Builder.create ~spill ~name:"spilled" ~schema:multi_chunk_schema () in
    for i = 0 to 2_499 do
      Relation.Builder.add_row b (multi_chunk_row i)
    done;
    let catalog = Catalog.create () in
    Catalog.add_table catalog (Relation.Builder.finish b);
    Stats_store.update_statistics (Rq_math.Rng.create 61) catalog
  in
  let heap = store_of false and spilled = store_of true in
  List.iter
    (fun { Schema.name = column; _ } ->
      match
        ( Stats_store.histogram heap ~table:"spilled" ~column,
          Stats_store.histogram spilled ~table:"spilled" ~column )
      with
      | Some h, Some s ->
          check_int (column ^ " rows") (Histogram.total_rows h) (Histogram.total_rows s);
          check_int (column ^ " nulls") (Histogram.null_rows h) (Histogram.null_rows s);
          check_bool (column ^ " buckets") true (Histogram.buckets h = Histogram.buckets s)
      | _ -> Alcotest.failf "histogram missing for %s" column)
    (Schema.columns multi_chunk_schema);
  match
    (Stats_store.synopsis heap ~root:"spilled", Stats_store.synopsis spilled ~root:"spilled")
  with
  | Some h, Some s ->
      let rows syn = List.of_seq (Relation.to_seq (Sample.rows (Join_synopsis.sample syn))) in
      check_int "sample size" (Join_synopsis.size h) (Join_synopsis.size s);
      check_bool "sample rows" true (rows h = rows s)
  | _ -> Alcotest.fail "synopsis missing for the spilled table"

(* Atoms are keyed by value, so two float literals that agree to six
   significant digits get their own bitmaps: on ints 495..504,
   [x < 499.9999999] holds for 5 rows and [x < 500.0000001] for 6,
   whichever is asked first. *)
let test_pred_index_float_literals () =
  let schema = Schema.create [ { Schema.name = "x"; ty = Value.T_int } ] in
  let rel = Relation.create ~name:"ints" ~schema (Array.init 10 (fun i -> [| v_int (495 + i) |])) in
  let idx = Pred_index.create rel in
  let below f = Pred.lt (Expr.col "x") (Expr.Const (Value.Float f)) in
  check_int "x < 499.9999999" 5 (Pred_index.count idx (below 499.9999999));
  check_int "x < 500.0000001" 6 (Pred_index.count idx (below 500.0000001))

let test_pred_index_eviction () =
  let rel = kernel_fixture () in
  let idx = Pred_index.create ~capacity:2 rel in
  let atom i = Pred.eq (Expr.col "q") (Expr.int i) in
  List.iter (fun i -> ignore (Pred_index.count idx (atom i))) [ 1; 2; 3 ];
  check_int "one eviction" 1 (Pred_index.stats idx).Rq_obs.Metrics.bitmap_evictions;
  (* The evicted atom re-scans and still answers correctly. *)
  check_int "evicted atom rebuilt" 5 (Pred_index.count idx (atom 1))

let test_lru_capacity_zero () =
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Lru.create: capacity must be non-negative") (fun () ->
      ignore (Lru.create ~capacity:(-1) ()));
  let evicted = ref [] in
  let lru = Lru.create ~on_evict:(fun k -> evicted := k :: !evicted) ~capacity:0 () in
  Lru.insert lru "a" 1;
  (* A zero-capacity cache is a legal degenerate: every insert is an
     immediate eviction and every lookup a miss. *)
  Alcotest.(check (list string)) "insert evicts immediately" [ "a" ] !evicted;
  check_bool "nothing cached" true (Lru.find lru "a" = None);
  check_int "length stays zero" 0 (Lru.length lru);
  Lru.insert lru "b" 2;
  check_int "every insert counted as eviction" 2 (Lru.evictions lru);
  Alcotest.(check (list string)) "on_evict fired per insert" [ "b"; "a" ] !evicted;
  check_bool "misses counted" true (Lru.misses lru >= 1);
  check_int "no hits possible" 0 (Lru.hits lru)

let test_lru_capacity_one () =
  let evicted = ref [] in
  let lru = Lru.create ~on_evict:(fun k -> evicted := k :: !evicted) ~capacity:1 () in
  Lru.insert lru "a" 1;
  check_int "no eviction yet" 0 (Lru.evictions lru);
  Lru.insert lru "b" 2;
  Alcotest.(check (list string)) "a evicted by b" [ "a" ] !evicted;
  check_int "one eviction" 1 (Lru.evictions lru);
  (* Replacing the resident key is an update, not an eviction. *)
  Lru.insert lru "b" 3;
  check_int "replace does not evict" 1 (Lru.evictions lru);
  check_bool "updated value served" true (Lru.find lru "b" = Some 3);
  Lru.insert lru "c" 4;
  check_int "second eviction" 2 (Lru.evictions lru);
  check_int "still bounded" 1 (Lru.length lru)

(* Regression: re-inserting a key that is already resident while the
   cache is at capacity must never evict an innocent sibling — it is an
   update plus a recency touch, nothing leaves. *)
let test_lru_reinsert_at_capacity_evicts_nothing () =
  let evicted = ref [] in
  let lru = Lru.create ~on_evict:(fun k -> evicted := k :: !evicted) ~capacity:2 () in
  Lru.insert lru "a" 1;
  Lru.insert lru "b" 2;
  (* Full.  Re-insert the older key with a new value. *)
  Lru.insert lru "a" 10;
  Alcotest.(check (list string)) "nothing evicted" [] !evicted;
  check_int "no evictions counted" 0 (Lru.evictions lru);
  check_int "still two entries" 2 (Lru.length lru);
  check_bool "sibling survives" true (Lru.mem lru "b");
  check_bool "value updated" true (Lru.find lru "a" = Some 10);
  (* The re-insert refreshed a's recency: the next overflow victim is b. *)
  Lru.insert lru "c" 3;
  Alcotest.(check (list string)) "b is the LRU victim" [ "b" ] !evicted;
  check_bool "a still resident" true (Lru.mem lru "a")

let test_lru_remove_is_silent () =
  let evicted = ref [] in
  let lru = Lru.create ~on_evict:(fun k -> evicted := k :: !evicted) ~capacity:2 () in
  Lru.insert lru "a" 1;
  Lru.insert lru "b" 2;
  (* Invalidation-style removal: no eviction count, no on_evict. *)
  Lru.remove lru "a";
  check_int "one entry left" 1 (Lru.length lru);
  check_int "not an eviction" 0 (Lru.evictions lru);
  Alcotest.(check (list string)) "on_evict not fired" [] !evicted;
  Lru.remove lru "missing";
  check_int "removing a stranger is a no-op" 1 (Lru.length lru);
  (* The freed slot is usable again without evicting b. *)
  Lru.insert lru "c" 3;
  check_int "no eviction on refill" 0 (Lru.evictions lru);
  check_bool "b survives" true (Lru.mem lru "b")

let test_pred_index_combined_after_eviction () =
  let rel = kernel_fixture () in
  let idx = Pred_index.create ~capacity:2 rel in
  let combined =
    Pred.And [ Pred.le (Expr.col "q") (Expr.int 10); Pred.Contains (Expr.col "tag", "ev") ]
  in
  let expected = scan_count rel combined in
  check_int "combined correct when cold" expected (Pred_index.count idx combined);
  (* Force out one of the atoms the conjunction combines: the two slots
     hold its atoms, so two fresh atoms evict both. *)
  ignore (Pred_index.count idx (Pred.eq (Expr.col "q") (Expr.int 3)));
  ignore (Pred_index.count idx (Pred.eq (Expr.col "q") (Expr.int 4)));
  check_bool "component atoms evicted" true
    ((Pred_index.stats idx).Rq_obs.Metrics.bitmap_evictions >= 1);
  (* Immediately after the eviction the combined predicate must still
     produce exact evidence (the missing bitmaps rebuild transparently). *)
  check_int "combined correct after eviction" expected (Pred_index.count idx combined);
  check_int "and stays correct on the cached re-ask" expected (Pred_index.count idx combined)

(* Property: for arbitrary predicates (nulls, disjunctions, negations,
   empty samples included), the kernel's bitwise evidence equals the
   row-scan count — bit for bit, first ask and cached re-ask alike. *)
let prop_schema =
  Schema.create
    [
      { Schema.name = "a"; ty = Value.T_int };
      { Schema.name = "b"; ty = Value.T_int };
      { Schema.name = "s"; ty = Value.T_string };
    ]

let gen_row =
  QCheck.Gen.(
    let int_val = frequency [ (1, return Value.Null); (4, map (fun i -> v_int i) (int_range (-5) 5)) ] in
    let str_val =
      frequency
        [ (1, return Value.Null); (4, map (fun s -> Value.String s) (oneofl [ "a"; "b"; "ab"; "ba"; "abc" ])) ]
    in
    map (fun ((a, b), s) -> [| a; b; s |]) (pair (pair int_val int_val) str_val))

let gen_atom =
  QCheck.Gen.(
    oneof
      [
        map
          (fun ((op, c), v) -> Pred.Cmp (op, Expr.col c, Expr.int v))
          (pair
             (pair (oneofl [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ]) (oneofl [ "a"; "b" ]))
             (int_range (-5) 5));
        map
          (fun (lo, hi) -> Pred.between (Expr.col "a") (Expr.int (min lo hi)) (Expr.int (max lo hi)))
          (pair (int_range (-5) 5) (int_range (-5) 5));
        map (fun sub -> Pred.Contains (Expr.col "s", sub)) (oneofl [ "a"; "b"; "ab" ]);
        (* column-to-column comparison: exercises null collapse on both sides *)
        map (fun op -> Pred.Cmp (op, Expr.col "a", Expr.col "b")) (oneofl [ Pred.Eq; Pred.Lt ]);
      ])

let rec gen_pred depth =
  if depth = 0 then gen_atom
  else
    QCheck.Gen.(
      frequency
        [
          (3, gen_atom);
          (1, return Pred.True);
          (1, return Pred.False);
          (2, map (fun ps -> Pred.And ps) (list_size (int_range 1 3) (gen_pred (depth - 1))));
          (2, map (fun ps -> Pred.Or ps) (list_size (int_range 1 3) (gen_pred (depth - 1))));
          (1, map (fun p -> Pred.Not p) (gen_pred (depth - 1)));
        ])

let prop_kernel_matches_scan =
  QCheck.Test.make ~name:"kernel evidence = row-scan evidence" ~count:500
    (QCheck.make
       ~print:(fun (rows, pred) ->
         Printf.sprintf "%d rows, pred %s" (List.length rows) (Pred.render pred))
       QCheck.Gen.(pair (list_size (int_range 0 40) gen_row) (gen_pred 3)))
    (fun (rows, pred) ->
      let rel = Relation.create ~name:"prop" ~schema:prop_schema (Array.of_list rows) in
      let idx = Pred_index.create rel in
      let expected = scan_count rel pred in
      Pred_index.count idx pred = expected && Pred_index.count idx pred = expected)

let test_empty_sample_of_relation () =
  let rel =
    Relation.create ~name:"void"
      ~schema:(Schema.create [ { Schema.name = "id"; ty = Value.T_int } ])
      [||]
  in
  let s = Sample.of_relation (Rq_math.Rng.create 57) ~size:100 rel in
  check_int "empty sample" 0 (Sample.size s);
  check_int "population zero" 0 (Sample.population_size s)

(* ------------------------------------------------------------------ *)
(* Lazy statistics: histograms built on first use, samples gathered    *)
(* in chunk order                                                      *)
(* ------------------------------------------------------------------ *)

(* The eager build, written out: fold the rows into a list, sort, cut
   equi-depth buckets pushed to the end of each run of equal values. *)
let reference_histogram rel column =
  let pos = Schema.index_of (Relation.schema rel) column in
  let values =
    Array.of_list
      (Relation.fold
         (fun acc _ tup -> if Value.is_null tup.(pos) then acc else tup.(pos) :: acc)
         [] rel)
  in
  Array.sort Value.compare values;
  let n = Array.length values in
  let depth = if n = 0 then 1 else max 1 (n / min Histogram.default_bucket_count n) in
  let rec cut start acc =
    if start >= n then List.rev acc
    else begin
      let stop = ref (min n (start + depth)) in
      while !stop < n && Value.compare values.(!stop) values.(!stop - 1) = 0 do
        incr stop
      done;
      let distinct = ref 1 in
      for i = start + 1 to !stop - 1 do
        if Value.compare values.(i) values.(i - 1) <> 0 then incr distinct
      done;
      let b =
        { Histogram.lo = values.(start); hi = values.(!stop - 1); rows = !stop - start;
          distinct = !distinct }
      in
      cut !stop (b :: acc)
    end
  in
  (cut 0 [], Relation.row_count rel, Relation.row_count rel - n)

(* 38 string pads make a row 800 bytes: 10 rows per page, 160 per chunk,
   so a few hundred rows span several chunks. *)
let lazy_schema =
  Schema.create
    ([
       { Schema.name = "i"; ty = Value.T_int };
       { Schema.name = "f"; ty = Value.T_float };
       { Schema.name = "s"; ty = Value.T_string };
       { Schema.name = "d"; ty = Value.T_date };
     ]
    @ List.init 38 (fun i -> { Schema.name = Printf.sprintf "pad%d" i; ty = Value.T_string }))

let lazy_columns = [ "i"; "f"; "s"; "d" ]

(* The float column also holds ints equal to some of its floats under
   [Value.compare] ([Int 2] and [Float 2.]): such a tie is where an
   unstable sort's input order shows in a bucket bound. *)
let gen_lazy_row =
  QCheck.Gen.(
    let nullable g = frequency [ (1, return Value.Null); (4, g) ] in
    map
      (fun (((i, f), s), d) -> Array.append [| i; f; s; d |] (Array.make 38 (Value.String "p")))
      (pair
         (pair
            (pair
               (nullable (map v_int (int_range 0 30)))
               (nullable
                  (oneof
                     [
                       map (fun k -> Value.Float (float_of_int k /. 2.0)) (int_range 0 20);
                       map v_int (int_range 0 10);
                     ])))
            (nullable (map (fun k -> Value.String (Printf.sprintf "s%02d" k)) (int_range 0 25))))
         (nullable (map (fun k -> Value.Date (9000 + k)) (int_range 0 40)))))

let lazy_relation ~spill rows =
  let b = Relation.Builder.create ~spill ~name:"t" ~schema:lazy_schema () in
  List.iter (Relation.Builder.add_row b) rows;
  Relation.Builder.finish b

(* Law: every lazy histogram equals the reference eager build over the
   relation as it was at [update_statistics], on heap and on spill, even
   when an update replaces the table before the first use.  Planted
   faults it catches: the thunk looks the table up in the live catalog
   instead of holding the relation value (the update then shows), and
   the column read feeding the sort in RID order instead of reverse RID
   order (an [Int]/[Float] tie moves a bucket bound). *)
let prop_lazy_histogram_equals_eager =
  QCheck.Test.make ~name:"lazy histogram = eager build of the pre-update relation" ~count:40
    (QCheck.make
       ~print:(fun (rows, spill) -> Printf.sprintf "%d rows, spill %b" (List.length rows) spill)
       QCheck.Gen.(pair (list_size (int_range 0 600) gen_lazy_row) bool))
    (fun (rows, spill) ->
      let rel = lazy_relation ~spill rows in
      let catalog = Catalog.create () in
      Catalog.add_table catalog rel;
      let config = { Stats_store.default_config with sample_size = 8 } in
      let m = Maintenance.create ~config (Rq_math.Rng.create 71) catalog in
      let stats = Maintenance.stats m in
      Maintenance.apply_update m ~table:"t" (fun old ->
          Array.init
            (Array.length old + 1)
            (fun _ ->
              Array.append
                [| v_int 1_000; Value.Float 1e6; Value.String "zz"; Value.Date 20_000 |]
                (Array.make 38 (Value.String "q"))));
      let built_before = Stats_store.histograms_built stats in
      let equal column =
        match Stats_store.histogram stats ~table:"t" ~column with
        | None -> false
        | Some h ->
            let buckets, total, nulls = reference_histogram rel column in
            Histogram.buckets h = buckets
            && Histogram.total_rows h = total
            && Histogram.null_rows h = nulls
      in
      built_before = 0
      && List.for_all equal lazy_columns
      && Stats_store.histograms_built stats = List.length lazy_columns)

(* The sample draws its RIDs in random order but reads them in RID order:
   on a spilled table behind a one-chunk pool it must return exactly what
   per-RID [Relation.get] returns, in draw order, and fault each chunk at
   most once.  Planted fault it catches: tuples written back in sorted
   (RID) order instead of at their draw positions. *)
let test_sample_chunk_ordered_gather () =
  let before =
    (Buffer_pool.global_stats ()).Buffer_pool.capacity_chunks * Page.pages_per_chunk
  in
  Buffer_pool.configure ~capacity_pages:Page.pages_per_chunk;
  Fun.protect
    ~finally:(fun () -> Buffer_pool.configure ~capacity_pages:before)
    (fun () ->
      let b = Relation.Builder.create ~spill:true ~name:"drawn" ~schema:multi_chunk_schema () in
      for i = 0 to 3_999 do
        Relation.Builder.add_row b (multi_chunk_row i)
      done;
      let rel = Relation.Builder.finish b in
      let chunks = Relation.chunk_count rel in
      check_bool "at least four chunks" true (chunks >= 4);
      List.iter
        (fun (with_replacement, size) ->
          let label = Printf.sprintf "replacement %b, size %d" with_replacement size in
          let reference =
            let rng = Rq_math.Rng.create 83 in
            let rids =
              if with_replacement then Rq_math.Rng.sample_with_replacement rng size 4_000
              else Rq_math.Rng.sample_without_replacement rng size 4_000
            in
            Array.to_list (Array.map (Relation.get rel) rids)
          in
          Buffer_pool.reset_stats Buffer_pool.global;
          let sample =
            Sample.of_relation (Rq_math.Rng.create 83) ~with_replacement ~size rel
          in
          let misses = (Buffer_pool.global_stats ()).Buffer_pool.misses in
          check_bool (label ^ ": misses <= chunks") true (misses <= chunks);
          check_bool (label ^ ": same tuples in draw order") true
            (List.of_seq (Relation.to_seq (Sample.rows sample)) = reference))
        [ (true, 500); (false, 300) ])

let tpch_small () =
  Rq_workload.Tpch.generate (Rq_math.Rng.create 91)
    ~params:{ Rq_workload.Tpch.default_params with scale_factor = 0.002 }
    ()

(* The end-to-end benchmark's templates, over TPC-H-lite and the star
   schema. *)
let lazy_templates =
  [
    "SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN \
     '1997-07-01' AND '1997-07-30' AND l_receiptdate BETWEEN '1997-07-01' + 30 AND \
     '1997-07-30' + 30";
    "SELECT SUM(l_extendedprice) AS revenue FROM lineitem, orders, part WHERE p_bucket = 975";
    "SELECT l_rowid, l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey = 17";
    "SELECT o_orderkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = 5";
    "SELECT l_rowid, l_extendedprice, o_orderdate FROM lineitem, orders WHERE o_orderkey = 9";
    "SELECT p_brand, COUNT(*) AS n, SUM(l_extendedprice) AS revenue FROM lineitem, part WHERE \
     p_size <= 20 GROUP BY p_brand";
    "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem WHERE l_orderkey BETWEEN 10 AND \
     40";
  ]

let star_template =
  "SELECT SUM(f_m1) AS total_m1, AVG(f_m2) AS avg_m2, COUNT(*) AS n FROM fact, dim1, dim2, \
   dim3 WHERE dim1.d_filter = 3 AND dim2.d_filter = 3 AND dim3.d_filter = 3"

let optimize_sql catalog opt sql =
  match Rq_sql.Binder.compile catalog sql with
  | Ok b -> ignore (Rq_optimizer.Optimizer.optimize_exn opt b.Rq_sql.Binder.query)
  | Error e -> Alcotest.failf "%s: %s" sql e

(* The robust estimator reads only synopses, and so does the degrading
   chain over healthy statistics: neither may build a histogram.  The
   baseline builds exactly the columns its predicates name.  Planted
   fault it catches: [update_statistics] forcing every thunk (the robust
   count is then the number of columns, not 0). *)
let test_robust_builds_no_histogram () =
  let open Rq_optimizer in
  let est = Rq_core.Robust_estimator.create ~confidence:(Rq_core.Confidence.of_percent 80.0) () in
  let robust_builds_none label catalog templates =
    let stats = Stats_store.update_statistics (Rq_math.Rng.create 92) catalog in
    List.iter
      (fun make ->
        List.iter (optimize_sql catalog (Optimizer.create stats (make stats est))) templates)
      [ Cardinality.robust; Cardinality.degrading ?log:None ?obs:None ];
    check_int (label ^ ": robust and degrading build none") 0
      (Stats_store.histograms_built stats);
    stats
  in
  ignore
    (robust_builds_none "star"
       (Rq_workload.Star.generate (Rq_math.Rng.create 95)
          ~params:{ Rq_workload.Star.default_params with fact_rows = 5_000 }
          ())
       [ star_template ]);
  let catalog = tpch_small () in
  let stats = robust_builds_none "tpch" catalog lazy_templates in
  let optimize = optimize_sql catalog (Optimizer.baseline stats) in
  optimize (List.nth lazy_templates 0);
  check_int "exp1 builds l_shipdate and l_receiptdate" 2 (Stats_store.histograms_built stats);
  optimize (List.nth lazy_templates 0);
  check_int "a built histogram is kept" 2 (Stats_store.histograms_built stats);
  optimize (List.nth lazy_templates 1);
  check_int "exp2 adds p_bucket" 3 (Stats_store.histograms_built stats)

(* A dropped histogram is still reported when the chain reaches the
   histogram tier, and only the histogram still present is built.  Planted
   fault it catches: [has_histogram] answering true for a dropped entry
   (no event is logged). *)
let test_dropped_histogram_still_logged () =
  let open Rq_optimizer in
  let catalog = tpch_small () in
  let stats = Stats_store.update_statistics (Rq_math.Rng.create 93) catalog in
  let damaged =
    Fault.apply (Rq_math.Rng.create 94) stats
      [
        Fault.Drop_synopsis "lineitem";
        Fault.Drop_histogram { table = "lineitem"; column = "l_shipdate" };
      ]
  in
  let events = ref [] in
  let est = Rq_core.Robust_estimator.create ~confidence:(Rq_core.Confidence.of_percent 80.0) () in
  let opt =
    Optimizer.create damaged
      (Cardinality.degrading ~log:(fun e -> events := e :: !events) damaged est)
  in
  optimize_sql catalog opt (List.hd lazy_templates);
  check_bool "Missing histogram:lineitem logged" true
    (List.exists
       (fun e -> e.Fault.kind = Fault.Missing && e.Fault.subsystem = "histogram:lineitem")
       !events);
  check_int "only l_receiptdate was built" 1 (Stats_store.histograms_built damaged)

(* Two domains (exactly two) ask for the same unbuilt histogram at once:
   neither raises and both get the same histogram.  Planted fault it
   catches: forcing the thunk without the store's lock, or skipping the
   lock when [Lazy.is_val] answers true, which it does mid-force (the
   second domain then raises [Lazy.Undefined]). *)
let test_histogram_forced_from_two_domains () =
  let rel =
    Relation.create ~name:"wide"
      ~schema:(Schema.create [ { Schema.name = "v"; ty = Value.T_int } ])
      (Array.init 200_000 (fun i -> [| v_int ((i * 7919) mod 50_021) |]))
  in
  let catalog = Catalog.create () in
  Catalog.add_table catalog rel;
  let config = { Stats_store.default_config with sample_size = 8 } in
  for round = 1 to 3 do
    let stats = Stats_store.update_statistics (Rq_math.Rng.create round) ~config catalog in
    let ready = Atomic.make 0 in
    let ask () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      Stats_store.histogram stats ~table:"wide" ~column:"v"
    in
    let other = Domain.spawn ask in
    let mine = ask () in
    let theirs = Domain.join other in
    match (mine, theirs) with
    | Some a, Some b ->
        check_bool "physically equal" true (a == b);
        check_int "built once" 1 (Stats_store.histograms_built stats)
    | _ -> Alcotest.fail "histogram missing"
  done

let () =
  Alcotest.run "rq_stats"
    [
      ( "sample",
        [
          Alcotest.test_case "basics" `Quick test_sample_basics;
          Alcotest.test_case "without replacement distinct" `Quick
            test_sample_without_replacement_distinct;
          Alcotest.test_case "clamps size" `Quick test_sample_clamps_without_replacement;
          Alcotest.test_case "invalid size" `Quick test_sample_invalid;
          Alcotest.test_case "statistical accuracy" `Quick test_sample_statistical_accuracy;
          Alcotest.test_case "reservoir sampling" `Quick test_sample_reservoir;
          Alcotest.test_case "reservoir uniformity" `Quick test_sample_reservoir_statistics;
        ] );
      ( "join_synopsis",
        [
          Alcotest.test_case "tables and schema" `Quick test_synopsis_tables_and_schema;
          Alcotest.test_case "rows satisfy the FK join" `Quick test_synopsis_rows_satisfy_fk_join;
          Alcotest.test_case "estimates join selectivity" `Quick
            test_synopsis_estimates_join_selectivity;
          Alcotest.test_case "dangling FK" `Quick test_synopsis_dangling_fk;
          Alcotest.test_case "unknown root" `Quick test_synopsis_unknown_root;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "full and empty ranges" `Quick test_histogram_full_range;
          Alcotest.test_case "half range" `Quick test_histogram_half_range;
          Alcotest.test_case "equality" `Quick test_histogram_equality;
          Alcotest.test_case "null handling" `Quick test_histogram_nulls_excluded;
          Alcotest.test_case "bucket budget" `Quick test_histogram_bucket_count;
          Alcotest.test_case "distinct estimate" `Quick test_histogram_distinct;
        ] );
      ( "distinct",
        [
          Alcotest.test_case "frequency profile" `Quick test_distinct_frequency_profile;
          Alcotest.test_case "GEE known cases" `Quick test_distinct_gee;
          Alcotest.test_case "clamping" `Quick test_distinct_clamped;
          Alcotest.test_case "group estimation" `Quick test_distinct_groups;
          Alcotest.test_case "float keys six digits apart" `Quick test_distinct_float_keys;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "refresh policy" `Quick test_maintenance_refresh_policy;
          Alcotest.test_case "apply_update counts and refreshes" `Quick
            test_maintenance_apply_update;
          Alcotest.test_case "5% l_partkey batches patch one index" `Quick
            test_maintenance_partkey_batches;
          Alcotest.test_case "identity update is free" `Quick
            test_maintenance_identity_update_is_free;
          Alcotest.test_case "empty table" `Quick test_maintenance_empty_table;
          Alcotest.test_case "refresh_fraction boundaries" `Quick
            test_maintenance_refresh_fraction_boundaries;
          Alcotest.test_case "record_modifications edge counts" `Quick
            test_maintenance_record_modifications_edge_counts;
        ] );
      ( "stats_store",
        [
          Alcotest.test_case "builds everything" `Quick test_store_builds_everything;
          Alcotest.test_case "root of expression" `Quick test_store_root_of_expression;
          Alcotest.test_case "synopsis_for" `Quick test_store_synopsis_for;
          Alcotest.test_case "partial synopsis roots" `Quick test_store_partial_roots;
          Alcotest.test_case "single-table synopsis" `Quick test_single_table_synopsis;
          Alcotest.test_case "store without FK expansion" `Quick test_store_without_fk_expansion;
          Alcotest.test_case "histogram AVI selectivity" `Quick test_store_histogram_avi;
        ] );
      ( "versioning",
        [
          Alcotest.test_case "rebuild is monotonic and stamps all tables" `Quick
            test_version_monotonic_rebuild;
          Alcotest.test_case "copy-on-write bumps one table" `Quick test_version_per_table_bump;
          Alcotest.test_case "fault injection bumps the root" `Quick
            test_version_fault_injection_bumps_root;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "refresh after root emptied" `Quick test_refresh_after_root_emptied;
          Alcotest.test_case "refresh after parent emptied" `Quick
            test_refresh_after_parent_emptied;
          Alcotest.test_case "empty relation yields empty sample" `Quick
            test_empty_sample_of_relation;
        ] );
      ( "spilled tables",
        [
          Alcotest.test_case "statistics equal the heap copy's" `Quick
            test_spilled_table_statistics;
        ] );
      ( "lazy stats",
        [
          QCheck_alcotest.to_alcotest prop_lazy_histogram_equals_eager;
          Alcotest.test_case "sample gather matches per-RID get" `Quick
            test_sample_chunk_ordered_gather;
          Alcotest.test_case "robust optimization builds no histogram" `Quick
            test_robust_builds_no_histogram;
          Alcotest.test_case "dropped histogram still logged" `Quick
            test_dropped_histogram_still_logged;
          Alcotest.test_case "histogram forced from two domains" `Quick
            test_histogram_forced_from_two_domains;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "bitset basics across word boundaries" `Quick test_bitset_basics;
          Alcotest.test_case "bitset algebra" `Quick test_bitset_algebra;
          Alcotest.test_case "lru bounds and evicts" `Quick test_lru_bounds_and_evicts;
          Alcotest.test_case "lru capacity zero" `Quick test_lru_capacity_zero;
          Alcotest.test_case "lru capacity one" `Quick test_lru_capacity_one;
          Alcotest.test_case "lru re-insert at capacity evicts nothing" `Quick
            test_lru_reinsert_at_capacity_evicts_nothing;
          Alcotest.test_case "lru remove is silent" `Quick test_lru_remove_is_silent;
          Alcotest.test_case "pred_index counts match scan" `Quick test_pred_index_counts;
          Alcotest.test_case "pred_index counts match scan across chunks" `Quick
            test_pred_index_counts_multi_chunk;
          Alcotest.test_case "pred_index eviction" `Quick test_pred_index_eviction;
          Alcotest.test_case "pred_index combined pred after eviction" `Quick
            test_pred_index_combined_after_eviction;
          Alcotest.test_case "pred_index float literals never alias" `Quick
            test_pred_index_float_literals;
          QCheck_alcotest.to_alcotest prop_kernel_matches_scan;
        ] );
    ]
