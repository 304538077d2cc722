(* Unit and property tests for rq_exec: expressions, predicates, the cost
   meter, and the executor (every operator is cross-checked against a
   reference evaluation; access paths are cross-checked against each
   other). *)

open Rq_storage
open Rq_exec

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Expr                                                                *)
(* ------------------------------------------------------------------ *)

let expr_schema =
  Schema.create
    [
      { Schema.name = "a"; ty = Value.T_int };
      { Schema.name = "b"; ty = Value.T_float };
      { Schema.name = "d"; ty = Value.T_date };
    ]

let sample_tuple = [| v_int 6; Value.Float 2.5; Value.Date 100 |]

let eval e = Expr.eval expr_schema e sample_tuple

let test_expr_arithmetic () =
  Alcotest.(check bool) "int add" true (Value.equal (v_int 8) (eval (Expr.Add (Expr.col "a", Expr.int 2))));
  Alcotest.(check bool) "mixed mul" true
    (Value.equal (Value.Float 15.0) (eval (Expr.Mul (Expr.col "a", Expr.col "b"))));
  Alcotest.(check bool) "int div truncates" true
    (Value.equal (v_int 3) (eval (Expr.Div (Expr.col "a", Expr.int 2))));
  Alcotest.(check bool) "div by zero is null" true
    (Value.is_null (eval (Expr.Div (Expr.col "a", Expr.int 0))))

let test_expr_null_propagation () =
  let tuple = [| Value.Null; Value.Float 1.0; Value.Date 0 |] in
  check_bool "null + 1 = null" true
    (Value.is_null (Expr.eval expr_schema (Expr.Add (Expr.col "a", Expr.int 1)) tuple))

let test_expr_date_arithmetic () =
  Alcotest.(check bool) "add days" true
    (Value.equal (Value.Date 130) (eval (Expr.Add_days (Expr.col "d", 30))))

let test_expr_columns () =
  Alcotest.(check (list string)) "deduplicated, in order" [ "a"; "b" ]
    (Expr.columns (Expr.Add (Expr.col "a", Expr.Mul (Expr.col "b", Expr.col "a"))))

let test_expr_const_value () =
  check_bool "constant folds" true
    (match Expr.const_value (Expr.Add (Expr.int 2, Expr.int 3)) with
    | Some (Value.Int 5) -> true
    | _ -> false);
  check_bool "date folding" true
    (match Expr.const_value (Expr.Add_days (Expr.date ~year:1970 ~month:1 ~day:1, 10)) with
    | Some (Value.Date 10) -> true
    | _ -> false);
  check_bool "columns do not fold" true (Expr.const_value (Expr.col "a") = None)

let test_expr_unknown_column () =
  Alcotest.check_raises "unknown column" Not_found (fun () ->
      ignore (Expr.eval expr_schema (Expr.col "zz") sample_tuple))

(* ------------------------------------------------------------------ *)
(* Pred                                                                *)
(* ------------------------------------------------------------------ *)

let holds p = Pred.eval expr_schema p sample_tuple

let test_pred_comparisons () =
  check_bool "eq" true (holds (Pred.eq (Expr.col "a") (Expr.int 6)));
  check_bool "ne" true (holds (Pred.Cmp (Pred.Ne, Expr.col "a", Expr.int 5)));
  check_bool "lt" false (holds (Pred.lt (Expr.col "a") (Expr.int 6)));
  check_bool "le" true (holds (Pred.le (Expr.col "a") (Expr.int 6)));
  check_bool "between" true (holds (Pred.between (Expr.col "a") (Expr.int 5) (Expr.int 7)));
  check_bool "between exclusive" false
    (holds (Pred.between (Expr.col "a") (Expr.int 7) (Expr.int 9)))

let test_pred_null_semantics () =
  let tuple = [| Value.Null; Value.Float 1.0; Value.Date 0 |] in
  let eval_p p = Pred.eval expr_schema p tuple in
  check_bool "null = 6 is false" false (eval_p (Pred.eq (Expr.col "a") (Expr.int 6)));
  check_bool "null <> 6 is false too" false (eval_p (Pred.Cmp (Pred.Ne, Expr.col "a", Expr.int 6)));
  check_bool "not(null = 6) is true under collapsed 2VL" true
    (eval_p (Pred.Not (Pred.eq (Expr.col "a") (Expr.int 6))))

let test_pred_boolean_connectives () =
  check_bool "and" true
    (holds (Pred.conj [ Pred.ge (Expr.col "a") (Expr.int 6); Pred.le (Expr.col "a") (Expr.int 6) ]));
  check_bool "or" true
    (holds (Pred.Or [ Pred.eq (Expr.col "a") (Expr.int 0); Pred.eq (Expr.col "a") (Expr.int 6) ]));
  check_bool "not" false (holds (Pred.Not Pred.True))

let test_pred_contains () =
  let schema = Schema.create [ { Schema.name = "s"; ty = Value.T_string } ] in
  let eval_on v p = Pred.eval schema p [| v |] in
  check_bool "substring present" true
    (eval_on (Value.String "hello world") (Pred.Contains (Expr.col "s", "lo wo")));
  check_bool "substring absent" false
    (eval_on (Value.String "hello") (Pred.Contains (Expr.col "s", "xyz")));
  check_bool "empty needle" true (eval_on (Value.String "abc") (Pred.Contains (Expr.col "s", "")));
  check_bool "non-string" false (eval_on (v_int 3) (Pred.Contains (Expr.col "s", "3")))

let test_pred_conj_flattening () =
  let p = Pred.conj [ Pred.True; Pred.conj [ Pred.True; Pred.eq (Expr.col "a") (Expr.int 1) ] ] in
  check_int "flattened to single conjunct" 1 (List.length (Pred.conjuncts p));
  check_bool "conj [] = True" true (Pred.conj [] = Pred.True);
  check_bool "False absorbs" true (Pred.conj [ Pred.False; Pred.True; Pred.eq (Expr.col "a") (Expr.int 1) ] = Pred.False)

let test_pred_rename () =
  let p = Pred.eq (Expr.col "a") (Expr.col "b") in
  let renamed = Pred.rename_columns (fun c -> "t." ^ c) p in
  Alcotest.(check (list string)) "renamed" [ "t.a"; "t.b" ] (Pred.columns renamed)

(* ------------------------------------------------------------------ *)
(* Cost meter                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_accumulation () =
  let meter = Cost.create () in
  Cost.charge_seq_pages meter 10;
  Cost.charge_random_pages meter 2;
  let snap = Cost.snapshot meter in
  check_int "seq pages" 10 snap.Cost.seq_pages;
  check_int "random pages" 2 snap.Cost.random_pages;
  check_float "seconds" ((10.0 *. 1e-3) +. (2.0 *. 3.5e-3)) snap.Cost.seconds;
  Cost.reset meter;
  check_float "reset" 0.0 (Cost.snapshot meter).Cost.seconds

let test_cost_scale () =
  let meter = Cost.create ~scale:100.0 () in
  Cost.charge_seq_pages meter 1;
  check_float "scaled" 0.1 (Cost.snapshot meter).Cost.seconds;
  Alcotest.check_raises "bad scale" (Invalid_argument "Cost.create: scale must be positive")
    (fun () -> ignore (Cost.create ~scale:0.0 ()))

let test_cost_sort_charge () =
  let meter = Cost.create () in
  Cost.charge_sort meter 1024;
  (* 1024 * log2(1024) * 2e-8 = 1024 * 10 * 2e-8 *)
  check_float "n log n" (1024.0 *. 10.0 *. 2.0e-8) (Cost.snapshot meter).Cost.seconds

(* ------------------------------------------------------------------ *)
(* Executor fixture: a correlated table plus a parent for joins        *)
(* ------------------------------------------------------------------ *)

let fixture_catalog ?(rows = 2000) () =
  let rng = Rq_math.Rng.create 31 in
  let item_schema =
    Schema.create
      [
        { Schema.name = "item_id"; ty = Value.T_int };
        { Schema.name = "grp"; ty = Value.T_int };       (* FK to groups *)
        { Schema.name = "x"; ty = Value.T_int };
        { Schema.name = "y"; ty = Value.T_int };         (* correlated with x *)
        { Schema.name = "price"; ty = Value.T_float };
      ]
  in
  let group_schema =
    Schema.create
      [ { Schema.name = "grp_id"; ty = Value.T_int }; { Schema.name = "region"; ty = Value.T_int } ]
  in
  let groups = 50 in
  let items =
    Array.init rows (fun i ->
        let x = Rq_math.Rng.int rng 100 in
        [|
          v_int i;
          v_int (Rq_math.Rng.int rng groups);
          v_int x;
          v_int (x + Rq_math.Rng.int rng 10);
          Value.Float (float_of_int (Rq_math.Rng.int rng 1000));
        |])
  in
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~primary_key:"item_id"
    (Relation.create ~name:"items" ~schema:item_schema items);
  Catalog.add_table catalog ~primary_key:"grp_id"
    (Relation.create ~name:"groups" ~schema:group_schema
       (Array.init groups (fun g -> [| v_int g; v_int (g mod 5) |])));
  Catalog.add_foreign_key catalog
    { from_table = "items"; from_column = "grp"; to_table = "groups"; to_column = "grp_id" };
  List.iter
    (fun (table, column) -> Catalog.build_index catalog ~table ~column)
    [ ("items", "x"); ("items", "y"); ("items", "grp"); ("groups", "grp_id") ];
  catalog

let run_plan catalog plan =
  let meter = Cost.create () in
  let result = Executor.run catalog meter plan in
  (result, Cost.snapshot meter)

(* Order-insensitive comparison of result tuples. *)
let sorted_rows (result : Executor.result) =
  let rows = Array.map (fun tup -> Array.map Value.to_string tup) result.Executor.tuples in
  let rows = Array.to_list rows in
  List.sort compare rows

let check_same_rows msg a b = Alcotest.(check (list (array string))) msg (sorted_rows a) (sorted_rows b)

let items_pred =
  Pred.conj
    [
      Pred.between (Expr.col "x") (Expr.int 20) (Expr.int 40);
      Pred.between (Expr.col "y") (Expr.int 25) (Expr.int 45);
    ]

let test_access_paths_agree () =
  let catalog = fixture_catalog () in
  let scan access = Plan.Scan { table = "items"; access; pred = items_pred } in
  let seq, _ = run_plan catalog (scan Plan.Seq_scan) in
  let range, _ =
    run_plan catalog
      (scan (Plan.Index_range { Plan.column = "x"; lo = Some (v_int 20); hi = Some (v_int 40) }))
  in
  let isect, _ =
    run_plan catalog
      (scan
         (Plan.Index_intersect
            [
              { Plan.column = "x"; lo = Some (v_int 20); hi = Some (v_int 40) };
              { Plan.column = "y"; lo = Some (v_int 25); hi = Some (v_int 45) };
            ]))
  in
  check_bool "non-trivial result" true (Array.length seq.Executor.tuples > 0);
  check_same_rows "range = seq" seq range;
  check_same_rows "intersect = seq" seq isect

let test_access_path_costs () =
  let catalog = fixture_catalog ~rows:20_000 () in
  (* Very selective predicate: index intersection must beat the scan.  Wide
     predicate: the scan must win. *)
  let cost pred access =
    snd (run_plan catalog (Plan.Scan { table = "items"; access; pred }))
  in
  let narrow = Pred.conj [ Pred.eq (Expr.col "x") (Expr.int 3); Pred.eq (Expr.col "y") (Expr.int 3) ] in
  let isect pred =
    (cost pred
       (Plan.Index_intersect
          [
            { Plan.column = "x"; lo = Some (v_int 3); hi = Some (v_int 3) };
            { Plan.column = "y"; lo = Some (v_int 3); hi = Some (v_int 3) };
          ])).Cost.seconds
  in
  let wide = Pred.conj [ Pred.ge (Expr.col "x") (Expr.int 0); Pred.ge (Expr.col "y") (Expr.int 0) ] in
  let isect_wide =
    (cost wide
       (Plan.Index_intersect
          [
            { Plan.column = "x"; lo = Some (v_int 0); hi = None };
            { Plan.column = "y"; lo = Some (v_int 0); hi = None };
          ])).Cost.seconds
  in
  let seq_cost = (cost wide Plan.Seq_scan).Cost.seconds in
  check_bool "narrow: intersection beats scan" true (isect narrow < seq_cost);
  check_bool "wide: scan beats intersection" true (seq_cost < isect_wide)

let join_query pred =
  [ { Rq_optimizer.Logical.table = "items"; pred };
    { Rq_optimizer.Logical.table = "groups"; pred = Pred.eq (Expr.col "region") (Expr.int 2) } ]

let test_join_operators_agree () =
  let catalog = fixture_catalog () in
  let items_scan = Plan.Scan { table = "items"; access = Plan.Seq_scan; pred = items_pred } in
  let groups_pred = Pred.eq (Expr.col "region") (Expr.int 2) in
  let groups_scan = Plan.Scan { table = "groups"; access = Plan.Seq_scan; pred = groups_pred } in
  let hash, _ =
    run_plan catalog
      (Plan.Hash_join
         { build = groups_scan; probe = items_scan; build_key = "groups.grp_id"; probe_key = "items.grp" })
  in
  let merge, _ =
    run_plan catalog
      (Plan.Merge_join
         { left = groups_scan; right = items_scan; left_key = "groups.grp_id"; right_key = "items.grp" })
  in
  let inl, _ =
    run_plan catalog
      (Plan.Indexed_nl_join
         {
           outer = groups_scan;
           outer_key = "groups.grp_id";
           inner_table = "items";
           inner_key = "grp";
           inner_pred = items_pred;
         })
  in
  (* The reference: the naive evaluator over the logical refs.  Column order
     differs (naive uses BFS-from-root order), so compare projections. *)
  let naive = Rq_optimizer.Naive.evaluate catalog (join_query items_pred) in
  check_int "hash join cardinality matches naive" (Array.length naive.Executor.tuples)
    (Array.length hash.Executor.tuples);
  (* hash and merge output (groups ++ items); inl outputs (groups ++ items). *)
  check_same_rows "merge = hash" hash merge;
  check_same_rows "inl = hash" hash inl

let test_hash_join_empty_side () =
  let catalog = fixture_catalog () in
  let empty_scan =
    Plan.Scan { table = "groups"; access = Plan.Seq_scan; pred = Pred.False }
  in
  let items_scan = Plan.Scan { table = "items"; access = Plan.Seq_scan; pred = Pred.True } in
  let result, _ =
    run_plan catalog
      (Plan.Hash_join
         { build = empty_scan; probe = items_scan; build_key = "groups.grp_id"; probe_key = "items.grp" })
  in
  check_int "empty build side" 0 (Array.length result.Executor.tuples)

let test_merge_join_sort_charge () =
  let catalog = fixture_catalog () in
  (* groups scanned on its clustered key: no sort.  items joined on grp (not
     its clustering key, item_id): must be sorted, and the result must still
     be correct (covered by test_join_operators_agree); here we check the
     clustered side skips the sort by comparing costs. *)
  let groups_scan = Plan.Scan { table = "groups"; access = Plan.Seq_scan; pred = Pred.True } in
  let items_scan = Plan.Scan { table = "items"; access = Plan.Seq_scan; pred = Pred.True } in
  let clustered, clustered_cost =
    run_plan catalog
      (Plan.Merge_join
         { left = groups_scan; right = items_scan; left_key = "groups.grp_id"; right_key = "items.grp" })
  in
  (* Wrapping the clustered side in a no-op Filter hides its physical order
     from the merge join, which must then charge a sort. *)
  let wrapped, wrapped_cost =
    run_plan catalog
      (Plan.Merge_join
         {
           left = Plan.Filter (groups_scan, Pred.True);
           right = items_scan;
           left_key = "groups.grp_id";
           right_key = "items.grp";
         })
  in
  check_same_rows "same result either way" clustered wrapped;
  check_bool "hidden order forces a sort charge" true
    (wrapped_cost.Cost.seconds > clustered_cost.Cost.seconds)

let test_filter_project () =
  let catalog = fixture_catalog () in
  let scan = Plan.Scan { table = "items"; access = Plan.Seq_scan; pred = Pred.True } in
  let filtered, _ =
    run_plan catalog (Plan.Filter (scan, Pred.eq (Expr.col "items.x") (Expr.int 5)))
  in
  let direct, _ =
    run_plan catalog
      (Plan.Scan { table = "items"; access = Plan.Seq_scan; pred = Pred.eq (Expr.col "x") (Expr.int 5) })
  in
  check_same_rows "filter above = pushed down" direct filtered;
  let projected, _ = run_plan catalog (Plan.Project (scan, [ "items.x"; "items.item_id" ])) in
  check_int "projected arity" 2 (Schema.arity projected.Executor.schema);
  check_int "projected rows" 2000 (Array.length projected.Executor.tuples);
  Alcotest.(check string) "column order" "items.x"
    (Schema.column_at projected.Executor.schema 0).Schema.name

let test_aggregate_known () =
  let schema =
    Schema.create
      [ { Schema.name = "g"; ty = Value.T_int }; { Schema.name = "v"; ty = Value.T_float } ]
  in
  let catalog = Catalog.create () in
  Catalog.add_table catalog
    (Relation.create ~name:"t" ~schema
       [|
         [| v_int 1; Value.Float 10.0 |];
         [| v_int 1; Value.Float 20.0 |];
         [| v_int 2; Value.Float 5.0 |];
         [| v_int 2; Value.Null |];
       |]);
  let scan = Plan.Scan { table = "t"; access = Plan.Seq_scan; pred = Pred.True } in
  let result, _ =
    run_plan catalog
      (Plan.Aggregate
         {
           input = scan;
           group_by = [ "t.g" ];
           aggs =
             [
               { Plan.fn = Plan.Count_star; output_name = "n" };
               { Plan.fn = Plan.Count (Expr.col "t.v"); output_name = "n_v" };
               { Plan.fn = Plan.Sum (Expr.col "t.v"); output_name = "total" };
               { Plan.fn = Plan.Avg (Expr.col "t.v"); output_name = "mean" };
               { Plan.fn = Plan.Min (Expr.col "t.v"); output_name = "lo" };
               { Plan.fn = Plan.Max (Expr.col "t.v"); output_name = "hi" };
             ];
         })
  in
  check_int "two groups" 2 (Array.length result.Executor.tuples);
  let row_of g =
    Array.to_list result.Executor.tuples
    |> List.find (fun tup -> Value.equal tup.(0) (v_int g))
  in
  let g1 = row_of 1 and g2 = row_of 2 in
  check_bool "count g1" true (Value.equal g1.(1) (v_int 2));
  check_bool "count(v) g1" true (Value.equal g1.(2) (v_int 2));
  check_bool "sum g1" true (Value.equal g1.(3) (Value.Float 30.0));
  check_bool "avg g1" true (Value.equal g1.(4) (Value.Float 15.0));
  check_bool "count* counts null rows" true (Value.equal g2.(1) (v_int 2));
  check_bool "count(v) skips nulls" true (Value.equal g2.(2) (v_int 1));
  check_bool "sum skips nulls" true (Value.equal g2.(3) (Value.Float 5.0));
  check_bool "min g2" true (Value.equal g2.(5) (Value.Float 5.0));
  check_bool "max g2" true (Value.equal g2.(6) (Value.Float 5.0))

let test_aggregate_empty_input () =
  let catalog = fixture_catalog () in
  let scan = Plan.Scan { table = "items"; access = Plan.Seq_scan; pred = Pred.False } in
  let result, _ =
    run_plan catalog
      (Plan.Aggregate
         {
           input = scan;
           group_by = [];
           aggs =
             [
               { Plan.fn = Plan.Count_star; output_name = "n" };
               { Plan.fn = Plan.Sum (Expr.col "items.price"); output_name = "total" };
             ];
         })
  in
  check_int "one grand-total row" 1 (Array.length result.Executor.tuples);
  check_bool "count 0" true (Value.equal result.Executor.tuples.(0).(0) (v_int 0));
  check_bool "sum null" true (Value.is_null result.Executor.tuples.(0).(1))

let test_sort_and_limit () =
  let catalog = fixture_catalog ~rows:500 () in
  let scan = Plan.Scan { table = "items"; access = Plan.Seq_scan; pred = Pred.True } in
  let sorted, sorted_cost =
    run_plan catalog
      (Plan.Sort { input = scan; keys = [ { Plan.sort_column = "items.x"; descending = false } ] })
  in
  let pos = Schema.index_of sorted.Executor.schema "items.x" in
  let ascending = ref true in
  Array.iteri
    (fun i tup ->
      if i > 0 && Value.compare tup.(pos) sorted.Executor.tuples.(i - 1).(pos) < 0 then
        ascending := false)
    sorted.Executor.tuples;
  check_bool "ascending order" true !ascending;
  let _, unsorted_cost = run_plan catalog scan in
  check_bool "sorting is charged" true (sorted_cost.Cost.seconds > unsorted_cost.Cost.seconds);
  (* DESC reverses the leading key. *)
  let desc, _ =
    run_plan catalog
      (Plan.Sort { input = scan; keys = [ { Plan.sort_column = "items.x"; descending = true } ] })
  in
  check_bool "desc head >= asc head" true
    (Value.compare desc.Executor.tuples.(0).(pos) sorted.Executor.tuples.(0).(pos) >= 0);
  (* Limit truncates; over-limit is a no-op. *)
  let limited, _ = run_plan catalog (Plan.Limit (scan, 7)) in
  check_int "limit" 7 (Array.length limited.Executor.tuples);
  let all, _ = run_plan catalog (Plan.Limit (scan, 10_000)) in
  check_int "limit beyond input" 500 (Array.length all.Executor.tuples)

let test_sort_stability () =
  (* Equal keys keep input order: sorting by a constant column is the
     identity permutation. *)
  let catalog = fixture_catalog ~rows:100 () in
  let scan = Plan.Scan { table = "items"; access = Plan.Seq_scan; pred = Pred.True } in
  let base, _ = run_plan catalog scan in
  let sorted, _ =
    run_plan catalog
      (Plan.Sort { input = scan; keys = [ { Plan.sort_column = "items.grp"; descending = false } ] })
  in
  (* Within each group, item_id (input order) must stay increasing. *)
  let grp = Schema.index_of sorted.Executor.schema "items.grp" in
  let idp = Schema.index_of sorted.Executor.schema "items.item_id" in
  let stable = ref true in
  Array.iteri
    (fun i tup ->
      if i > 0 then begin
        let prev = sorted.Executor.tuples.(i - 1) in
        if Value.equal prev.(grp) tup.(grp) && Value.compare prev.(idp) tup.(idp) >= 0 then
          stable := false
      end)
    sorted.Executor.tuples;
  check_bool "stable within groups" true !stable;
  check_int "row count preserved" (Array.length base.Executor.tuples)
    (Array.length sorted.Executor.tuples)

let test_joins_skip_null_keys () =
  (* SQL join semantics: NULL keys never match, on either side, in any
     join operator. *)
  let schema_l =
    Schema.create [ { Schema.name = "lk"; ty = Value.T_int }; { Schema.name = "lv"; ty = Value.T_int } ]
  in
  let schema_r =
    Schema.create [ { Schema.name = "rk"; ty = Value.T_int }; { Schema.name = "rv"; ty = Value.T_int } ]
  in
  let catalog = Catalog.create () in
  Catalog.add_table catalog
    (Relation.create ~name:"l" ~schema:schema_l
       [| [| v_int 1; v_int 10 |]; [| Value.Null; v_int 20 |]; [| v_int 2; v_int 30 |] |]);
  Catalog.add_table catalog
    (Relation.create ~name:"r" ~schema:schema_r
       [| [| v_int 1; v_int 100 |]; [| Value.Null; v_int 200 |] |]);
  let scan t = Plan.Scan { table = t; access = Plan.Seq_scan; pred = Pred.True } in
  let hash, _ =
    run_plan catalog
      (Plan.Hash_join { build = scan "r"; probe = scan "l"; build_key = "r.rk"; probe_key = "l.lk" })
  in
  check_int "hash: only the non-null match" 1 (Array.length hash.Executor.tuples);
  let merge, _ =
    run_plan catalog
      (Plan.Merge_join { left = scan "r"; right = scan "l"; left_key = "r.rk"; right_key = "l.lk" })
  in
  check_int "merge agrees" 1 (Array.length merge.Executor.tuples)

let test_sort_nulls_first () =
  let schema = Schema.create [ { Schema.name = "v"; ty = Value.T_int } ] in
  let catalog = Catalog.create () in
  Catalog.add_table catalog
    (Relation.create ~name:"t" ~schema
       [| [| v_int 5 |]; [| Value.Null |]; [| v_int 1 |] |]);
  let sorted, _ =
    run_plan catalog
      (Plan.Sort
         {
           input = Plan.Scan { table = "t"; access = Plan.Seq_scan; pred = Pred.True };
           keys = [ { Plan.sort_column = "t.v"; descending = false } ];
         })
  in
  check_bool "NULL sorts first ascending" true
    (Value.is_null sorted.Executor.tuples.(0).(0));
  check_bool "then the smallest value" true
    (Value.equal sorted.Executor.tuples.(1).(0) (v_int 1))

let test_star_semijoin_exec () =
  (* Exec-level check of the semijoin strategy against the hash cascade on
     a miniature star. *)
  let rng = Rq_math.Rng.create 41 in
  let catalog = Catalog.create () in
  let dim_schema =
    Schema.create [ { Schema.name = "k"; ty = Value.T_int }; { Schema.name = "f"; ty = Value.T_int } ]
  in
  List.iter
    (fun name ->
      Catalog.add_table catalog ~primary_key:"k"
        (Relation.create ~name ~schema:dim_schema
           (Array.init 20 (fun i -> [| v_int i; v_int (i mod 4) |]))))
    [ "d1"; "d2" ];
  let fact_schema =
    Schema.create
      [
        { Schema.name = "id"; ty = Value.T_int };
        { Schema.name = "fk1"; ty = Value.T_int };
        { Schema.name = "fk2"; ty = Value.T_int };
      ]
  in
  Catalog.add_table catalog ~primary_key:"id"
    (Relation.create ~name:"f" ~schema:fact_schema
       (Array.init 400 (fun i ->
            [| v_int i; v_int (Rq_math.Rng.int rng 20); v_int (Rq_math.Rng.int rng 20) |])));
  List.iter
    (fun (col, dim) ->
      Catalog.add_foreign_key catalog
        { from_table = "f"; from_column = col; to_table = dim; to_column = "k" };
      Catalog.build_index catalog ~table:"f" ~column:col)
    [ ("fk1", "d1"); ("fk2", "d2") ];
  let dim_pred = Pred.eq (Expr.col "f") (Expr.int 2) in
  let semijoin =
    Plan.Star_semijoin
      {
        fact = "f";
        fact_pred = Pred.True;
        dims =
          [
            { Plan.dim_table = "d1"; dim_pred; fact_fk = "fk1" };
            { Plan.dim_table = "d2"; dim_pred; fact_fk = "fk2" };
          ];
      }
  in
  let cascade =
    Plan.Hash_join
      {
        build = Plan.Scan { table = "d2"; access = Plan.Seq_scan; pred = dim_pred };
        probe =
          Plan.Hash_join
            {
              build = Plan.Scan { table = "d1"; access = Plan.Seq_scan; pred = dim_pred };
              probe = Plan.Scan { table = "f"; access = Plan.Seq_scan; pred = Pred.True };
              build_key = "d1.k";
              probe_key = "f.fk1";
            };
        build_key = "d2.k";
        probe_key = "f.fk2";
      }
  in
  let semi, _ = run_plan catalog semijoin in
  let casc, _ = run_plan catalog cascade in
  check_int "same cardinality" (Array.length casc.Executor.tuples)
    (Array.length semi.Executor.tuples);
  (* Column orders differ (fact-first vs join order); compare the fact ids. *)
  let ids (res : Executor.result) col =
    let pos = Schema.index_of res.Executor.schema col in
    Array.to_list (Array.map (fun tup -> Value.to_string tup.(pos)) res.Executor.tuples)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "same fact rows" (ids casc "f.id") (ids semi "f.id")

let test_plan_validate () =
  let catalog = fixture_catalog () in
  let bad_index =
    Plan.Scan
      {
        table = "items";
        access = Plan.Index_range { Plan.column = "price"; lo = None; hi = None };
        pred = Pred.True;
      }
  in
  check_bool "missing index rejected" true (Result.is_error (Plan.validate catalog bad_index));
  let single_probe =
    Plan.Scan
      {
        table = "items";
        access = Plan.Index_intersect [ { Plan.column = "x"; lo = None; hi = None } ];
        pred = Pred.True;
      }
  in
  check_bool "single-probe intersect rejected" true
    (Result.is_error (Plan.validate catalog single_probe));
  let good = Plan.Scan { table = "items"; access = Plan.Seq_scan; pred = Pred.True } in
  check_bool "good plan accepted" true (Result.is_ok (Plan.validate catalog good));
  check_bool "unknown table rejected" true
    (Result.is_error
       (Plan.validate catalog (Plan.Scan { table = "zz"; access = Plan.Seq_scan; pred = Pred.True })));
  (* A materialized leaf holds one column per schema column, each n_rows
     long. *)
  let schema = Plan.schema_of catalog good in
  let mat cols n_rows = Plan.Materialized { name = "m"; schema; cols; n_rows; refs = [] } in
  let column n = Array.init n (fun i -> Value.Int i) in
  let arity = Schema.arity schema in
  check_bool "materialized leaf accepted" true
    (Result.is_ok (Plan.validate catalog (mat (Array.init arity (fun _ -> column 3)) 3)));
  check_bool "zero-row materialized leaf accepted" true
    (Result.is_ok (Plan.validate catalog (mat (Array.make arity [||]) 0)));
  check_bool "materialized leaf missing a column rejected" true
    (Result.is_error (Plan.validate catalog (mat (Array.init (arity - 1) (fun _ -> column 3)) 3)));
  check_bool "materialized leaf with an extra column rejected" true
    (Result.is_error (Plan.validate catalog (mat (Array.init (arity + 1) (fun _ -> column 3)) 3)));
  check_bool "materialized column shorter than n_rows rejected" true
    (Result.is_error
       (Plan.validate catalog (mat (Array.init arity (fun c -> column (if c = 0 then 2 else 3))) 3)));
  check_bool "materialized columns longer than n_rows rejected" true
    (Result.is_error (Plan.validate catalog (mat (Array.init arity (fun _ -> column 4)) 3)))

let test_plan_describe_and_tables () =
  let scan t = Plan.Scan { table = t; access = Plan.Seq_scan; pred = Pred.True } in
  let plan =
    Plan.Hash_join
      { build = scan "groups"; probe = scan "items"; build_key = "groups.grp_id"; probe_key = "items.grp" }
  in
  Alcotest.(check string) "describe" "Hash(Scan(groups),Scan(items))" (Plan.describe plan);
  Alcotest.(check (list string)) "base tables" [ "groups"; "items" ] (Plan.base_tables plan)

(* Random predicates: every access path must agree with the sequential
   scan. *)
let prop_access_paths_equivalent =
  let catalog = fixture_catalog ~rows:500 () in
  QCheck.Test.make ~name:"all access paths compute the same rows" ~count:60
    QCheck.(quad (int_range 0 99) (int_range 0 99) (int_range 0 109) (int_range 0 109))
    (fun (x1, x2, y1, y2) ->
      let xlo = min x1 x2 and xhi = max x1 x2 in
      let ylo = min y1 y2 and yhi = max y1 y2 in
      let pred =
        Pred.conj
          [
            Pred.between (Expr.col "x") (Expr.int xlo) (Expr.int xhi);
            Pred.between (Expr.col "y") (Expr.int ylo) (Expr.int yhi);
          ]
      in
      let scan access = Plan.Scan { table = "items"; access; pred } in
      let seq, _ = run_plan catalog (scan Plan.Seq_scan) in
      let isect, _ =
        run_plan catalog
          (scan
             (Plan.Index_intersect
                [
                  { Plan.column = "x"; lo = Some (v_int xlo); hi = Some (v_int xhi) };
                  { Plan.column = "y"; lo = Some (v_int ylo); hi = Some (v_int yhi) };
                ]))
      in
      sorted_rows seq = sorted_rows isect)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rq_exec"
    [
      ( "expr",
        [
          Alcotest.test_case "arithmetic" `Quick test_expr_arithmetic;
          Alcotest.test_case "null propagation" `Quick test_expr_null_propagation;
          Alcotest.test_case "date arithmetic" `Quick test_expr_date_arithmetic;
          Alcotest.test_case "columns" `Quick test_expr_columns;
          Alcotest.test_case "constant folding" `Quick test_expr_const_value;
          Alcotest.test_case "unknown column" `Quick test_expr_unknown_column;
        ] );
      ( "pred",
        [
          Alcotest.test_case "comparisons" `Quick test_pred_comparisons;
          Alcotest.test_case "null semantics" `Quick test_pred_null_semantics;
          Alcotest.test_case "boolean connectives" `Quick test_pred_boolean_connectives;
          Alcotest.test_case "contains" `Quick test_pred_contains;
          Alcotest.test_case "conjunction flattening" `Quick test_pred_conj_flattening;
          Alcotest.test_case "column renaming" `Quick test_pred_rename;
        ] );
      ( "cost",
        [
          Alcotest.test_case "accumulation and reset" `Quick test_cost_accumulation;
          Alcotest.test_case "scale" `Quick test_cost_scale;
          Alcotest.test_case "sort charge" `Quick test_cost_sort_charge;
        ] );
      ( "executor",
        [
          Alcotest.test_case "access paths agree" `Quick test_access_paths_agree;
          Alcotest.test_case "access path cost asymmetry" `Quick test_access_path_costs;
          Alcotest.test_case "join operators agree" `Quick test_join_operators_agree;
          Alcotest.test_case "hash join with empty side" `Quick test_hash_join_empty_side;
          Alcotest.test_case "merge join sort charging" `Quick test_merge_join_sort_charge;
          Alcotest.test_case "filter and project" `Quick test_filter_project;
          Alcotest.test_case "aggregates on known data" `Quick test_aggregate_known;
          Alcotest.test_case "aggregate over empty input" `Quick test_aggregate_empty_input;
          Alcotest.test_case "sort and limit" `Quick test_sort_and_limit;
          Alcotest.test_case "sort stability" `Quick test_sort_stability;
          Alcotest.test_case "joins skip NULL keys" `Quick test_joins_skip_null_keys;
          Alcotest.test_case "NULLs sort first" `Quick test_sort_nulls_first;
          Alcotest.test_case "star semijoin = hash cascade" `Quick test_star_semijoin_exec;
        ]
        @ qcheck [ prop_access_paths_equivalent ] );
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validate;
          Alcotest.test_case "describe and base tables" `Quick test_plan_describe_and_tables;
        ] );
    ]
