(* qcheck equivalence laws for the logical rewrite layer: every rule
   preserves results on randomly generated queries, the driver reaches a
   fixpoint and is idempotent, commuting rule pairs are order-insensitive,
   ORDER BY/LIMIT pushdown strictly drops pages under streaming early
   exit, and fingerprint canonicalization merges respelled queries without
   conflating semantically distinct ones. *)

open Rq_storage
open Rq_exec
open Rq_optimizer

let v_int i = Value.Int i
let check_bool = Alcotest.(check bool)

(* Same sensors world as test_optimizer: readings(r_id, site, temp, alert)
   with indexes on temp/alert/site, sites(site_id, zone), FK
   readings.site -> sites.site_id.  Every rule has something to chew on:
   an indexed ORDER BY key, an FK edge to decorrelate along and to restate
   redundantly, qualified residual conjuncts to push down. *)
let fixture ?(rows = 2000) () =
  let rng = Rq_math.Rng.create 61 in
  let catalog = Catalog.create () in
  let sites = 25 in
  Catalog.add_table catalog ~primary_key:"site_id"
    (Relation.create ~name:"sites"
       ~schema:
         (Schema.create
            [
              { Schema.name = "site_id"; ty = Value.T_int };
              { Schema.name = "zone"; ty = Value.T_int };
            ])
       (Array.init sites (fun i -> [| v_int i; v_int (i mod 5) |])));
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
       (Array.init rows (fun i ->
            let temp = Rq_math.Rng.int rng 1000 in
            [|
              v_int i;
              v_int (Rq_math.Rng.int rng sites);
              v_int temp;
              v_int (if temp >= 980 then 1 else 0);
            |])));
  Catalog.add_foreign_key catalog
    { from_table = "readings"; from_column = "site"; to_table = "sites"; to_column = "site_id" };
  List.iter
    (fun (table, column) -> Catalog.build_index catalog ~table ~column)
    [ ("readings", "temp"); ("readings", "alert"); ("readings", "site"); ("sites", "site_id") ];
  catalog

let build_stats ?(sample_size = 300) catalog seed =
  Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create seed)
    ~config:{ Rq_stats.Stats_store.default_config with sample_size }
    catalog

let catalog = fixture ()
let stats = build_stats catalog 97

(* Execute a query end to end.  Scalar subqueries cannot run unrewritten,
   so queries carrying one go through the full rewrite on both sides of a
   law; everything else executes with the rewrite pass off, which is what
   isolates the single rule under test. *)
let run_q q =
  let opt = Optimizer.robust stats in
  let d = Optimizer.optimize_exn ~rewrite:(q.Logical.scalars <> []) opt q in
  let meter = Cost.create () in
  Executor.run catalog meter d.Optimizer.plan

(* ------------------------------------------------------------------ *)
(* Query generator                                                     *)
(* ------------------------------------------------------------------ *)

let render_query (q : Logical.t) =
  let tables =
    String.concat ", "
      (List.map
         (fun (r : Logical.table_ref) ->
           r.Logical.table ^ "[" ^ Pred.render r.Logical.pred ^ "]")
         q.Logical.tables)
  in
  let sj (s : Logical.semijoin) =
    Printf.sprintf "%s IN %s(%s)[%s]" s.Logical.outer_key s.Logical.inner.Logical.table
      s.Logical.inner_key
      (Pred.render s.Logical.inner.Logical.pred)
  in
  let sc (s : Logical.scalar) =
    Printf.sprintf "%s ? %s[%s]" (Expr.render s.Logical.s_expr) s.Logical.s_table
      (Pred.render s.Logical.s_pred)
  in
  Printf.sprintf "FROM %s WHERE %s%s%s GROUP [%s] AGGS %d PROJ %s ORDER [%s] LIMIT %s"
    tables
    (Pred.render q.Logical.residual)
    (match q.Logical.semijoins with
    | [] -> ""
    | l -> " SEMI " ^ String.concat "; " (List.map sj l))
    (match q.Logical.scalars with
    | [] -> ""
    | l -> " SCALAR " ^ String.concat "; " (List.map sc l))
    (String.concat "," q.Logical.group_by)
    (List.length q.Logical.aggs)
    (match q.Logical.projection with None -> "*" | Some c -> String.concat "," c)
    (String.concat ","
       (List.map
          (fun (k : Plan.sort_key) ->
            k.Plan.sort_column ^ if k.Plan.descending then " desc" else " asc")
          q.Logical.order_by))
    (match q.Logical.limit with None -> "-" | Some n -> string_of_int n)

let gen_query : Logical.t QCheck.Gen.t =
  let open QCheck.Gen in
  let base_readings_pred =
    frequency
      [
        (3, return Pred.True);
        (3, map (fun k -> Pred.lt (Expr.col "temp") (Expr.int k)) (int_range 0 1000));
        (2, map (fun k -> Pred.ge (Expr.col "temp") (Expr.int k)) (int_range 800 1000));
        (2, map (fun b -> Pred.eq (Expr.col "alert") (Expr.int b)) (int_range 0 1));
        (* bounds sometimes inverted: BETWEEN folds to False *)
        ( 1,
          map2
            (fun lo hi -> Pred.between (Expr.col "temp") (Expr.int lo) (Expr.int hi))
            (int_range 0 500) (int_range 0 500) );
        (1, return (Pred.Cmp (Pred.Lt, Expr.int 1, Expr.int 2)));
        (1, return (Pred.Cmp (Pred.Gt, Expr.Const Value.Null, Expr.int 3)));
        ( 1,
          map
            (fun k -> Pred.lt (Expr.col "temp") (Expr.Add (Expr.int k, Expr.int 7)))
            (int_range 0 900) );
      ]
  in
  (* Wrap with shapes the simplifier normalizes away. *)
  let decorate p =
    frequency
      [
        (5, return p);
        (1, return (Pred.And [ Pred.True; p ]));
        (1, return (Pred.Not (Pred.Not p)));
        (1, return (Pred.And [ p; p ]));
        (1, return (Pred.Or [ p; Pred.False ]));
      ]
  in
  let readings_pred = base_readings_pred >>= decorate in
  let sites_pred =
    frequency
      [
        (3, return Pred.True);
        (2, map (fun k -> Pred.lt (Expr.col "zone") (Expr.int k)) (int_range 1 5));
        (1, map (fun k -> Pred.le (Expr.col "site_id") (Expr.int k)) (int_range 0 24));
      ]
  in
  (* Semijoin inners must not appear in FROM, so readings-only queries
     filter against sites and vice versa.  The site/site_id pair rides the
     FK edge (decorrelatable); temp/site_id does not. *)
  let semijoin_on_sites =
    frequency
      [
        ( 2,
          map
            (fun k ->
              {
                Logical.outer_key = "readings.site";
                inner = Logical.scan ~pred:(Pred.lt (Expr.col "zone") (Expr.int k)) "sites";
                inner_key = "site_id";
              })
            (int_range 1 5) );
        ( 1,
          map
            (fun k ->
              {
                Logical.outer_key = "readings.temp";
                inner = Logical.scan ~pred:(Pred.le (Expr.col "zone") (Expr.int k)) "sites";
                inner_key = "site_id";
              })
            (int_range 0 4) );
      ]
  in
  let semijoin_on_readings =
    map
      (fun k ->
        {
          Logical.outer_key = "sites.site_id";
          inner = Logical.scan ~pred:(Pred.lt (Expr.col "temp") (Expr.int k)) "readings";
          inner_key = "site";
        })
      (int_range 0 1000)
  in
  let scalar_on_sites =
    frequency
      [
        ( 2,
          map2
            (fun k cmp ->
              {
                Logical.s_expr = Expr.col "readings.temp";
                s_cmp = cmp;
                s_agg = Plan.Max (Expr.col "sites.site_id");
                s_table = "sites";
                s_pred = Pred.le (Expr.col "zone") (Expr.int k);
              })
            (int_range 0 4)
            (oneofl [ Pred.Lt; Pred.Ge ]) );
        ( 1,
          return
            {
              Logical.s_expr = Expr.col "readings.r_id";
              s_cmp = Pred.Lt;
              s_agg = Plan.Count_star;
              s_table = "sites";
              s_pred = Pred.True;
            } );
        (* empty inner: the aggregate is NULL, the comparison folds to False *)
        ( 1,
          return
            {
              Logical.s_expr = Expr.col "readings.temp";
              s_cmp = Pred.Gt;
              s_agg = Plan.Min (Expr.col "sites.zone");
              s_table = "sites";
              s_pred = Pred.gt (Expr.col "zone") (Expr.int 100);
            } );
      ]
  in
  (* Output shape on top of a FROM/WHERE skeleton.  LIMIT is only sound to
     compare across plans when every candidate emits one canonical order:
     single-table plans without a semijoin all emit RID order (or the
     identical stable-sorted order when an ORDER BY is present). *)
  let finish ~tables ~residual ~semijoins ~scalars ~full_cols ~sub_cols ~group_col ~order_col
      ~allow_limit =
    let count_n = { Plan.fn = Plan.Count_star; output_name = "n" } in
    frequency
      [
        ( 5,
          frequency
            [ (3, return None); (1, return (Some full_cols)); (1, return (Some sub_cols)) ]
          >>= fun projection ->
          (match projection with
          | Some cols when not (List.mem order_col cols) -> return []
          | _ ->
              frequency
                [
                  (2, return []);
                  (1, map (fun d -> [ { Plan.sort_column = order_col; descending = d } ]) bool);
                ])
          >>= fun order_by ->
          (if allow_limit && semijoins = [] then
             frequency [ (2, return None); (1, map Option.some (int_range 1 20)) ]
           else return None)
          >>= fun limit ->
          return
            (Logical.query ~residual ~semijoins ~scalars ?projection ~order_by ?limit tables) );
        ( 2,
          return (Logical.query ~residual ~semijoins ~scalars ~aggs:[ count_n ] tables) );
        ( 2,
          return
            (Logical.query ~residual ~semijoins ~scalars ~group_by:[ group_col ]
               ~aggs:[ count_n ] tables) );
        (* projection shadowed by aggregation: project-prune fodder *)
        ( 1,
          return
            (Logical.query ~residual ~semijoins ~scalars ~aggs:[ count_n ]
               ~projection:[ group_col ] tables) );
      ]
  in
  let readings_cols = [ "readings.r_id"; "readings.site"; "readings.temp"; "readings.alert" ] in
  let sites_cols = [ "sites.site_id"; "sites.zone" ] in
  int_range 0 9 >>= fun shape ->
  if shape < 5 then
    readings_pred >>= fun rp ->
    frequency
      [
        (3, return Pred.True);
        (1, map (fun k -> Pred.ge (Expr.col "readings.temp") (Expr.int k)) (int_range 0 1000));
        ( 1,
          map
            (fun k ->
              Pred.And
                [
                  Pred.ge (Expr.col "readings.temp") (Expr.int k);
                  Pred.Cmp (Pred.Lt, Expr.int 3, Expr.int 4);
                ])
            (int_range 0 1000) );
      ]
    >>= fun residual ->
    frequency [ (4, return []); (2, map (fun sj -> [ sj ]) semijoin_on_sites) ]
    >>= fun semijoins ->
    frequency [ (5, return []); (1, map (fun sc -> [ sc ]) scalar_on_sites) ]
    >>= fun scalars ->
    finish
      ~tables:[ { Logical.table = "readings"; pred = rp } ]
      ~residual ~semijoins ~scalars ~full_cols:readings_cols
      ~sub_cols:[ "readings.temp"; "readings.alert" ]
      ~group_col:"readings.alert" ~order_col:"readings.temp" ~allow_limit:true
  else if shape < 9 then
    readings_pred >>= fun rp ->
    sites_pred >>= fun sp ->
    frequency
      [
        (3, return Pred.True);
        (2, return (Pred.Cmp (Pred.Eq, Expr.col "readings.site", Expr.col "sites.site_id")));
        (1, map (fun k -> Pred.ge (Expr.col "readings.temp") (Expr.int k)) (int_range 0 1000));
        ( 1,
          map
            (fun k ->
              Pred.And
                [
                  Pred.Cmp (Pred.Eq, Expr.col "readings.site", Expr.col "sites.site_id");
                  Pred.ge (Expr.col "readings.temp") (Expr.int k);
                ])
            (int_range 0 1000) );
        (* a genuinely multi-table non-FK conjunct: stays residual forever *)
        (1, return (Pred.Cmp (Pred.Le, Expr.col "readings.site", Expr.col "sites.site_id")));
      ]
    >>= fun residual ->
    frequency [ (8, return []); (1, map (fun sc -> [ sc ]) scalar_on_sites) ]
    >>= fun scalars ->
    finish
      ~tables:
        [ { Logical.table = "readings"; pred = rp }; { Logical.table = "sites"; pred = sp } ]
      ~residual ~semijoins:[] ~scalars ~full_cols:(readings_cols @ sites_cols)
      ~sub_cols:[ "readings.temp"; "sites.zone" ] ~group_col:"sites.zone"
      ~order_col:"readings.temp" ~allow_limit:false
  else
    sites_pred >>= fun sp ->
    frequency [ (3, return []); (2, map (fun sj -> [ sj ]) semijoin_on_readings) ]
    >>= fun semijoins ->
    finish
      ~tables:[ { Logical.table = "sites"; pred = sp } ]
      ~residual:Pred.True ~semijoins ~scalars:[] ~full_cols:sites_cols
      ~sub_cols:[ "sites.zone" ] ~group_col:"sites.zone" ~order_col:"sites.zone"
      ~allow_limit:true

let arbitrary_query = QCheck.make ~print:render_query gen_query

(* ------------------------------------------------------------------ *)
(* Laws                                                                *)
(* ------------------------------------------------------------------ *)

(* Soundness: a rule either declines or produces a valid query with the
   same results. *)
let rule_law rule =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s preserves results" rule)
    ~count:35 arbitrary_query
    (fun q ->
      (match Logical.validate catalog q with
      | Error e -> QCheck.Test.fail_reportf "generator produced invalid query: %s" e
      | Ok () -> ());
      match Rewrite.apply_rule catalog rule q with
      | None -> true
      | Some (q', _detail) -> (
          match Logical.validate catalog q' with
          | Error e -> QCheck.Test.fail_reportf "%s broke validity: %s" rule e
          | Ok () ->
              let r = run_q q and r' = run_q q' in
              Rq_experiments.Exp_common.results_equal r r'
              || QCheck.Test.fail_reportf "%s changed results" rule))

(* The driver terminates within budget and its output is a normal form:
   re-running rewrites nothing and returns the same query. *)
let fixpoint_law =
  QCheck.Test.make ~name:"rewrite reaches a fixpoint and is idempotent" ~count:60
    arbitrary_query
    (fun q ->
      let q1, rep1 = Rewrite.rewrite catalog q in
      let q2, rep2 = Rewrite.rewrite catalog q1 in
      if not rep1.Rewrite.fixpoint then
        QCheck.Test.fail_reportf "rule budget exhausted before fixpoint"
      else if rep2.Rewrite.applied <> [] then
        QCheck.Test.fail_reportf "second rewrite still applied %s"
          (String.concat "," (List.map fst rep2.Rewrite.applied))
      else
        q1 = q2
        || QCheck.Test.fail_reportf "rewrite not idempotent: %s <> %s" (render_query q1)
             (render_query q2))

let pair_fixpoint names q =
  let rec go q n =
    if n <= 0 then q
    else
      match List.find_map (fun r -> Rewrite.apply_rule catalog r q) names with
      | None -> q
      | Some (q', _) -> go q' (n - 1)
  in
  go q 128

(* Order insensitivity on commuting pairs: restricting the pass list to
   two rules, both orders drive to the same normal form. *)
let commute_law (a, b) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s / %s commute" a b)
    ~count:35 arbitrary_query
    (fun q ->
      let ab = pair_fixpoint [ a; b ] q and ba = pair_fixpoint [ b; a ] q in
      ab = ba
      || QCheck.Test.fail_reportf "order-sensitive normal forms: %s <> %s" (render_query ab)
           (render_query ba))

let commuting_pairs =
  [
    ("const-fold", "simplify");
    ("filter-pushdown", "cross-product-avoid");
    ("project-prune", "sort-limit-pushdown");
  ]

(* ------------------------------------------------------------------ *)
(* Rule coverage: the laws above are vacuous for a rule that never       *)
(* fires, so pin one crafted firing query per rule.                      *)
(* ------------------------------------------------------------------ *)

let test_rule_coverage () =
  let fires rule q =
    match Rewrite.apply_rule catalog rule q with Some _ -> true | None -> false
  in
  let scan = Logical.scan in
  check_bool "const-fold" true
    (fires "const-fold"
       (Logical.query [ scan ~pred:(Pred.Cmp (Pred.Lt, Expr.int 1, Expr.int 2)) "readings" ]));
  check_bool "simplify" true
    (fires "simplify"
       (Logical.query
          [ scan ~pred:(Pred.And [ Pred.True; Pred.lt (Expr.col "temp") (Expr.int 5) ]) "readings" ]));
  check_bool "scalar-fold" true
    (fires "scalar-fold"
       (Logical.query
          ~scalars:
            [
              {
                Logical.s_expr = Expr.col "readings.temp";
                s_cmp = Pred.Lt;
                s_agg = Plan.Max (Expr.col "sites.site_id");
                s_table = "sites";
                s_pred = Pred.True;
              };
            ]
          [ scan "readings" ]));
  check_bool "filter-pushdown" true
    (fires "filter-pushdown"
       (Logical.query ~residual:(Pred.ge (Expr.col "readings.temp") (Expr.int 5))
          [ scan "readings" ]));
  check_bool "decorrelate" true
    (fires "decorrelate"
       (Logical.query
          ~semijoins:
            [
              {
                Logical.outer_key = "readings.site";
                inner = scan ~pred:(Pred.lt (Expr.col "zone") (Expr.int 3)) "sites";
                inner_key = "site_id";
              };
            ]
          [ scan "readings" ]));
  check_bool "cross-product-avoid" true
    (fires "cross-product-avoid"
       (Logical.query
          ~residual:(Pred.Cmp (Pred.Eq, Expr.col "readings.site", Expr.col "sites.site_id"))
          [ scan "readings"; scan "sites" ]));
  check_bool "project-prune" true
    (fires "project-prune"
       (Logical.query
          ~projection:[ "readings.r_id"; "readings.site"; "readings.temp"; "readings.alert" ]
          [ scan "readings" ]));
  check_bool "sort-limit-pushdown" true
    (fires "sort-limit-pushdown"
       (Logical.query
          ~order_by:[ { Plan.sort_column = "readings.temp"; descending = false } ]
          ~limit:3 [ scan "readings" ]))

let test_unknown_rule_rejected () =
  match Rewrite.apply_rule catalog "no-such-rule" (Logical.query [ Logical.scan "readings" ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an unknown rule"

(* ------------------------------------------------------------------ *)
(* ORDER BY/LIMIT pushdown composes with streaming early exit           *)
(* ------------------------------------------------------------------ *)

let rec plan_exists p plan =
  p plan
  ||
  match plan with
  | Plan.Scan _ | Plan.Scan_resume _ | Plan.Materialized _ | Plan.Star_semijoin _ -> false
  | Plan.Hash_join { build; probe; _ } -> plan_exists p build || plan_exists p probe
  | Plan.Merge_join { left; right; _ } -> plan_exists p left || plan_exists p right
  | Plan.Indexed_nl_join { outer; _ } -> plan_exists p outer
  | Plan.Filter (i, _) | Plan.Project (i, _) | Plan.Limit (i, _) -> plan_exists p i
  | Plan.Sort { input; _ } | Plan.Aggregate { input; _ } | Plan.Guard { input; _ } ->
      plan_exists p input
  | Plan.Append parts -> List.exists (plan_exists p) parts

let is_sort = function Plan.Sort _ -> true | _ -> false

let is_ordered_scan = function
  | Plan.Scan { access = Plan.Index_order _; _ } -> true
  | _ -> false

(* Acceptance criterion: on a large table, ORDER BY temp LIMIT 5 rewritten
   through sort-limit-pushdown picks the ordered index scan, elides the
   Sort, and — streamed — reads strictly fewer pages than the unrewritten
   SeqScan + Sort + Limit plan, while returning the same rows. *)
let test_limit_pushdown_page_drop () =
  let catalog = fixture ~rows:100_000 () in
  let stats = build_stats catalog 91 in
  let opt = Optimizer.robust stats in
  let q =
    Logical.query
      ~order_by:[ { Plan.sort_column = "readings.temp"; descending = false } ]
      ~limit:5
      [ Logical.scan "readings" ]
  in
  let rewritten = Optimizer.optimize_exn ~rewrite:true opt q in
  let plain = Optimizer.optimize_exn ~rewrite:false opt q in
  check_bool "pushdown rule applied" true
    (List.mem_assoc "sort-limit-pushdown" rewritten.Optimizer.rewrites);
  check_bool "rewritten plan scans in index order" true
    (plan_exists is_ordered_scan rewritten.Optimizer.plan);
  check_bool "rewritten plan elides the sort" false
    (plan_exists is_sort rewritten.Optimizer.plan);
  check_bool "unrewritten plan sorts" true (plan_exists is_sort plain.Optimizer.plan);
  let run plan =
    let meter = Cost.create () in
    let res = Executor.run catalog meter plan in
    let s = Cost.snapshot meter in
    (res, s.Cost.seq_pages + s.Cost.random_pages)
  in
  let res_r, pages_r = run rewritten.Optimizer.plan in
  let res_p, pages_p = run plain.Optimizer.plan in
  check_bool "same rows" true (Rq_experiments.Exp_common.results_equal res_r res_p);
  Alcotest.(check int) "limit honored" 5 (Array.length res_r.Executor.tuples);
  if not (pages_r < pages_p) then
    Alcotest.failf "pages did not drop: rewritten %d >= unrewritten %d" pages_r pages_p

(* ------------------------------------------------------------------ *)
(* Fingerprint stability under rewriting                                *)
(* ------------------------------------------------------------------ *)

let key ?estimator q =
  Rq_sql.Fingerprint.to_key (Rq_sql.Fingerprint.of_logical ?estimator q)

let base_query =
  Logical.query [ Logical.scan ~pred:(Pred.ge (Expr.col "temp") (Expr.int 980)) "readings" ]

(* Differently spelled but identical queries share one cache key. *)
let test_fingerprint_canonical_merge () =
  let respelled_pushdown =
    Logical.query
      ~residual:(Pred.ge (Expr.col "readings.temp") (Expr.int 980))
      [ Logical.scan "readings" ]
  in
  let respelled_noise =
    Logical.query
      [
        Logical.scan
          ~pred:
            (Pred.And
               [
                 Pred.True;
                 Pred.ge (Expr.col "temp") (Expr.int 980);
                 Pred.ge (Expr.col "temp") (Expr.int 980);
               ])
          "readings";
      ]
  in
  Alcotest.(check string) "residual spelling pushed down" (key base_query)
    (key respelled_pushdown);
  Alcotest.(check string) "noise conjuncts simplified away" (key base_query)
    (key respelled_noise);
  let count_n = { Plan.fn = Plan.Count_star; output_name = "n" } in
  let agg q projection =
    Logical.query ~aggs:[ count_n ] ?projection
      [ Logical.scan ~pred:(Pred.ge (Expr.col "temp") (Expr.int q)) "readings" ]
  in
  Alcotest.(check string) "aggregation-shadowed projection pruned"
    (key (agg 980 None))
    (key (agg 980 (Some [ "readings.temp" ])))

(* The pure rewrite pipeline only respells the query, so the full rewrite
   of a scalar-free, semijoin-free query keeps its cache key (index_order
   is a physical knob, deliberately outside the key). *)
let test_fingerprint_stable_across_rewrite () =
  let q =
    Logical.query
      ~residual:(Pred.ge (Expr.col "readings.temp") (Expr.int 500))
      ~order_by:[ { Plan.sort_column = "readings.temp"; descending = false } ]
      ~limit:7
      [ Logical.scan "readings" ]
  in
  let q', _report = Rewrite.rewrite catalog q in
  Alcotest.(check string) "rewritten form shares the key" (key q) (key q')

(* Queries with different semantics must keep distinct keys — regression
   for the widened surface (semijoins, scalars, residuals, ORDER BY and
   LIMIT were once invisible to the fingerprint). *)
let test_fingerprint_distinct_semantics () =
  let distinct name q = check_bool name false (String.equal (key base_query) (key q)) in
  distinct "different selectivity"
    (Logical.query [ Logical.scan ~pred:(Pred.ge (Expr.col "temp") (Expr.int 981)) "readings" ]);
  let base_pred = Pred.ge (Expr.col "temp") (Expr.int 980) in
  let with_ q = q [ Logical.scan ~pred:base_pred "readings" ] in
  distinct "limit in key" (with_ (Logical.query ~limit:5));
  distinct "order in key"
    (with_
       (Logical.query ~order_by:[ { Plan.sort_column = "readings.temp"; descending = true } ]));
  distinct "semijoin in key"
    (with_
       (Logical.query
          ~semijoins:
            [
              {
                Logical.outer_key = "readings.site";
                inner = Logical.scan "sites";
                inner_key = "site_id";
              };
            ]));
  distinct "scalar in key"
    (with_
       (Logical.query
          ~scalars:
            [
              {
                Logical.s_expr = Expr.col "readings.temp";
                s_cmp = Pred.Lt;
                s_agg = Plan.Max (Expr.col "sites.site_id");
                s_table = "sites";
                s_pred = Pred.True;
              };
            ]));
  distinct "cross-table residual in key"
    (Logical.query
       ~residual:(Pred.Cmp (Pred.Le, Expr.col "readings.site", Expr.col "sites.site_id"))
       [ Logical.scan ~pred:base_pred "readings"; Logical.scan "sites" ]);
  check_bool "estimator tag in key" false
    (String.equal (key ~estimator:"robust" base_query) (key ~estimator:"baseline" base_query))

(* The exact canonical key, pinned so plan caches persisted by one build
   are readable by the next. *)
let test_fingerprint_cross_session_key () =
  Alcotest.(check string) "pinned canonical key"
    "t:readings[(>= c:temp v:980)];r:true;s:;q:;g:;a:;p:*;o:;l:;e:;T:;"
    (key base_query)

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rewrite"
    [
      ( "coverage",
        [
          Alcotest.test_case "every rule fires on a crafted query" `Quick test_rule_coverage;
          Alcotest.test_case "unknown rule rejected" `Quick test_unknown_rule_rejected;
        ] );
      ("soundness", qc (List.map rule_law Rewrite.rule_names));
      ("fixpoint", qc [ fixpoint_law ]);
      ("rule order", qc (List.map commute_law commuting_pairs));
      ( "limit pushdown",
        [
          Alcotest.test_case "ordered scan elides sort and drops pages" `Quick
            test_limit_pushdown_page_drop;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "canonicalization merges respellings" `Quick
            test_fingerprint_canonical_merge;
          Alcotest.test_case "rewrite keeps the cache key" `Quick
            test_fingerprint_stable_across_rewrite;
          Alcotest.test_case "distinct semantics keep distinct keys" `Quick
            test_fingerprint_distinct_semantics;
          Alcotest.test_case "cross-session key pinned" `Quick
            test_fingerprint_cross_session_key;
        ] );
    ]
