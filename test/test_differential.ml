(* Differential plan-correctness oracle.

   A seeded generator produces logical queries over the TPC-H-lite and
   star catalogs; each query is optimized under every estimator
   configuration (robust sampling, histogram+AVI, sample+AVI, sample-ML,
   and the exact oracle) and every chosen plan is executed.  Whatever the
   estimation quality, the *results* must agree: a bad estimate may pick a
   slow plan, never a wrong answer.  A second pass routes optimization
   through the plan cache and checks the cached decision (including the
   served-from-cache repeat) against the uncached one.

   The generator seed comes from DIFF_SEED (default 42); CI runs the suite
   under several seeds. *)

open Rq_exec
open Rq_optimizer
open Rq_workload

let seed =
  match Sys.getenv_opt "DIFF_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

(* ------------------------------------------------------------------ *)
(* Query generation                                                    *)
(* ------------------------------------------------------------------ *)

let sum col name = { Plan.fn = Plan.Sum (Expr.col col); output_name = name }
let count name = { Plan.fn = Plan.Count_star; output_name = name }

(* Connected table subsets of TPC-H-lite (FKs: lineitem -> orders,
   lineitem -> part) with type-correct random predicates. *)
let gen_tpch_query rng =
  let pred_lineitem () =
    match Rq_math.Rng.int rng 3 with
    | 0 -> Pred.le (Expr.col "l_quantity") (Expr.int (1 + Rq_math.Rng.int rng 50))
    | 1 -> Pred.gt (Expr.col "l_extendedprice") (Expr.float (Rq_math.Rng.float rng 50_000.0))
    | _ ->
        Pred.And
          [
            Pred.le (Expr.col "l_quantity") (Expr.int (10 + Rq_math.Rng.int rng 40));
            Pred.gt (Expr.col "l_extendedprice") (Expr.float (Rq_math.Rng.float rng 20_000.0));
          ]
  in
  let pred_orders () =
    Pred.gt (Expr.col "o_totalprice") (Expr.float (Rq_math.Rng.float rng 100_000.0))
  in
  let pred_part () =
    match Rq_math.Rng.int rng 2 with
    | 0 -> Pred.lt (Expr.col "p_size") (Expr.int (1 + Rq_math.Rng.int rng 50))
    | _ -> Pred.eq (Expr.col "p_bucket") (Expr.int (Rq_math.Rng.int rng 1000))
  in
  let lineitem () = Logical.scan ~pred:(pred_lineitem ()) "lineitem" in
  let refs =
    match Rq_math.Rng.int rng 4 with
    | 0 -> [ lineitem () ]
    | 1 -> [ lineitem (); Logical.scan ~pred:(pred_orders ()) "orders" ]
    | 2 -> [ lineitem (); Logical.scan ~pred:(pred_part ()) "part" ]
    | _ ->
        [
          lineitem ();
          Logical.scan ~pred:(pred_orders ()) "orders";
          Logical.scan ~pred:(pred_part ()) "part";
        ]
  in
  match Rq_math.Rng.int rng 3 with
  | 0 -> Logical.query ~aggs:[ sum "lineitem.l_extendedprice" "revenue"; count "n" ] refs
  | 1 ->
      (* grouped aggregate: multi-row result exercises the multiset compare *)
      Logical.query ~group_by:[ "lineitem.l_quantity" ]
        ~aggs:[ sum "lineitem.l_extendedprice" "revenue" ]
        refs
  | _ ->
      (* plain SPJ with a projection: row-level differential check *)
      Logical.query ~projection:[ "lineitem.l_rowid"; "lineitem.l_extendedprice" ] refs

let gen_star_query rng =
  let dim n =
    Logical.scan
      ~pred:(Pred.eq (Expr.col "d_filter") (Expr.int (Rq_math.Rng.int rng 10)))
      (Printf.sprintf "dim%d" n)
  in
  let dims =
    List.filter_map
      (fun n -> if Rq_math.Rng.bool rng then Some (dim n) else None)
      [ 1; 2; 3 ]
  in
  let refs = Logical.scan "fact" :: dims in
  match Rq_math.Rng.int rng 3 with
  | 0 -> Logical.query ~aggs:[ sum "fact.f_m1" "total"; count "n" ] refs
  | 1 ->
      Logical.query ~group_by:[ "fact.f_dim1" ] ~aggs:[ sum "fact.f_m2" "total" ] refs
  | _ -> Logical.query ~projection:[ "fact.f_id"; "fact.f_m1" ] refs

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let queries_per_catalog = 12

let estimator_configs stats =
  let est () =
    Rq_core.Robust_estimator.create
      ~confidence:Rq_core.Confidence.(resolve default_setting)
      ()
  in
  [
    ("robust-sampling", Cardinality.robust stats (est ()));
    ("histogram-avi", Cardinality.histogram_avi stats);
    ("sample-avi", Cardinality.sample_avi stats (est ()));
    ("sample-ml", Cardinality.sample_ml stats);
  ]

let execute catalog scale plan =
  let meter = Cost.create ~scale () in
  Executor.run catalog meter plan

(* Every assertion message carries enough to replay the failure by hand:
   the DIFF_SEED that drove the generator, the rendered query, and the
   fault profile in force ("none" for the fault-free passes). *)
let render_query query = Format.asprintf "%a" Logical.pp query

let failure_context ~profile query =
  Printf.sprintf "DIFF_SEED=%d, fault profile %s\nquery: %s" seed profile
    (render_query query)

let fail_differential ?(profile = "none") ~label ~query ~reference ~candidate () =
  Alcotest.failf "%s: plan answered the same query differently (%s)\nreference rows:\n%s\ncandidate rows:\n%s"
    label
    (failure_context ~profile query)
    (String.concat "\n" (Array.to_list (Rq_experiments.Exp_common.canonical_rows reference)))
    (String.concat "\n" (Array.to_list (Rq_experiments.Exp_common.canonical_rows candidate)))

let fail_rejected ?(profile = "none") ~label ~query who e =
  Alcotest.failf "%s: %s rejected the query (%s)\nerror: %s" label who
    (failure_context ~profile query)
    e

let run_differential catalog_name catalog gen () =
  let rng = Rq_math.Rng.create seed in
  let scale = 1.0 in
  let stats =
    Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng)
      ~config:{ Rq_stats.Stats_store.default_config with sample_size = 200 }
      catalog
  in
  let oracle_opt = Optimizer.create ~scale stats (Cardinality.oracle catalog) in
  for i = 1 to queries_per_catalog do
    let query = gen rng in
    let reference =
      match Optimizer.optimize oracle_opt query with
      | Ok d -> execute catalog scale d.Optimizer.plan
      | Error e ->
          fail_rejected ~label:(Printf.sprintf "%s query %d" catalog_name i) ~query "oracle" e
    in
    List.iter
      (fun (name, estimator) ->
        let opt = Optimizer.create ~scale stats estimator in
        match Optimizer.optimize opt query with
        | Error e ->
            fail_rejected ~label:(Printf.sprintf "%s query %d" catalog_name i) ~query name e
        | Ok d ->
            let result = execute catalog scale d.Optimizer.plan in
            if not (Rq_experiments.Exp_common.results_equal reference result) then
              fail_differential
                ~label:(Printf.sprintf "%s query %d under %s" catalog_name i name)
                ~query ~reference ~candidate:result ())
      (estimator_configs stats)
  done

(* The kernel-vs-scan pass: the robust estimator through the bitset
   evidence kernel must be indistinguishable from the row-scan reference —
   identical evidence counts (k, n) on every generated predicate,
   identical chosen plans, identical results. *)
let run_kernel_differential catalog_name catalog gen () =
  let rng = Rq_math.Rng.create (seed + 4) in
  let scale = 1.0 in
  let stats =
    Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng)
      ~config:{ Rq_stats.Stats_store.default_config with sample_size = 200 }
      catalog
  in
  let est () =
    Rq_core.Robust_estimator.create
      ~confidence:Rq_core.Confidence.(resolve default_setting)
      ()
  in
  let kernel_opt = Optimizer.create ~scale stats (Cardinality.robust stats (est ())) in
  let scan_opt =
    Optimizer.create ~scale stats (Cardinality.robust ~kernel:false stats (est ()))
  in
  let qualified_pred (q : Logical.t) =
    Pred.conj
      (List.map
         (fun (r : Logical.table_ref) ->
           Pred.rename_columns (fun c -> r.Logical.table ^ "." ^ c) r.Logical.pred)
         q.Logical.tables)
  in
  for i = 1 to queries_per_catalog do
    let query = gen rng in
    (* Evidence bit-identity on the covering synopsis. *)
    let names = List.map (fun (r : Logical.table_ref) -> r.Logical.table) query.Logical.tables in
    (match Rq_stats.Stats_store.synopsis_for stats names with
    | None -> ()
    | Some syn ->
        let pred = qualified_pred query in
        let kk, kn = Rq_stats.Join_synopsis.evidence syn pred in
        let sk, sn = Rq_stats.Join_synopsis.evidence_scan syn pred in
        if (kk, kn) <> (sk, sn) then
          Alcotest.failf
            "%s query %d: kernel evidence (%d, %d) <> scan evidence (%d, %d) (%s)\npred: %s"
            catalog_name i kk kn sk sn
            (failure_context ~profile:"none" query)
            (Pred.render pred));
    (* Identical decisions, identical answers. *)
    let decide label opt =
      match Optimizer.optimize opt query with
      | Ok d -> d
      | Error e ->
          fail_rejected ~label:(Printf.sprintf "%s query %d" catalog_name i) ~query label e
    in
    let kd = decide "kernel" kernel_opt and sd = decide "scan" scan_opt in
    Alcotest.(check string)
      (Printf.sprintf "%s query %d: kernel and scan choose the same plan (DIFF_SEED=%d)\nquery: %s"
         catalog_name i seed (render_query query))
      (Rq_experiments.Exp_common.plan_digest sd.Optimizer.plan)
      (Rq_experiments.Exp_common.plan_digest kd.Optimizer.plan);
    let kres = execute catalog scale kd.Optimizer.plan in
    let sres = execute catalog scale sd.Optimizer.plan in
    if not (Rq_experiments.Exp_common.results_equal sres kres) then
      fail_differential
        ~label:(Printf.sprintf "%s query %d kernel vs scan" catalog_name i)
        ~query ~reference:sres ~candidate:kres ()
  done

(* The cached-vs-uncached pass: both the freshly-inserted decision and the
   served-from-cache repeat must answer like a cold optimization. *)
let run_cache_differential catalog_name catalog gen () =
  let rng = Rq_math.Rng.create (seed + 1) in
  let scale = 1.0 in
  let stats =
    Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng)
      ~config:{ Rq_stats.Stats_store.default_config with sample_size = 200 }
      catalog
  in
  let opt = Optimizer.robust ~scale stats in
  let cache = Plan_cache.create () in
  let seen = Hashtbl.create 16 in
  for i = 1 to queries_per_catalog do
    let query = gen rng in
    let fingerprint =
      Rq_sql.Fingerprint.to_key
        (Rq_sql.Fingerprint.of_logical
           ~estimator:(Optimizer.estimator opt).Cardinality.name query)
    in
    (* the generator may re-draw an earlier query; its first lookup would
       then hit rather than miss *)
    let fresh = not (Hashtbl.mem seen fingerprint) in
    Hashtbl.replace seen fingerprint ();
    let uncached =
      match Optimizer.optimize opt query with
      | Ok d -> execute catalog scale d.Optimizer.plan
      | Error e ->
          fail_rejected
            ~label:(Printf.sprintf "%s query %d" catalog_name i)
            ~query "uncached optimizer" e
    in
    List.iter
      (fun (pass, expected_outcome) ->
        match Plan_cache.find_or_optimize cache opt ~fingerprint query with
        | Error e ->
            fail_rejected ~label:(Printf.sprintf "%s query %d" catalog_name i) ~query pass e
        | Ok (d, outcome) ->
            if fresh then
              Alcotest.(check string)
                (Printf.sprintf "%s query %d: %s outcome (DIFF_SEED=%d)\nquery: %s" catalog_name
                   i pass seed (render_query query))
                expected_outcome
                (Plan_cache.outcome_to_string outcome)
            else
              Alcotest.(check string)
                (Printf.sprintf "%s query %d: repeat always hits (DIFF_SEED=%d)\nquery: %s"
                   catalog_name i seed (render_query query))
                "hit"
                (Plan_cache.outcome_to_string outcome);
            let result = execute catalog scale d.Optimizer.plan in
            if not (Rq_experiments.Exp_common.results_equal uncached result) then
              fail_differential
                ~label:(Printf.sprintf "%s query %d %s lookup" catalog_name i pass)
                ~query ~reference:uncached ~candidate:result ())
      [ ("cold", "miss"); ("cached", "hit") ]
  done

(* The degraded-statistics pass: every named fault profile is injected
   into the statistics and the robust optimizer must still produce a plan
   (the degradation chain classifies, it never raises) whose answer
   matches the healthy optimizer's.  Faults damage only the statistics —
   never the data — so any result drift is a wrong plan, not a stale
   read.  Failure messages carry the profile name alongside the seed and
   the rendered query. *)
let run_fault_differential catalog_name catalog gen () =
  let rng = Rq_math.Rng.create (seed + 5) in
  let scale = 1.0 in
  let stats =
    Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng)
      ~config:{ Rq_stats.Stats_store.default_config with sample_size = 200 }
      catalog
  in
  let healthy = Optimizer.robust ~scale stats in
  for i = 1 to queries_per_catalog do
    let query = gen rng in
    let reference =
      match Optimizer.optimize healthy query with
      | Ok d -> execute catalog scale d.Optimizer.plan
      | Error e ->
          fail_rejected
            ~label:(Printf.sprintf "%s query %d" catalog_name i)
            ~query "healthy optimizer" e
    in
    List.iter
      (fun profile ->
        let injections =
          match Rq_stats.Fault.profile_injections (Rq_math.Rng.split rng) stats profile with
          | Ok injections -> injections
          | Error e ->
              Alcotest.failf "%s query %d: fault profile did not expand (%s)\nerror: %s"
                catalog_name i
                (failure_context ~profile query)
                e
        in
        let damaged = Rq_stats.Fault.apply (Rq_math.Rng.split rng) stats injections in
        match Optimizer.optimize (Optimizer.robust ~scale damaged) query with
        | Error e ->
            fail_rejected ~profile
              ~label:(Printf.sprintf "%s query %d" catalog_name i)
              ~query "degraded optimizer" e
        | Ok d ->
            let result = execute catalog scale d.Optimizer.plan in
            if not (Rq_experiments.Exp_common.results_equal reference result) then
              fail_differential ~profile
                ~label:(Printf.sprintf "%s query %d under fault profile %s" catalog_name i profile)
                ~query ~reference ~candidate:result ())
      Rq_stats.Fault.profile_names
  done

(* ------------------------------------------------------------------ *)
(* The rewrite pass                                                    *)
(* ------------------------------------------------------------------ *)

(* Decorate base queries with the widened surface the rewrite layer
   handles: ORDER BY, LIMIT (single-table only — multi-table LIMIT ties
   are plan-order-sensitive), FK-edge semijoins, and residual conjuncts
   restating an FK join.  Scalar subqueries are excluded here because the
   unrewritten arm cannot execute them (their laws live in test_rewrite). *)
let widen_tpch rng (q : Logical.t) =
  let bool () = Rq_math.Rng.bool rng in
  let names = Logical.table_names q in
  let q =
    if q.Logical.aggs = [] then
      {
        q with
        Logical.order_by =
          [ { Plan.sort_column = "lineitem.l_extendedprice"; descending = bool () } ];
      }
    else if q.Logical.group_by <> [] && bool () then
      { q with Logical.order_by = [ { Plan.sort_column = "revenue"; descending = bool () } ] }
    else q
  in
  let q =
    match names with
    | [ _ ] when q.Logical.aggs = [] && bool () ->
        { q with Logical.limit = Some (1 + Rq_math.Rng.int rng 20) }
    | _ -> q
  in
  let q =
    (* The semijoin's inner table must not already be joined in FROM. *)
    let orders_free = not (List.mem "orders" names) in
    let part_free = not (List.mem "part" names) in
    if bool () && (orders_free || part_free) then
      let sj =
        if orders_free && (bool () || not part_free) then
          {
            Logical.outer_key = "lineitem.l_orderkey";
            inner =
              Logical.scan
                ~pred:
                  (Pred.gt (Expr.col "o_totalprice")
                     (Expr.float (Rq_math.Rng.float rng 200_000.0)))
                "orders";
            inner_key = "o_orderkey";
          }
        else
          {
            Logical.outer_key = "lineitem.l_partkey";
            inner =
              Logical.scan
                ~pred:(Pred.lt (Expr.col "p_size") (Expr.int (1 + Rq_math.Rng.int rng 50)))
                "part";
            inner_key = "p_partkey";
          }
      in
      { q with Logical.semijoins = [ sj ] }
    else q
  in
  if List.mem "orders" names && bool () then
    {
      q with
      Logical.residual =
        Pred.Cmp (Pred.Eq, Expr.col "lineitem.l_orderkey", Expr.col "orders.o_orderkey");
    }
  else q

let widen_star rng (q : Logical.t) =
  let bool () = Rq_math.Rng.bool rng in
  let names = Logical.table_names q in
  let q =
    if q.Logical.aggs = [] then
      { q with Logical.order_by = [ { Plan.sort_column = "fact.f_id"; descending = bool () } ] }
    else if q.Logical.group_by <> [] && bool () then
      { q with Logical.order_by = [ { Plan.sort_column = "total"; descending = bool () } ] }
    else q
  in
  let q =
    match names with
    | [ _ ] when q.Logical.aggs = [] && bool () ->
        { q with Logical.limit = Some (1 + Rq_math.Rng.int rng 20) }
    | _ -> q
  in
  let q =
    let free =
      List.filter (fun n -> not (List.mem (Printf.sprintf "dim%d" n) names)) [ 1; 2; 3 ]
    in
    if bool () && free <> [] then
      let n = List.nth free (Rq_math.Rng.int rng (List.length free)) in
      let sj =
        {
          Logical.outer_key = Printf.sprintf "fact.f_dim%d" n;
          inner =
            Logical.scan
              ~pred:(Pred.lt (Expr.col "d_filter") (Expr.int (1 + Rq_math.Rng.int rng 10)))
              (Printf.sprintf "dim%d" n);
          inner_key = "d_key";
        }
      in
      { q with Logical.semijoins = [ sj ] }
    else q
  in
  if List.mem "dim1" names && bool () then
    {
      q with
      Logical.residual = Pred.Cmp (Pred.Eq, Expr.col "fact.f_dim1", Expr.col "dim1.d_key");
    }
  else q

(* Rewritten vs unrewritten: the same widened query optimized with the
   rewrite layer on and off, under every estimator; the chosen plans may
   differ (their digests go into the failure message) but the answers may
   not — serially and through the morsel pool at 1, 2 and 4 domains. *)
let run_rewrite_differential catalog_name catalog gen widen () =
  let rng = Rq_math.Rng.create (seed + 6) in
  let scale = 1.0 in
  let stats =
    Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng)
      ~config:{ Rq_stats.Stats_store.default_config with sample_size = 200 }
      catalog
  in
  let pools = List.map (fun domains -> Parallel.create ~domains ()) [ 1; 2; 4 ] in
  Fun.protect
    ~finally:(fun () -> List.iter Parallel.shutdown pools)
    (fun () ->
      for i = 1 to queries_per_catalog do
        let query = widen rng (gen rng) in
        List.iter
          (fun (name, estimator) ->
            let opt = Optimizer.create ~scale stats estimator in
            let decide ~rewrite who =
              match Optimizer.optimize ~rewrite opt query with
              | Ok d -> d
              | Error e ->
                  fail_rejected ~label:(Printf.sprintf "%s query %d" catalog_name i) ~query
                    who e
            in
            let plain = decide ~rewrite:false (name ^ " without rewrites") in
            let rewritten = decide ~rewrite:true (name ^ " with rewrites") in
            let digests =
              Printf.sprintf "unrewritten plan %s, rewritten plan %s"
                (Rq_experiments.Exp_common.plan_digest plain.Optimizer.plan)
                (Rq_experiments.Exp_common.plan_digest rewritten.Optimizer.plan)
            in
            let reference = execute catalog scale plain.Optimizer.plan in
            let check engine candidate =
              if not (Rq_experiments.Exp_common.results_equal reference candidate) then
                fail_differential
                  ~label:
                    (Printf.sprintf "%s query %d under %s, %s engine (%s)" catalog_name i
                       name engine digests)
                  ~query ~reference ~candidate ()
            in
            check "serial" (execute catalog scale rewritten.Optimizer.plan);
            List.iter
              (fun pool ->
                let meter = Cost.create ~scale () in
                check
                  (Printf.sprintf "morsel(%d domains)" (Parallel.domains pool))
                  (Parallel.run pool catalog meter rewritten.Optimizer.plan))
              pools)
          (estimator_configs stats)
      done)

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
      let query =
        match Rq_sql.Binder.compile catalog sql with
        | Ok bound -> bound.Rq_sql.Binder.query
        | Error e -> Alcotest.failf "%s: bind error %s" sql e
      in
      let reference = Naive.evaluate_query (Option.value oracle ~default:catalog) query in
      List.iter
        (fun (name, estimator) ->
          match Optimizer.optimize (Optimizer.create ~scale stats estimator) query with
          | Error e -> fail_rejected ~label:sql ~query name e
          | Ok d ->
              let result = execute catalog scale d.Optimizer.plan in
              if not (Rq_experiments.Exp_common.results_equal reference result) then
                fail_differential ~label:(Printf.sprintf "%s under %s" sql name) ~query
                  ~reference ~candidate:result ())
        (estimator_configs stats))
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
(* Zone-map pruning is invisible                                       *)
(* ------------------------------------------------------------------ *)

let with_prune enabled f =
  let saved = !Prune.enabled in
  Prune.enabled := enabled;
  Fun.protect ~finally:(fun () -> Prune.enabled := saved) f

let check_prune_invisible ~label catalog scale plan =
  let run enabled =
    with_prune enabled (fun () ->
        let meter = Cost.create ~scale () in
        let res = Executor.run catalog meter plan in
        (res, Cost.snapshot meter))
  in
  let pres, psnap = run true in
  let fres, fsnap = run false in
  if pres.Executor.tuples <> fres.Executor.tuples then
    Alcotest.failf "%s: pruned scan answered differently\npruned:\n%s\nfull:\n%s" label
      (String.concat "\n" (Array.to_list (Rq_experiments.Exp_common.canonical_rows pres)))
      (String.concat "\n" (Array.to_list (Rq_experiments.Exp_common.canonical_rows fres)));
  if fsnap.Cost.pages_skipped <> 0 then
    Alcotest.failf "%s: unpruned run reported %d skipped pages" label fsnap.Cost.pages_skipped;
  if psnap.Cost.seq_pages + psnap.Cost.pages_skipped <> fsnap.Cost.seq_pages then
    Alcotest.failf "%s: page accounting broke: pruned read %d + skipped %d <> full read %d"
      label psnap.Cost.seq_pages psnap.Cost.pages_skipped fsnap.Cost.seq_pages

(* Generated queries under every estimator: each chosen plan must answer
   identically with chunk pruning on and off, and the pruned run's
   read + skipped sequential pages must equal the unpruned run's read
   pages (a skipped chunk charges zero read pages and zero seconds). *)
let run_prune_differential catalog_name catalog gen () =
  let rng = Rq_math.Rng.create (seed + 7) in
  let scale = 1.0 in
  let stats =
    Rq_stats.Stats_store.update_statistics (Rq_math.Rng.split rng)
      ~config:{ Rq_stats.Stats_store.default_config with sample_size = 200 }
      catalog
  in
  for i = 1 to queries_per_catalog do
    let query = gen rng in
    List.iter
      (fun (name, estimator) ->
        let opt = Optimizer.create ~scale stats estimator in
        match Optimizer.optimize opt query with
        | Error e ->
            fail_rejected ~label:(Printf.sprintf "%s query %d" catalog_name i) ~query name e
        | Ok d ->
            check_prune_invisible
              ~label:
                (Printf.sprintf "%s query %d under %s (%s)" catalog_name i name
                   (failure_context ~profile:"none" query))
              catalog scale d.Optimizer.plan)
      (estimator_configs stats)
  done

(* One plan per executor family, over clustered bands the zone maps can
   prune. *)
let prune_families tpch star =
  let li pred = Plan.Scan { table = "lineitem"; access = Plan.Seq_scan; pred } in
  let band = Pred.lt (Expr.col "l_orderkey") (Expr.int 300) in
  let orders_band =
    Plan.Scan
      {
        table = "orders";
        access = Plan.Seq_scan;
        pred = Pred.lt (Expr.col "o_orderkey") (Expr.int 300);
      }
  in
  [
    ("seq-scan", tpch, li band);
    ( "index-range",
      tpch,
      Plan.Scan
        {
          table = "lineitem";
          access = Plan.Index_range { column = "l_orderkey"; lo = None; hi = Some (Rq_storage.Value.Int 300) };
          pred = band;
        } );
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
        } );
    ( "hash-join",
      tpch,
      Plan.Hash_join
        {
          build = orders_band;
          probe = li band;
          build_key = "orders.o_orderkey";
          probe_key = "lineitem.l_orderkey";
        } );
    ( "merge-join",
      tpch,
      Plan.Merge_join
        {
          left = li band;
          right = orders_band;
          left_key = "lineitem.l_orderkey";
          right_key = "orders.o_orderkey";
        } );
    ( "indexed-nl-join",
      tpch,
      Plan.Indexed_nl_join
        {
          outer = li band;
          outer_key = "lineitem.l_orderkey";
          inner_table = "orders";
          inner_key = "o_orderkey";
          inner_pred = Pred.True;
        } );
    ( "star-semijoin",
      star,
      Plan.Star_semijoin
        {
          fact = "fact";
          fact_pred = Pred.lt (Expr.col "f_id") (Expr.int 500);
          dims =
            List.map
              (fun i ->
                {
                  Plan.dim_table = Printf.sprintf "dim%d" i;
                  dim_pred = Pred.eq (Expr.col "d_filter") (Expr.int 0);
                  fact_fk = Printf.sprintf "f_dim%d" i;
                })
              [ 1; 2; 3 ];
        } );
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
                aggs =
                  [
                    { Plan.fn = Plan.Count_star; output_name = "n" };
                    { Plan.fn = Plan.Sum (Expr.col "lineitem.l_extendedprice"); output_name = "rev" };
                  ];
              };
          keys = [ { Plan.sort_column = "n"; descending = true } ];
        } );
    ( "guard-pass",
      tpch,
      Plan.Guard
        { input = li band; expected_rows = 2000.0; max_q_error = 1e9; label = "wide" } );
  ]

(* Fixed plans covering every plan family, with predicates over clustered
   columns so zone maps genuinely skip chunks (asserted on the seq-scan
   family): pruning must be invisible in the answers of all of them. *)
let run_prune_families tpch star () =
  let scale = 1.0 in
  List.iter
    (fun (name, cat, plan) ->
      (match Plan.validate cat plan with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (name ^ ": fixture plan invalid: " ^ msg));
      check_prune_invisible ~label:name cat scale plan)
    (prune_families tpch star);
  (* The fixture must actually prune: the clustered band leaves most
     lineitem chunks disprovable by their zone maps. *)
  with_prune true (fun () ->
      let meter = Cost.create ~scale () in
      let band = Pred.lt (Expr.col "l_orderkey") (Expr.int 300) in
      ignore
        (Executor.run tpch meter
           (Plan.Scan { table = "lineitem"; access = Plan.Seq_scan; pred = band }));
      let snap = Cost.snapshot meter in
      if snap.Cost.pages_skipped = 0 then
        Alcotest.fail "seq-scan family: zone maps skipped no pages on the clustered band")

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
    (fun (name, cat, plan) ->
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
  Alcotest.run "differential"
    [
      ( "estimators agree on results",
        [
          Alcotest.test_case "tpch" `Quick (run_differential "tpch" tpch gen_tpch_query);
          Alcotest.test_case "star" `Quick (run_differential "star" star gen_star_query);
        ] );
      ( "cache agrees with cold optimization",
        [
          Alcotest.test_case "tpch" `Quick (run_cache_differential "tpch" tpch gen_tpch_query);
          Alcotest.test_case "star" `Quick (run_cache_differential "star" star gen_star_query);
        ] );
      ( "sql agrees with naive",
        [
          Alcotest.test_case "tpch" `Quick (run_sql_naive_differential tpch);
          Alcotest.test_case "spilled tpch, one-chunk pool" `Quick
            (run_sql_naive_spilled ~heap:tpch tpch_spilled);
        ] );
      ( "evidence kernel matches row scan",
        [
          Alcotest.test_case "tpch" `Quick (run_kernel_differential "tpch" tpch gen_tpch_query);
          Alcotest.test_case "star" `Quick (run_kernel_differential "star" star gen_star_query);
        ] );
      ( "degraded statistics still answer correctly",
        [
          Alcotest.test_case "tpch" `Quick (run_fault_differential "tpch" tpch gen_tpch_query);
          Alcotest.test_case "star" `Quick (run_fault_differential "star" star gen_star_query);
        ] );
      ( "rewrites preserve results",
        [
          Alcotest.test_case "tpch" `Quick
            (run_rewrite_differential "tpch" tpch gen_tpch_query widen_tpch);
          Alcotest.test_case "star" `Quick
            (run_rewrite_differential "star" star gen_star_query widen_star);
        ] );
      ( "zone-map pruning is invisible",
        [
          Alcotest.test_case "tpch" `Quick (run_prune_differential "tpch" tpch gen_tpch_query);
          Alcotest.test_case "star" `Quick (run_prune_differential "star" star gen_star_query);
          Alcotest.test_case "plan families" `Quick (run_prune_families tpch star);
        ] );
      ( "spans",
        [
          Alcotest.test_case "span tree follows Plan.children" `Quick
            (run_span_shape tpch star);
        ] );
    ]
