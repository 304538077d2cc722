(* Morsel-parallel execution suite: the domain pool's claiming discipline
   (in-order results, smallest-index failure wins), exact parity
   of the prefetching parallel executor with the serial engine — result
   tuples and every cost counter, at every pool size — the morsel
   schedule's simulated makespan (at least 2.5x at 4 domains on the TPC-H
   SF 0.01 lineitem scan), the parallel guard's firing with an
   exactly-resumable prefix, span/meter reconciliation under a recorder,
   and a multi-domain stress of the sharded plan cache (every step picks
   the serial replay's plan) and the evidence-kernel memos. *)

open Rq_storage
open Rq_exec
open Rq_optimizer

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* orders <- lineitems, big enough that a lineitems scan spans more
   morsels than the pool has domains (morsel = one column chunk of 5456
   rows for this 24-byte schema), so a scan dispatches several morsel
   batches. *)
let fixture ?(lineitems = 30_000) () =
  let rng = Rq_math.Rng.create 23 in
  let catalog = Catalog.create () in
  let orders = 400 in
  Catalog.add_table catalog ~primary_key:"o_id"
    (Relation.create ~name:"orders"
       ~schema:
         (Schema.create
            [
              { Schema.name = "o_id"; ty = Value.T_int };
              { Schema.name = "o_status"; ty = Value.T_int };
            ])
       (Array.init orders (fun i -> [| v_int i; v_int (i mod 3) |])));
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
    { from_table = "lineitems"; from_column = "l_order"; to_table = "orders"; to_column = "o_id" };
  Catalog.build_index catalog ~table:"orders" ~column:"o_id";
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_order";
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_qty";
  catalog

let scan table = Plan.Scan { table; access = Plan.Seq_scan; pred = Pred.True }

let join =
  Plan.Hash_join
    {
      build = scan "orders";
      probe = scan "lineitems";
      build_key = "orders.o_id";
      probe_key = "lineitems.l_order";
    }

(* ------------------------------------------------------------------ *)
(* Domain_pool semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_in_order () =
  List.iter
    (fun domains ->
      let pool = Domain_pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () ->
          check_int "size" domains (Domain_pool.size pool);
          let results = Domain_pool.run pool 37 (fun i -> i * i) in
          check_int "all tasks ran" 37 (Array.length results);
          Array.iteri
            (fun i r -> check_int (Printf.sprintf "slot %d" i) (i * i) r)
            results;
          (* The pool is persistent: a second batch reuses the workers. *)
          let again = Domain_pool.run pool 5 (fun i -> i + 100) in
          check_int "second batch" 104 again.(4)))
    [ 1; 2; 4 ];
  Alcotest.check_raises "domains must be positive"
    (Invalid_argument "Domain_pool.create: domains must be >= 1") (fun () ->
      ignore (Domain_pool.create ~domains:0 ()))

exception Task_failed of int

let test_pool_reraises_smallest_index () =
  let pool = Domain_pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      (match Domain_pool.run pool 20 (fun i -> if i mod 5 = 3 then raise (Task_failed i) else i) with
      | _ -> Alcotest.fail "batch should have aborted"
      | exception Task_failed i -> check_int "smallest failed index wins" 3 i);
      (* The pool survives an aborted batch. *)
      let ok = Domain_pool.run pool 4 (fun i -> i) in
      check_int "pool alive after abort" 3 ok.(3))

(* ------------------------------------------------------------------ *)
(* Parallel = serial, counter for counter                              *)
(* ------------------------------------------------------------------ *)

(* l_id is the insertion order, so a band on it leaves most chunks
   disprovable by their zone maps. *)
let zone_band =
  Plan.Scan
    { table = "lineitems"; access = Plan.Seq_scan; pred = Pred.lt (Expr.col "l_id") (Expr.int 8000) }

let parity_plans =
  [
    ("full scan", scan "lineitems");
    ("zone-skipping scan", zone_band);
    ( "filtered scan",
      Plan.Scan
        {
          table = "lineitems";
          access = Plan.Seq_scan;
          pred = Pred.le (Expr.col "l_qty") (Expr.int 25);
        } );
    ("hash join", join);
    ("limit over join", Plan.Limit (join, 500));
    ( "aggregate over join",
      Plan.Aggregate
        {
          input = join;
          group_by = [ "orders.o_status" ];
          aggs = [ { Plan.fn = Plan.Sum (Expr.col "lineitems.l_qty"); output_name = "qty" } ];
        } );
    ( "sort over scan",
      Plan.Sort
        {
          input = scan "lineitems";
          keys = [ { Plan.sort_column = "lineitems.l_qty"; descending = true } ];
        } );
  ]

let test_parallel_matches_serial () =
  let catalog = fixture () in
  (let meter = Cost.create () in
   ignore (Executor.run catalog meter zone_band);
   check_bool "zone maps skip chunks of the clustered band" true
     ((Cost.snapshot meter).Cost.pages_skipped > 0));
  List.iter
    (fun (name, plan) ->
      let serial_meter = Cost.create () in
      let serial = Executor.run catalog serial_meter plan in
      let serial_snap = Cost.snapshot serial_meter in
      List.iter
        (fun domains ->
          let par = Parallel.create ~domains () in
          Fun.protect
            ~finally:(fun () -> Parallel.shutdown par)
            (fun () ->
              let meter = Cost.create () in
              let result = Parallel.run par catalog meter plan in
              check_bool
                (Printf.sprintf "%s: tuples identical at %d domains" name domains)
                true
                (result.Executor.tuples = serial.Executor.tuples);
              check_bool
                (Printf.sprintf "%s: counters identical at %d domains" name domains)
                true
                (Rq_experiments.Exp_common.snapshots_equal (Cost.snapshot meter) serial_snap)))
        [ 1; 2; 4 ])
    parity_plans

let test_morsels_account_for_every_page () =
  let catalog = fixture () in
  let par = Parallel.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown par)
    (fun () ->
      let meter = Cost.create () in
      let _, report = Parallel.run_report par catalog meter (scan "lineitems") in
      check_bool "several morsels" true (report.Parallel.morsels > 1);
      check_int "one timing per morsel" report.Parallel.morsels
        (Array.length report.Parallel.morsel_seconds);
      let parts =
        Array.fold_left ( +. ) report.Parallel.serial_seconds report.Parallel.morsel_seconds
      in
      check_float "morsel + serial seconds = meter movement" report.Parallel.total_seconds
        parts;
      (* The greedy schedule is monotone: more domains never slow it down,
         and one domain is exactly the serial total. *)
      check_float "makespan at 1 = total" report.Parallel.total_seconds
        (Parallel.makespan ~domains:1 report);
      check_bool "4 domains beat 1" true
        (Parallel.makespan ~domains:4 report < Parallel.makespan ~domains:1 report));
  (* At TPC-H scale 0.01 the lineitem scan spans a dozen morsels, enough
     for the 4-domain schedule to cut the makespan by at least 2.5x. *)
  let tpch =
    Rq_workload.Tpch.generate (Rq_math.Rng.create 11)
      ~params:{ Rq_workload.Tpch.default_params with scale_factor = 0.01 }
      ()
  in
  let par = Parallel.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown par)
    (fun () ->
      let meter = Cost.create ~scale:(Rq_workload.Tpch.cost_scale tpch) () in
      let _, report = Parallel.run_report par tpch meter (scan "lineitem") in
      let speedup =
        Parallel.makespan ~domains:1 report /. Parallel.makespan ~domains:4 report
      in
      check_bool
        (Printf.sprintf "SF 0.01 lineitem: 4-domain makespan speedup %.2fx >= 2.5x over %d morsels"
           speedup report.Parallel.morsels)
        true (speedup >= 2.5))

(* ------------------------------------------------------------------ *)
(* The parallel guard                                                  *)
(* ------------------------------------------------------------------ *)

let test_parallel_guard_fires_with_resume () =
  let catalog = fixture () in
  let guarded =
    Plan.Guard
      { input = scan "lineitems"; expected_rows = 4.0; max_q_error = 2.0; label = "t" }
  in
  let full_meter = Cost.create () in
  let full = Executor.run catalog full_meter (scan "lineitems") in
  let par = Parallel.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown par)
    (fun () ->
      let meter = Cost.create () in
      match Parallel.run par catalog meter guarded with
      | _ -> Alcotest.fail "guard should have fired"
      | exception Executor.Guard_violation v -> (
          check_bool "not complete" false v.Executor.complete;
          check_bool "progress in (0, 1)" true
            (v.Executor.progress > 0.0 && v.Executor.progress < 1.0);
          let prefix_rows = Array.length v.Executor.result.Executor.tuples in
          check_bool "prefix is non-empty" true (prefix_rows > 0);
          match v.Executor.resume with
          | Some (Plan.Scan_resume { from_rid; _ } as resume) ->
              (* Full scan, Pred.True: the prefix holds exactly the rows
                 before the resume point. *)
              check_int "resume starts where the prefix ends" prefix_rows from_rid;
              let replay_meter = Cost.create () in
              let replay =
                Executor.run catalog replay_meter
                  (Plan.Append
                     [
                       Plan.Materialized
                         {
                           name = "prefix";
                           schema = v.Executor.result.Executor.schema;
                           tuples = v.Executor.result.Executor.tuples;
                           refs = [];
                         };
                       resume;
                     ])
              in
              check_bool "prefix + resume = the full scan" true
                (replay.Executor.tuples = full.Executor.tuples)
          | _ -> Alcotest.fail "expected a Scan_resume continuation"))

(* ------------------------------------------------------------------ *)
(* Span / meter reconciliation                                         *)
(* ------------------------------------------------------------------ *)

let test_parallel_obs_reconciles () =
  let catalog = fixture () in
  let par = Parallel.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown par)
    (fun () ->
      List.iter
        (fun (name, plan) ->
          let obs = Rq_obs.Recorder.create () in
          let meter = Cost.create () in
          ignore (Parallel.run ~obs par catalog meter plan);
          let self = Rq_obs.Recorder.sum_self (Rq_obs.Recorder.roots obs) in
          check_float
            (Printf.sprintf "%s: span self-seconds = meter seconds" name)
            (Cost.snapshot meter).Cost.seconds self.Rq_obs.Metrics.seconds)
        [ ("scan", scan "lineitems"); ("join", join); ("limit", Plan.Limit (join, 500)) ])

(* ------------------------------------------------------------------ *)
(* Sharded plan cache + evidence memos under domains                   *)
(* ------------------------------------------------------------------ *)

let stress_query ~threshold =
  Logical.query
    [
      Logical.scan ~pred:(Pred.le (Expr.col "l_qty") (Expr.int threshold)) "lineitems";
      Logical.scan "orders";
    ]

let fingerprint_of opt q =
  Rq_sql.Fingerprint.to_key
    (Rq_sql.Fingerprint.of_logical ~estimator:(Optimizer.estimator opt).Cardinality.name q)

let through cache opt q =
  Result.map fst (Plan_cache.find_or_optimize cache opt ~fingerprint:(fingerprint_of opt q) q)

(* One replay of the stress sequence in a world rebuilt from the same
   seed: a statistics refresh every 13th step, thresholds cycling through
   six values.  [lookup] answers each step; the chosen plan's digest per
   step comes back with the catalog. *)
let stress_replay ~ops lookup =
  let catalog = fixture ~lineitems:4000 () in
  let m = Rq_stats.Maintenance.create (Rq_math.Rng.create 91) catalog in
  let digests =
    Array.init ops (fun k ->
        if k mod 13 = 12 then Rq_stats.Maintenance.refresh m;
        let opt = Optimizer.robust (Rq_stats.Maintenance.stats m) in
        match lookup opt (stress_query ~threshold:(5 + (k mod 6))) with
        | Ok d -> Rq_experiments.Exp_common.plan_digest d.Optimizer.plan
        | Error e -> failwith e)
  in
  (catalog, digests)

let test_sharded_cache_stress () =
  let domains = 4 and ops_per_domain = 40 in
  let sharded = Plan_cache.Sharded.create ~capacity:(8 * domains) ~shards:domains () in
  check_int "one shard per domain, same index modulo" (Plan_cache.Sharded.length sharded) 0;
  (* Serial references: the plan a cold optimizer picks at every step of
     the same replay (which one unsharded cache must reproduce too), and
     the bitset count every domain's private Pred_index must reproduce. *)
  let _, serial_digests =
    stress_replay ~ops:ops_per_domain (fun opt q -> Optimizer.optimize opt q)
  in
  (let cache = Plan_cache.create ~capacity:8 () in
   let _, cached_digests = stress_replay ~ops:ops_per_domain (through cache) in
   Alcotest.(check (array string))
     "serial cached replay: every step's plan = the cold replay's" serial_digests
     cached_digests);
  let probe_pred = Pred.le (Expr.col "l_qty") (Expr.int 25) in
  let expected_count =
    let rel = Catalog.find_table (fixture ~lineitems:4000 ()) "lineitems" in
    Relation.filter_count rel (Pred.compile (Relation.schema rel) probe_pred)
  in
  let worker d () =
    (* Each domain owns a full world, its own statistics maintenance, and
       its own cache shard. *)
    let shard = Plan_cache.Sharded.shard sharded d in
    let catalog, digests = stress_replay ~ops:ops_per_domain (through shard) in
    let rel = Catalog.find_table catalog "lineitems" in
    let idx = Rq_stats.Pred_index.create rel in
    let count = Rq_stats.Pred_index.count idx probe_pred in
    let again = Rq_stats.Pred_index.count idx probe_pred in
    (digests, count, again)
  in
  let handles = Array.init domains (fun d -> Domain.spawn (worker d)) in
  let per_domain = Array.map Domain.join handles in
  check_int "every lookup answered" (domains * ops_per_domain)
    (Array.fold_left (fun acc (digests, _, _) -> acc + Array.length digests) 0 per_domain);
  Array.iteri
    (fun d (digests, count, again) ->
      Alcotest.(check (array string))
        (Printf.sprintf "domain %d: every step's plan = the serial replay's" d)
        serial_digests digests;
      check_int (Printf.sprintf "domain %d kernel count = serial scan" d) expected_count count;
      check_int (Printf.sprintf "domain %d cached re-ask" d) expected_count again)
    per_domain;
  (* Merged shard counters must account for every lookup, and the merged
     view must be exactly the per-shard sum. *)
  let merged = Plan_cache.Sharded.stats sharded in
  check_bool "the replay served hits and invalidations, not only misses" true
    (merged.Plan_cache.hits > 0 && merged.Plan_cache.invalidations > 0);
  check_int "hits + misses + invalidations = lookups" (domains * ops_per_domain)
    (Plan_cache.lookups merged);
  let manual =
    Array.fold_left
      (fun acc shard -> Plan_cache.add_stats acc (Plan_cache.stats shard))
      Plan_cache.zero_stats
      (Array.init domains (Plan_cache.Sharded.shard sharded))
  in
  check_int "merged hits = summed hits" manual.Plan_cache.hits merged.Plan_cache.hits;
  check_int "merged misses = summed misses" manual.Plan_cache.misses merged.Plan_cache.misses;
  check_int "merged invalidations = summed"
    manual.Plan_cache.invalidations merged.Plan_cache.invalidations;
  check_int "merged evictions = summed" manual.Plan_cache.evictions merged.Plan_cache.evictions;
  check_bool "identical worlds populated every shard" true
    (Plan_cache.Sharded.length sharded >= domains);
  (* Shard routing is total and modular: any domain id lands somewhere. *)
  ignore (Plan_cache.Sharded.shard sharded (domains + 3));
  ignore (Plan_cache.Sharded.shard sharded (-1))

let () =
  Alcotest.run "rq_parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "runs every index in order" `Quick test_pool_runs_in_order;
          Alcotest.test_case "re-raises the smallest failed index" `Quick
            test_pool_reraises_smallest_index;
        ] );
      ( "parity",
        [
          Alcotest.test_case "parallel = serial across plan families" `Quick
            test_parallel_matches_serial;
          Alcotest.test_case "morsel accounting is exact" `Quick
            test_morsels_account_for_every_page;
        ] );
      ( "guard",
        [
          Alcotest.test_case "fires mid-flight with an exact resume" `Quick
            test_parallel_guard_fires_with_resume;
        ] );
      ( "obs",
        [
          Alcotest.test_case "spans reconcile with the meter" `Quick
            test_parallel_obs_reconciles;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "cache + kernel memos from N domains" `Quick
            test_sharded_cache_stress;
        ] );
    ]
