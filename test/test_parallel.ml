(* Morsel-parallel execution suite: the domain pool's claiming discipline
   (in-order results, smallest-index failure wins), exact parity
   of the per-morsel parallel executor with the serial engine — result
   tuples and every cost counter, at every pool size — the morsel
   schedule's simulated makespan (at least 2.5x at 4 domains on the TPC-H
   SF 0.01 lineitem scan), the parallel guard's firing with an
   exactly-resumable prefix, span/meter reconciliation under a recorder
   and span totals equal node for node, float aggregates and group order
   folded in row order, probes and aggregate evaluation inside morsels,
   and a multi-domain stress in which every domain owns one plan cache
   (every step picks the serial replay's plan) and its own world, so its
   own synopses' evidence-kernel bitmaps. *)

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
      let ratio =
        Parallel.makespan ~domains:1 report /. Parallel.makespan ~domains:4 report
      in
      check_bool
        (Printf.sprintf "SF 0.01 lineitem: makespan 1 over 4 domains %.2fx >= 2.5x over %d morsels"
           ratio report.Parallel.morsels)
        true (ratio >= 2.5))

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
          (* The carried columns themselves, not the count beside them. *)
          let prefix_rows = Array.length v.Executor.columns.(0) in
          check_bool "prefix is non-empty" true (prefix_rows > 0);
          check_bool "every column holds the prefix" true
            (Array.for_all (fun col -> Array.length col = prefix_rows) v.Executor.columns);
          check_int "actual rows = carried rows" prefix_rows v.Executor.actual_rows;
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
                           schema = Plan.schema_of catalog v.Executor.subplan;
                           cols = v.Executor.columns;
                           n_rows = prefix_rows;
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
(* Per-morsel pipelines                                                *)
(* ------------------------------------------------------------------ *)

(* A float column whose first value is 1e16 and every other value 1.0, and
   a scattered group key: four morsels (one 5456-row chunk each) at the
   default batch size.  In row order every 1.0 after the 1e16 rounds away;
   summed per morsel first, the later morsels' 1.0s survive. *)
let readings_rows = 20_000

let readings_x i = if i = 0 then 1e16 else 1.0
let readings_g i = i * 7919 mod 3000

let readings () =
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~primary_key:"r_id"
    (Relation.create ~name:"readings"
       ~schema:
         (Schema.create
            [
              { Schema.name = "r_id"; ty = Value.T_int };
              { Schema.name = "r_g"; ty = Value.T_int };
              { Schema.name = "r_x"; ty = Value.T_float };
            ])
       (Array.init readings_rows (fun i ->
            [| v_int i; v_int (readings_g i); Value.Float (readings_x i) |])));
  catalog

let aggregate ?(group_by = []) aggs =
  Plan.Aggregate
    {
      input = scan "readings";
      group_by;
      aggs = List.map (fun (fn, output_name) -> { Plan.fn; output_name }) aggs;
    }

(* Serial, then Parallel at 1, 2 and 4 domains. *)
let every_engine catalog plan =
  ("serial", Executor.run catalog (Cost.create ()) plan)
  :: List.map
       (fun domains ->
         let par = Parallel.create ~domains () in
         Fun.protect
           ~finally:(fun () -> Parallel.shutdown par)
           (fun () ->
             (Printf.sprintf "%d domains" domains, Parallel.run par catalog (Cost.create ()) plan)))
       [ 1; 2; 4 ]

let bits = function Value.Float x -> Int64.bits_of_float x | _ -> Alcotest.fail "not a float"

(* Planted fault caught: merging per-morsel partial sums instead of
   folding every row in order gives 1e16 + 15008 here, not 1e16. *)
let test_float_sum_in_row_order () =
  let catalog = readings () in
  let sum = ref 0.0 in
  for i = 0 to readings_rows - 1 do
    sum := !sum +. readings_x i
  done;
  let avg = !sum /. float_of_int readings_rows in
  let plan = aggregate [ (Plan.Sum (Expr.col "readings.r_x"), "s"); (Plan.Avg (Expr.col "readings.r_x"), "a") ] in
  List.iter
    (fun (engine, res) ->
      match res.Executor.tuples with
      | [| [| s; a |] |] ->
          Alcotest.(check int64) (engine ^ ": SUM bits = the row-order fold's") (Int64.bits_of_float !sum) (bits s);
          Alcotest.(check int64) (engine ^ ": AVG bits = the row-order fold's") (Int64.bits_of_float avg) (bits a)
      | _ -> Alcotest.fail (engine ^ ": expected one row"))
    (every_engine catalog plan)

(* Planted fault caught: entering a morsel's groups into the global table
   in its local hash-fold order rather than their first-appearance order
   reorders the keys that share a bucket. *)
let test_group_order () =
  let catalog = readings () in
  let plan =
    aggregate ~group_by:[ "readings.r_g" ]
      [ (Plan.Count_star, "n"); (Plan.Sum (Expr.col "readings.r_x"), "s") ]
  in
  (* The output contract: keys enter a 64-bucket table in first-appearance
     order, and rows come out in the reverse of its fold order. *)
  let table = Hashtbl.create 64 in
  for i = 0 to readings_rows - 1 do
    let key = [ v_int (readings_g i) ] in
    if not (Hashtbl.mem table key) then Hashtbl.add table key ()
  done;
  let expected = Hashtbl.fold (fun key () acc -> List.hd key :: acc) table [] in
  List.iter
    (fun (engine, res) ->
      Alcotest.(check bool)
        (engine ^ ": groups in the first-appearance table's order")
        true
        (Array.to_list (Array.map (fun row -> row.(0)) res.Executor.tuples) = expected))
    (every_engine catalog plan)

let spans_of run =
  let obs = Rq_obs.Recorder.create () in
  (match run obs with _ -> () | exception Executor.Guard_violation _ -> ());
  List.concat_map Rq_obs.Recorder.flatten (Rq_obs.Recorder.roots obs)

let rec subplans plan = plan :: List.concat_map subplans (Plan.children plan)

(* A span's rows and integer counters, as [Metrics.pp] prints them with
   the float fields dropped. *)
let counts (m : Rq_obs.Metrics.t) rows =
  ( rows,
    [ m.seq_pages; m.random_pages; m.pages_skipped; m.cpu_tuples; m.index_probes;
      m.index_entries; m.hash_build; m.hash_probe; m.merge_tuples; m.sort_tuples;
      m.output_tuples ] )

(* Every span equals the serial run's node for node; and where every
   operator drains its input, each span holds exactly what its subplan
   charges and returns when run alone — a reference the segment replay
   does not share.  Planted fault caught: crediting every replayed charge
   to the segment's top operator leaves the scan and the operators under
   it empty. *)
let test_spans_node_for_node () =
  let catalog = fixture () in
  let plans =
    [
      ("aggregate over join", List.assoc "aggregate over join" parity_plans);
      ("limit over join", Plan.Limit (join, 500));
      ("sort over scan", List.assoc "sort over scan" parity_plans);
      ( "filtered projection",
        Plan.Project
          ( Plan.Filter (zone_band, Pred.le (Expr.col "lineitems.l_qty") (Expr.int 25)),
            [ "lineitems.l_id" ] ) );
      ( "guard fires",
        Plan.Guard
          { input = scan "lineitems"; expected_rows = 4.0; max_q_error = 2.0; label = "t" } );
    ]
  in
  List.iter
    (fun (name, plan) ->
      let serial = spans_of (fun obs -> Executor.run ~obs catalog (Cost.create ()) plan) in
      List.iter
        (fun domains ->
          let par = Parallel.create ~domains () in
          Fun.protect
            ~finally:(fun () -> Parallel.shutdown par)
            (fun () ->
              let spans = spans_of (fun obs -> Parallel.run ~obs par catalog (Cost.create ()) plan) in
              check_int (Printf.sprintf "%s: span count at %d domains" name domains)
                (List.length serial) (List.length spans);
              List.iter2
                (fun (a : Rq_obs.Recorder.span) (b : Rq_obs.Recorder.span) ->
                  check_bool
                    (Printf.sprintf "%s: %s at %d domains = serial" name a.label domains)
                    true
                    (a.label = b.label && a.rows = b.rows && a.aborted = b.aborted
                    && a.total = b.total))
                serial spans))
        [ 2; 4 ];
      if not (List.mem name [ "limit over join"; "guard fires" ]) then
        List.iter2
          (fun (span : Rq_obs.Recorder.span) sub ->
            let meter = Cost.create () in
            let alone = Executor.run catalog meter sub in
            check_bool
              (Printf.sprintf "%s: %s = its subplan run alone" name span.label)
              true
              (counts span.total span.rows
              = counts (Cost.snapshot meter) (Array.length alone.Executor.tuples)))
          serial (subplans plan))
    plans

(* Planted fault caught: ending segments at the scan leaves the probe and
   the aggregate's per-row work out of the morsels. *)
let test_segments_run_in_morsels () =
  let catalog = fixture () in
  let par = Parallel.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown par)
    (fun () ->
      let _, report =
        Parallel.run_report par catalog (Cost.create ()) (List.assoc "aggregate over join" parity_plans)
      in
      let ran stages = Array.fold_left (fun n s -> if s = stages then n + 1 else n) 0 report.Parallel.morsel_stages in
      let probe_morsels = ran [ "scan"; "probe"; "aggregate" ] in
      check_int "one build morsel: orders' scan compacted for the hash table" 1
        (ran [ "scan"; "compact" ]);
      check_bool "several morsels ran scan, probe and aggregate" true (probe_morsels > 1);
      check_int "every other morsel did" (report.Parallel.morsels - 1) probe_morsels;
      (* Early exit: a LIMIT or a guard over a scan stops at the serial
         engine's batch, however many morsels ran ahead. *)
      let meter = Cost.create () in
      ignore (Parallel.run par catalog meter (Plan.Limit (scan "lineitems", 10)));
      check_int "LIMIT 10 pays for one batch and ten rows" (Executor.batch_rows + 10)
        (Cost.snapshot meter).Cost.cpu_tuples;
      match
        Parallel.run par catalog (Cost.create ())
          (Plan.Guard { input = scan "lineitems"; expected_rows = 4.0; max_q_error = 2.0; label = "t" })
      with
      | _ -> Alcotest.fail "guard should have fired"
      | exception Executor.Guard_violation v ->
          check_int "the guard fires on the first batch" Executor.batch_rows v.Executor.actual_rows)

(* ------------------------------------------------------------------ *)
(* Per-domain plan caches + evidence kernels under domains             *)
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

let test_per_domain_cache_stress () =
  let domains = 4 and ops_per_domain = 40 in
  (* Serial references: the plan a cold optimizer picks at every step of
     the same replay (which a cached replay must reproduce too), and the
     bitset count every domain's private Pred_index must reproduce. *)
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
  let worker () =
    (* Each domain owns a full world, its own statistics maintenance, and
       its own plan cache. *)
    let cache = Plan_cache.create ~capacity:8 () in
    let catalog, digests = stress_replay ~ops:ops_per_domain (through cache) in
    let rel = Catalog.find_table catalog "lineitems" in
    let idx = Rq_stats.Pred_index.create rel in
    let count = Rq_stats.Pred_index.count idx probe_pred in
    let again = Rq_stats.Pred_index.count idx probe_pred in
    (digests, count, again, Plan_cache.stats cache)
  in
  let handles = Array.init domains (fun _ -> Domain.spawn worker) in
  let per_domain = Array.map Domain.join handles in
  check_int "every lookup answered" (domains * ops_per_domain)
    (Array.fold_left (fun acc (digests, _, _, _) -> acc + Array.length digests) 0 per_domain);
  Array.iteri
    (fun d (digests, count, again, stats) ->
      Alcotest.(check (array string))
        (Printf.sprintf "domain %d: every step's plan = the serial replay's" d)
        serial_digests digests;
      check_int (Printf.sprintf "domain %d kernel count = serial scan" d) expected_count count;
      check_int (Printf.sprintf "domain %d cached re-ask" d) expected_count again;
      check_bool
        (Printf.sprintf "domain %d: the replay served hits and invalidations, not only misses" d)
        true
        (stats.Plan_cache.hits > 0 && stats.Plan_cache.invalidations > 0);
      check_int
        (Printf.sprintf "domain %d: hits + misses + invalidations = lookups" d)
        ops_per_domain (Plan_cache.lookups stats))
    per_domain

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
          Alcotest.test_case "span totals = serial, node for node" `Quick
            test_spans_node_for_node;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "float SUM and AVG fold in row order" `Quick
            test_float_sum_in_row_order;
          Alcotest.test_case "GROUP BY order is domain-independent" `Quick test_group_order;
          Alcotest.test_case "probe and aggregate run in morsels" `Quick
            test_segments_run_in_morsels;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "cache + kernel memos from N domains" `Quick
            test_per_domain_cache_stress;
        ] );
    ]
