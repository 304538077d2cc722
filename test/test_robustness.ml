(* Robustness suite: fault injection into the statistics store, the
   graceful-degradation estimation chain, the optimization-time budget
   fallback, and guard-driven mid-query re-optimization.

   The acceptance bar (ISSUE 1): every fault kind still yields an
   executable plan with no escaping exception; a guard fired on a
   misestimated plan produces a re-optimized continuation whose metered
   cost (including the wasted prefix) beats running the bad plan to
   completion; and guard overhead on a well-estimated plan stays under
   5% of the unguarded metered cost. *)

open Rq_storage
open Rq_exec
open Rq_stats
open Rq_optimizer

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Fixture: customers <- orders <- lineitems chain (FKs point left),
   with indexes on the join columns so indexed nested-loop plans are
   available — both as a temptation for a misestimating optimizer and
   as the bad plan the rescue test forces. *)
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
  catalog

let fresh_stats catalog = Stats_store.update_statistics (Rq_math.Rng.create 41) catalog

let three_join_query () =
  Logical.query
    [
      Logical.scan ~pred:(Pred.le (Expr.col "l_qty") (Expr.int 25)) "lineitems";
      Logical.scan "orders";
      Logical.scan "customers";
    ]

(* ------------------------------------------------------------------ *)
(* Fault injection + degradation chain                                 *)
(* ------------------------------------------------------------------ *)

(* Shared scaffold: damage the stats with [profile], optimize the
   three-way join under the degrading chain, and require (a) a plan,
   (b) that it executes, (c) the same answer as the oracle plan, and
   (d) a logged degradation event of [expected_kind]. *)
let degraded_roundtrip ~profile ~expected_kind () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let rng = Rq_math.Rng.create 99 in
  let injections =
    match Fault.profile_injections rng stats profile with
    | Ok inj -> inj
    | Error msg -> Alcotest.fail msg
  in
  check_bool "profile injects something" true (injections <> []);
  let damaged = Fault.apply rng stats injections in
  let events = ref [] in
  let estimator =
    Cardinality.degrading ~log:(fun e -> events := e :: !events) damaged
      (Rq_core.Robust_estimator.create ~confidence:(Rq_core.Confidence.of_percent 80.0) ())
  in
  let opt = Optimizer.create damaged estimator in
  let query = three_join_query () in
  match Optimizer.optimize opt query with
  | Error msg -> Alcotest.fail ("optimization failed under fault: " ^ msg)
  | Ok d ->
      (match Plan.validate catalog d.Optimizer.plan with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("invalid plan under fault: " ^ msg));
      let result = Executor.run catalog (Cost.create ()) d.Optimizer.plan in
      (* Ground truth via the oracle configuration on pristine stats. *)
      let oracle = Optimizer.create stats (Cardinality.oracle catalog) in
      let reference =
        Executor.run catalog (Cost.create ()) (Optimizer.optimize_exn oracle query).Optimizer.plan
      in
      check_int "same answer as oracle plan"
        (Array.length reference.Executor.tuples)
        (Array.length result.Executor.tuples);
      check_bool
        (Printf.sprintf "logged a %s event" (Fault.kind_to_string expected_kind))
        true
        (List.exists (fun (e : Fault.event) -> e.Fault.kind = expected_kind) !events)

let test_fault_missing () = degraded_roundtrip ~profile:"missing" ~expected_kind:Fault.Missing ()
let test_fault_truncate () = degraded_roundtrip ~profile:"truncate" ~expected_kind:Fault.Missing ()
let test_fault_corrupt () = degraded_roundtrip ~profile:"corrupt" ~expected_kind:Fault.Corrupt ()
let test_fault_stale () = degraded_roundtrip ~profile:"stale" ~expected_kind:Fault.Stale ()

let test_fault_dangling_fk () =
  degraded_roundtrip ~profile:"dangling-fk" ~expected_kind:Fault.Corrupt ()

(* Dangling_fk must be caught by the FK-consistency check specifically:
   the damaged values stay type-correct, so a schema scan sees nothing. *)
let test_dangling_fk_detail () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let rng = Rq_math.Rng.create 3 in
  let damaged = Fault.apply rng stats [ Fault.Dangling_fk { root = "lineitems"; break = 4 } ] in
  match Stats_store.synopsis damaged ~root:"lineitems" with
  | None -> Alcotest.fail "synopsis vanished"
  | Some syn -> (
      match Fault.verify_synopsis catalog syn with
      | Ok () -> Alcotest.fail "dangling FK rows passed verification"
      | Error e ->
          check_bool "classified corrupt" true (e.Fault.kind = Fault.Corrupt);
          check_bool "detail names the FK" true
            (String.length e.Fault.detail > 0
            &&
            let contains s sub =
              let n = String.length s and m = String.length sub in
              let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
              go 0
            in
            contains e.Fault.detail "breaks FK"))

let test_injection_json_roundtrip () =
  let injections =
    [
      Fault.Drop_synopsis "orders";
      Fault.Truncate_synopsis { root = "lineitems"; keep = 2 };
      Fault.Corrupt_synopsis "customers";
      Fault.Skew_synopsis { root = "orders"; factor = 16.0 };
      Fault.Drop_histogram { table = "orders"; column = "o_cid" };
      Fault.Dangling_fk { root = "lineitems"; break = 25 };
    ]
  in
  List.iter
    (fun inj ->
      let json = Fault.injection_to_json inj in
      (* through the printer and parser, as a repro file would *)
      match Rq_obs.Json.parse (Rq_obs.Json.to_string json) with
      | Error e -> Alcotest.fail e
      | Ok parsed -> (
          match Fault.injection_of_json parsed with
          | Error e -> Alcotest.fail e
          | Ok inj' ->
              Alcotest.(check string)
                "injection survives JSON round-trip" (Fault.injection_to_string inj)
                (Fault.injection_to_string inj')))
    injections

let test_fault_chaos () =
  (* Chaos mixes injections randomly; no specific kind is guaranteed, but
     the optimizer must still answer and the answer must still be right. *)
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let query = three_join_query () in
  let oracle = Optimizer.create stats (Cardinality.oracle catalog) in
  let reference =
    Executor.run catalog (Cost.create ()) (Optimizer.optimize_exn oracle query).Optimizer.plan
  in
  for seed = 1 to 5 do
    let rng = Rq_math.Rng.create seed in
    let injections =
      match Fault.profile_injections rng stats "chaos" with
      | Ok inj -> inj
      | Error msg -> Alcotest.fail msg
    in
    let damaged = Fault.apply rng stats injections in
    let estimator =
      Cardinality.degrading damaged
        (Rq_core.Robust_estimator.create ~confidence:(Rq_core.Confidence.of_percent 80.0) ())
    in
    let opt = Optimizer.create damaged estimator in
    match Optimizer.optimize opt query with
    | Error msg -> Alcotest.fail (Printf.sprintf "chaos seed %d: %s" seed msg)
    | Ok d ->
        let result = Executor.run catalog (Cost.create ()) d.Optimizer.plan in
        check_int
          (Printf.sprintf "chaos seed %d answer" seed)
          (Array.length reference.Executor.tuples)
          (Array.length result.Executor.tuples)
  done

let test_verify_synopsis_healthy () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  List.iter
    (fun root ->
      match Stats_store.synopsis stats ~root with
      | None -> ()
      | Some syn -> (
          match Fault.verify_synopsis catalog syn with
          | Ok () -> ()
          | Error e ->
              Alcotest.fail
                (Printf.sprintf "healthy synopsis %s rejected: %s" root (Fault.event_to_string e))))
    (Stats_store.synopsis_roots stats)

let test_fault_apply_is_copy_on_write () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let roots_before = Stats_store.synopsis_roots stats in
  let rng = Rq_math.Rng.create 7 in
  let damaged =
    Fault.apply rng stats (List.map (fun r -> Fault.Drop_synopsis r) roots_before)
  in
  check_bool "damaged store lost synopses" true (Stats_store.synopsis_roots damaged = []);
  check_bool "original store untouched" true (Stats_store.synopsis_roots stats = roots_before)

(* ------------------------------------------------------------------ *)
(* Optimization budget                                                 *)
(* ------------------------------------------------------------------ *)

let test_budget_fallback () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let opt = Optimizer.robust stats in
  let query = three_join_query () in
  let unbudgeted = Optimizer.optimize_exn opt query in
  check_bool "full search not degraded" true (unbudgeted.Optimizer.degraded = []);
  let d = Optimizer.optimize_exn ~budget:1 opt query in
  check_bool "budget hit reported" true
    (List.exists (fun (e : Fault.event) -> e.Fault.kind = Fault.Budget_exceeded)
       d.Optimizer.degraded);
  (match Plan.validate catalog d.Optimizer.plan with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("left-deep fallback invalid: " ^ msg));
  let fallback = Executor.run catalog (Cost.create ()) d.Optimizer.plan in
  let full = Executor.run catalog (Cost.create ()) unbudgeted.Optimizer.plan in
  check_int "fallback answer matches full search"
    (Array.length full.Executor.tuples)
    (Array.length fallback.Executor.tuples)

let test_left_deep_plan_shape () =
  let catalog = chain_catalog () in
  let query = three_join_query () in
  match Enumerate.left_deep_plan catalog query with
  | None -> Alcotest.fail "no left-deep plan for connected query"
  | Some plan ->
      (match Plan.validate catalog plan with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let tables = List.sort String.compare (Plan.base_tables plan) in
      check_bool "covers all tables" true (tables = [ "customers"; "lineitems"; "orders" ])

(* ------------------------------------------------------------------ *)
(* Guards and mid-query re-optimization                                *)
(* ------------------------------------------------------------------ *)

(* A deliberately bad plan: drive an indexed nested-loop join from a
   scan the (mis)estimator thinks yields ~1 row but that actually
   yields ~1000 — each surviving row pays an index probe plus a random
   page fetch. *)
let bad_inl_plan () =
  Plan.Indexed_nl_join
    {
      outer =
        Plan.Scan
          {
            table = "lineitems";
            access = Plan.Seq_scan;
            pred = Pred.le (Expr.col "l_qty") (Expr.int 25);
          };
      outer_key = "lineitems.l_order";
      inner_table = "orders";
      inner_key = "o_id";
      inner_pred = Pred.True;
    }

let two_join_query () =
  Logical.query
    [
      Logical.scan ~pred:(Pred.le (Expr.col "l_qty") (Expr.int 25)) "lineitems";
      Logical.scan "orders";
    ]

let test_guard_fires_and_rescues () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  (* The misestimating optimizer: thinks every predicate keeps 0.05% of
     rows, so the INL outer looks like ~1 row. *)
  let opt = Optimizer.create stats (Cardinality.fixed_selectivity catalog 5e-4) in
  let query = two_join_query () in
  let bad = bad_inl_plan () in
  (match Plan.validate catalog bad with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("fixture plan invalid: " ^ msg));
  let _, unguarded = Executor.run_timed catalog bad in
  let outcome = Reopt.execute_plan ~threshold:4.0 opt query bad in
  check_bool "a guard fired" true (outcome.Reopt.events <> []);
  check_bool "continuation was re-optimized" true
    (List.exists
       (function Rq_obs.Trace.Reopt_adopted _ -> true | _ -> false)
       outcome.Reopt.events);
  check_bool "at least one re-optimization round" true (outcome.Reopt.reoptimizations >= 1);
  (* Same answer as just running the bad plan. *)
  let reference = Executor.run catalog (Cost.create ()) bad in
  check_int "rescued answer matches"
    (Array.length reference.Executor.tuples)
    (Array.length outcome.Reopt.result.Executor.tuples);
  (* The rescue — including the wasted prefix and guard overhead on the
     shared meter — must decisively beat finishing the bad plan. *)
  let rescued = outcome.Reopt.snapshot.Cost.seconds in
  check_bool
    (Printf.sprintf "rescued %.4fs beats unguarded %.4fs" rescued unguarded.Cost.seconds)
    true
    (rescued < unguarded.Cost.seconds /. 2.0);
  (* The final plan is guard-free and no longer the INL shape. *)
  check_int "final plan guard-free" 0 (Plan.guard_count outcome.Reopt.final_plan)

let test_guard_overhead_under_5_percent () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let opt = Optimizer.create stats (Cardinality.oracle catalog) in
  let query = three_join_query () in
  let d = Optimizer.optimize_exn opt query in
  let _, plain = Executor.run_timed catalog d.Optimizer.plan in
  let outcome = Reopt.execute_plan ~threshold:4.0 opt query d.Optimizer.plan in
  check_bool "no guard fired under the oracle" true (outcome.Reopt.events = []);
  check_int "no re-optimization" 0 outcome.Reopt.reoptimizations;
  let guarded = outcome.Reopt.snapshot.Cost.seconds in
  check_bool "guards charge something" true (guarded > plain.Cost.seconds);
  let overhead = (guarded -. plain.Cost.seconds) /. plain.Cost.seconds in
  check_bool
    (Printf.sprintf "overhead %.2f%% < 5%%" (100.0 *. overhead))
    true (overhead < 0.05)

let test_instrument_places_guards () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let opt = Optimizer.create stats (Cardinality.oracle catalog) in
  let d = Optimizer.optimize_exn opt (three_join_query ()) in
  let guarded = Reopt.instrument ~threshold:4.0 opt d.Optimizer.plan in
  check_bool "guards inserted" true (Plan.guard_count guarded >= 2);
  (match Plan.validate catalog guarded with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("guarded plan invalid: " ^ msg));
  (* Idempotent: re-instrumenting replaces rather than stacks guards. *)
  let twice = Reopt.instrument ~threshold:4.0 opt guarded in
  check_int "re-instrumentation does not stack" (Plan.guard_count guarded)
    (Plan.guard_count twice);
  check_int "strip_guards removes all" 0 (Plan.guard_count (Plan.strip_guards guarded))

let test_reopt_budget_exhaustion_completes () =
  (* max_reopts = 0: the guard fires but no replanning is allowed; the
     original plan must still complete and report replanned = false. *)
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let opt = Optimizer.create stats (Cardinality.fixed_selectivity catalog 5e-4) in
  let outcome = Reopt.execute_plan ~threshold:4.0 ~max_reopts:0 opt (two_join_query ()) (bad_inl_plan ()) in
  check_int "no re-optimization happened" 0 outcome.Reopt.reoptimizations;
  check_bool "the firing is still reported" true
    (List.exists
       (function Rq_obs.Trace.Reopt_abandoned _ -> true | _ -> false)
       outcome.Reopt.events);
  let reference = Executor.run catalog (Cost.create ()) (bad_inl_plan ()) in
  check_int "answer unchanged"
    (Array.length reference.Executor.tuples)
    (Array.length outcome.Reopt.result.Executor.tuples)

let test_feedback_cache () =
  let fb = Feedback.create () in
  Feedback.record fb ~tables:[ "b"; "a" ] 100.0;
  check_bool "order-insensitive lookup" true (Feedback.observed fb ~tables:[ "a"; "b" ] = Some 100.0);
  Feedback.record fb ~tables:[ "a"; "b" ] 150.0;
  check_bool "overwrite" true (Feedback.observed fb ~tables:[ "b"; "a" ] = Some 150.0);
  let catalog = chain_catalog () in
  (* Base estimator says 0.1% everywhere; feedback knows {lineitems} is
     really 1000 rows. The superset estimate must scale by the subset's
     observed/estimated ratio. *)
  let base = Cardinality.fixed_selectivity catalog 1e-3 in
  let fb = Feedback.create () in
  Feedback.record fb ~tables:[ "lineitems" ] 1000.0;
  let est = Feedback.with_feedback fb base in
  let li = Logical.scan ~pred:(Pred.le (Expr.col "l_qty") (Expr.int 25)) "lineitems" in
  let oo = Logical.scan "orders" in
  check_bool "exact observation wins" true
    (est.Cardinality.expression_cardinality [ li ] = 1000.0);
  let base_sub = base.Cardinality.expression_cardinality [ li ] in
  let base_full = base.Cardinality.expression_cardinality [ li; oo ] in
  let expect = base_full *. (1000.0 /. base_sub) in
  Alcotest.(check (float 1e-6))
    "subset anchoring scales the superset" expect
    (est.Cardinality.expression_cardinality [ li; oo ])

(* The outcome's events are the loop's narration, not a second report:
   on a rescued run and on a budget-exhausted one they are exactly the
   guard-firing and re-optimization events the recorder saw, in order. *)
let test_outcome_events_are_trace_events () =
  let catalog = chain_catalog () in
  let stats = fresh_stats catalog in
  let opt = Optimizer.create stats (Cardinality.fixed_selectivity catalog 5e-4) in
  List.iter
    (fun (name, max_reopts) ->
      let recorder = Rq_obs.Recorder.create () in
      let outcome =
        Reopt.execute_plan ~threshold:4.0 ~max_reopts ~obs:recorder opt (two_join_query ())
          (bad_inl_plan ())
      in
      let reopt_events =
        List.filter
          (function
            | Rq_obs.Trace.Guard_fired _ | Reopt_planned _ | Reopt_adopted _
            | Reopt_abandoned _ ->
                true
            | _ -> false)
          (Rq_obs.Recorder.events recorder)
      in
      check_bool (name ^ ": a guard fired") true (outcome.Reopt.events <> []);
      check_bool
        (name ^ ": events = the recorder's Guard_fired/Reopt_* subsequence")
        true
        (outcome.Reopt.events = reopt_events))
    [ ("rescued", 2); ("budget exhausted", 0) ]

let () =
  Alcotest.run "robustness"
    [
      ( "faults",
        [
          Alcotest.test_case "missing synopses degrade" `Quick test_fault_missing;
          Alcotest.test_case "truncated synopses degrade" `Quick test_fault_truncate;
          Alcotest.test_case "corrupt synopses degrade" `Quick test_fault_corrupt;
          Alcotest.test_case "stale synopses degrade" `Quick test_fault_stale;
          Alcotest.test_case "dangling FK rows degrade" `Quick test_fault_dangling_fk;
          Alcotest.test_case "dangling FK caught by FK check" `Quick test_dangling_fk_detail;
          Alcotest.test_case "injection JSON round-trip" `Quick test_injection_json_roundtrip;
          Alcotest.test_case "chaos profile never aborts" `Quick test_fault_chaos;
          Alcotest.test_case "healthy synopses verify" `Quick test_verify_synopsis_healthy;
          Alcotest.test_case "apply is copy-on-write" `Quick test_fault_apply_is_copy_on_write;
        ] );
      ( "budget",
        [
          Alcotest.test_case "budget exhaustion falls back" `Quick test_budget_fallback;
          Alcotest.test_case "left-deep plan shape" `Quick test_left_deep_plan_shape;
        ] );
      ( "reopt",
        [
          Alcotest.test_case "guard fires and rescues" `Quick test_guard_fires_and_rescues;
          Alcotest.test_case "guard overhead < 5%" `Quick test_guard_overhead_under_5_percent;
          Alcotest.test_case "instrumentation placement" `Quick test_instrument_places_guards;
          Alcotest.test_case "reopt budget exhaustion" `Quick test_reopt_budget_exhaustion_completes;
          Alcotest.test_case "feedback cache" `Quick test_feedback_cache;
          Alcotest.test_case "events are the recorder's reopt events" `Quick
            test_outcome_events_are_trace_events;
        ] );
    ]
