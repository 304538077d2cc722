(* Guarded re-optimization: a cardinality guard catches a misestimate
   mid-query and the optimizer replans over the materialized intermediate.

   1. Build an orders <- lineitems pair with an index on orders' key, so
      an indexed nested-loop join is available.
   2. Mislead the optimizer: a fixed-selectivity estimator believes the
      filtered lineitems scan yields ~2 rows, making the INL join into
      orders look nearly free.  In truth the filter keeps half the table
      and every surviving row pays an index probe plus a random page read.
   3. Run the bad plan twice: once unguarded to completion, once under
      cardinality guards.  The guard over the scan fires at ~500x its
      expected rows, execution aborts, the observed count feeds back into
      the estimator, and a hash join finishes from the materialized scan
      output.  Both runs are metered; the guarded one pays for its wasted
      prefix and still wins by orders of magnitude.

   Run with: dune exec examples/guarded_reopt.exe *)

open Rq_storage
open Rq_exec
open Rq_optimizer

let v_int i = Value.Int i

let () =
  let rng = Rq_math.Rng.create 11 in
  let catalog = Catalog.create () in
  let orders = 400 and lineitems = 4000 in
  Catalog.add_table catalog ~primary_key:"o_id"
    (Relation.create ~name:"orders"
       ~schema:
         (Schema.create
            [ { Schema.name = "o_id"; ty = Value.T_int }; { Schema.name = "o_status"; ty = Value.T_int } ])
       (Array.init orders (fun i -> [| v_int i; v_int (Rq_math.Rng.int rng 3) |])));
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

  let stats = Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create 12) catalog in

  (* The query: half of lineitems joined to orders. *)
  let pred = Pred.le (Expr.col "l_qty") (Expr.int 25) in
  let query = Logical.query [ Logical.scan ~pred "lineitems"; Logical.scan "orders" ] in

  (* The plan a misestimating optimizer would pick: INL driven by a scan
     it believes is tiny. *)
  let bad_plan =
    Plan.Indexed_nl_join
      {
        outer = Plan.Scan { table = "lineitems"; access = Plan.Seq_scan; pred };
        outer_key = "lineitems.l_order";
        inner_table = "orders";
        inner_key = "o_id";
        inner_pred = Pred.True;
      }
  in
  let misled = Optimizer.create stats (Cardinality.fixed_selectivity catalog 5e-4) in

  Printf.printf "bad plan: %s\n\n" (Plan.describe bad_plan);

  let _, unguarded = Executor.run_timed catalog bad_plan in
  Printf.printf "unguarded, run to completion:  %.4f simulated seconds\n\n" unguarded.Cost.seconds;

  let outcome = Reopt.execute_plan ~threshold:4.0 misled query bad_plan in
  List.iter (fun e -> print_endline (Rq_obs.Trace.to_string e)) outcome.Reopt.events;
  Printf.printf "\nfinal plan after rescue: %s\n" (Plan.describe outcome.Reopt.final_plan);
  Printf.printf "guarded (incl. wasted prefix): %.4f simulated seconds (%.0fx cheaper)\n"
    outcome.Reopt.snapshot.Cost.seconds
    (unguarded.Cost.seconds /. outcome.Reopt.snapshot.Cost.seconds);
  Printf.printf "result rows: %d (identical either way)\n"
    (Array.length outcome.Reopt.result.Executor.tuples);

  (* The flip side: with good estimates the guards all pass, and the
     metering shows what they cost. *)
  let oracle = Optimizer.create stats (Cardinality.oracle catalog) in
  let good_plan = (Optimizer.optimize_exn oracle query).Optimizer.plan in
  let _, plain = Executor.run_timed catalog good_plan in
  let guarded = Reopt.execute_plan ~threshold:4.0 oracle query good_plan in
  Printf.printf "\nwell-estimated plan %s:\n" (Plan.describe good_plan);
  Printf.printf "  unguarded %.4fs, guarded %.4fs (overhead %.2f%%, no guard fired)\n"
    plain.Cost.seconds guarded.Reopt.snapshot.Cost.seconds
    (100.0
    *. (guarded.Reopt.snapshot.Cost.seconds -. plain.Cost.seconds)
    /. plain.Cost.seconds)
