(* Guard-rescue experiment: how much of a misestimated plan's cost can
   mid-query re-optimization claw back, and what the guards cost when the
   estimates are good.

   Setup: a customers <- orders <- lineitems chain with indexes on the
   join keys.  A deliberately misestimating optimizer (fixed 0.05%
   selectivity) believes a filtered lineitems scan yields a handful of
   rows, so an indexed nested-loop join into orders looks cheap; in truth
   the filter keeps cutoff/50 of the table and every surviving row pays
   an index probe plus a random page fetch.  We sweep the filter cutoff
   and compare, on the same deterministic cost meter:

     unguarded  — the bad plan run to completion
     guarded    — cardinality guards + re-optimization (wasted prefix
                  and guard overhead included)
     oracle     — the plan a perfectly informed optimizer picks

   A final probe runs the guards under the oracle estimator (no firing)
   to measure pure guard overhead. *)

open Rq_storage
open Rq_exec
open Rq_optimizer

type config = {
  seed : int;
  customers : int;
  orders : int;
  lineitems : int;
  cutoffs : int list;  (** l_qty <= cutoff, out of 1..50: selectivity = cutoff/50 *)
  threshold : float;  (** guard q-error threshold *)
}

let default_config =
  {
    seed = 47;
    customers = 40;
    orders = 400;
    lineitems = 4000;
    cutoffs = [ 1; 5; 15; 25; 40; 50 ];
    threshold = 4.0;
  }

let quick_config = { default_config with lineitems = 1000; orders = 100; cutoffs = [ 5; 25; 50 ] }

type row = {
  cutoff : int;
  actual_rows : int;  (** rows actually surviving the filter *)
  unguarded_s : float;
  guarded_s : float;
  wasted_s : float;  (** cost of aborted attempt prefixes not reused downstream *)
  oracle_s : float;
  fired : bool;
  replanned : bool;
}

type result = {
  rows : row list;
  overhead_plain_s : float;  (** oracle plan, no guards *)
  overhead_guarded_s : float;  (** oracle plan, guards in place, none fire *)
}

let v_int i = Value.Int i

let build_catalog config =
  let rng = Rq_math.Rng.create config.seed in
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~primary_key:"c_id"
    (Relation.create ~name:"customers"
       ~schema:
         (Schema.create
            [ { Schema.name = "c_id"; ty = Value.T_int }; { Schema.name = "c_tier"; ty = Value.T_int } ])
       (Array.init config.customers (fun i -> [| v_int i; v_int (i mod 4) |])));
  Catalog.add_table catalog ~primary_key:"o_id"
    (Relation.create ~name:"orders"
       ~schema:
         (Schema.create
            [
              { Schema.name = "o_id"; ty = Value.T_int };
              { Schema.name = "o_cust"; ty = Value.T_int };
              { Schema.name = "o_status"; ty = Value.T_int };
            ])
       (Array.init config.orders (fun i ->
            [| v_int i; v_int (Rq_math.Rng.int rng config.customers); v_int (Rq_math.Rng.int rng 3) |])));
  Catalog.add_table catalog ~primary_key:"l_id"
    (Relation.create ~name:"lineitems"
       ~schema:
         (Schema.create
            [
              { Schema.name = "l_id"; ty = Value.T_int };
              { Schema.name = "l_order"; ty = Value.T_int };
              { Schema.name = "l_qty"; ty = Value.T_int };
            ])
       (Array.init config.lineitems (fun i ->
            [| v_int i; v_int (Rq_math.Rng.int rng config.orders); v_int (1 + Rq_math.Rng.int rng 50) |])));
  Catalog.add_foreign_key catalog
    { from_table = "orders"; from_column = "o_cust"; to_table = "customers"; to_column = "c_id" };
  Catalog.add_foreign_key catalog
    { from_table = "lineitems"; from_column = "l_order"; to_table = "orders"; to_column = "o_id" };
  Catalog.build_index catalog ~table:"orders" ~column:"o_id";
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_order";
  catalog

let lineitem_pred cutoff = Pred.le (Expr.col "l_qty") (Expr.int cutoff)

let query_of cutoff =
  Logical.query [ Logical.scan ~pred:(lineitem_pred cutoff) "lineitems"; Logical.scan "orders" ]

(* Wasted-prefix attribution from the recorder's span deltas.  Each aborted
   attempt root span covers everything that attempt charged; the deepest
   aborted span inside it is the fired guard, and the guard's *completed*
   children are the materialization the next attempt resumes from — reused,
   not wasted.  Wasted = attempt total - reused. *)
let wasted_seconds spans =
  let rec deepest_aborted (s : Rq_obs.Recorder.span) =
    match List.find_opt (fun (c : Rq_obs.Recorder.span) -> c.aborted) s.children with
    | Some c -> deepest_aborted c
    | None -> s
  in
  List.fold_left
    (fun acc (s : Rq_obs.Recorder.span) ->
      if not s.aborted then acc
      else
        let d = deepest_aborted s in
        let reused =
          List.fold_left
            (fun acc (c : Rq_obs.Recorder.span) ->
              if c.aborted then acc else acc +. c.total.Rq_obs.Metrics.seconds)
            0.0 d.children
        in
        acc +. (s.total.Rq_obs.Metrics.seconds -. reused))
    0.0 spans

let bad_plan cutoff =
  Plan.Indexed_nl_join
    {
      outer = Plan.Scan { table = "lineitems"; access = Plan.Seq_scan; pred = lineitem_pred cutoff };
      outer_key = "lineitems.l_order";
      inner_table = "orders";
      inner_key = "o_id";
      inner_pred = Pred.True;
    }

let run ?(config = default_config) () =
  let catalog = build_catalog config in
  let stats = Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create (config.seed + 1)) catalog in
  let misled = Optimizer.create stats (Cardinality.fixed_selectivity catalog 5e-4) in
  let oracle = Optimizer.create stats (Cardinality.oracle catalog) in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let rows =
    List.map
      (fun cutoff ->
        let query = query_of cutoff in
        let bad = bad_plan cutoff in
        let actual_rows =
          Relation.filter_count lineitems
            (Pred.compile (Relation.schema lineitems) (lineitem_pred cutoff))
        in
        let _, unguarded = Executor.run_timed catalog bad in
        let recorder = Rq_obs.Recorder.create () in
        let outcome =
          Reopt.execute_plan ~threshold:config.threshold ~obs:recorder misled query bad
        in
        let oracle_plan = (Optimizer.optimize_exn oracle query).Optimizer.plan in
        let _, oracle_snap = Executor.run_timed catalog oracle_plan in
        {
          cutoff;
          actual_rows;
          unguarded_s = unguarded.Cost.seconds;
          guarded_s = outcome.Reopt.snapshot.Cost.seconds;
          wasted_s = wasted_seconds (Rq_obs.Recorder.roots recorder);
          oracle_s = oracle_snap.Cost.seconds;
          fired = outcome.Reopt.events <> [];
          replanned =
            List.exists
              (function Rq_obs.Trace.Reopt_adopted _ -> true | _ -> false)
              outcome.Reopt.events;
        })
      config.cutoffs
  in
  (* Guard overhead when the estimates are right: instrument the oracle's
     own plan under the oracle estimator — every guard passes. *)
  let probe_query = query_of 25 in
  let oracle_plan = (Optimizer.optimize_exn oracle probe_query).Optimizer.plan in
  let _, plain = Executor.run_timed catalog oracle_plan in
  let outcome = Reopt.execute_plan ~threshold:config.threshold oracle probe_query oracle_plan in
  {
    rows;
    overhead_plain_s = plain.Cost.seconds;
    overhead_guarded_s = outcome.Reopt.snapshot.Cost.seconds;
  }

let render result =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "guard rescue: misestimated INL plan vs. guarded re-optimization (simulated seconds)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-8s %10s %12s %12s %12s %12s %9s %s\n" "cutoff" "rows" "unguarded"
       "guarded" "wasted" "oracle" "rescue" "outcome");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-8d %10d %12.4f %12.4f %12.4f %12.4f %8.1fx %s\n" r.cutoff
           r.actual_rows r.unguarded_s r.guarded_s r.wasted_s r.oracle_s
           (r.unguarded_s /. r.guarded_s)
           (if r.replanned then "replanned"
            else if r.fired then "fired, completed original"
            else "no guard fired")))
    result.rows;
  let overhead =
    100.0 *. (result.overhead_guarded_s -. result.overhead_plain_s) /. result.overhead_plain_s
  in
  Buffer.add_string buf
    (Printf.sprintf
       "guard overhead on a well-estimated plan: %.4fs -> %.4fs (%.2f%%)\n"
       result.overhead_plain_s result.overhead_guarded_s overhead);
  Buffer.contents buf
