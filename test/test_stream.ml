(* Streaming executor suite.  Early-exit shapes (LIMIT, mid-stream guard
   firing) must charge strictly less I/O than a full drain of the same
   plan; the recovery primitives the reopt loop builds on must hold —
   [Scan_resume] page geometry, [Append] prefix replay, the partial-result
   payload of a mid-stream [Guard_violation], duplicate-key hash-join
   ordering — and the engine must be invariant under the morsel pool:
   {!Parallel.run} at any domain count and buffer-pool capacity returns the
   same tuples, moves every counter identically and fires guards at the
   same point as {!Executor.run}. *)

open Rq_storage
open Rq_exec
open Rq_optimizer

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* Same customers <- orders <- lineitems chain as the obs suite; big
   enough (2000 lineitems) that a seq scan spans multiple stream batches
   and many pages. *)
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

let qty_pred = Pred.le (Expr.col "l_qty") (Expr.int 25)
let scan_lineitems access = Plan.Scan { table = "lineitems"; access; pred = qty_pred }

let scan_all table = Plan.Scan { table; access = Plan.Seq_scan; pred = Pred.True }

let check_snapshots name (s : Cost.snapshot) (m : Cost.snapshot) =
  let ci field = check_int (Printf.sprintf "%s: %s" name field) in
  ci "seq_pages" m.Cost.seq_pages s.Cost.seq_pages;
  ci "random_pages" m.Cost.random_pages s.Cost.random_pages;
  ci "cpu_tuples" m.Cost.cpu_tuples s.Cost.cpu_tuples;
  ci "index_probes" m.Cost.index_probes s.Cost.index_probes;
  ci "index_entries" m.Cost.index_entries s.Cost.index_entries;
  ci "hash_build" m.Cost.hash_build s.Cost.hash_build;
  ci "hash_probe" m.Cost.hash_probe s.Cost.hash_probe;
  ci "merge_tuples" m.Cost.merge_tuples s.Cost.merge_tuples;
  ci "sort_tuples" m.Cost.sort_tuples s.Cost.sort_tuples;
  ci "output_tuples" m.Cost.output_tuples s.Cost.output_tuples;
  check_float (name ^ ": sort_units") m.Cost.sort_units s.Cost.sort_units;
  check_float (name ^ ": extra_seconds") m.Cost.extra_seconds s.Cost.extra_seconds;
  check_float (name ^ ": seconds") m.Cost.seconds s.Cost.seconds

let check_results name (s : Executor.result) (m : Executor.result) =
  check_bool (name ^ ": schemas identical") true (s.Executor.schema = m.Executor.schema);
  check_int (name ^ ": row counts") (Array.length m.Executor.tuples)
    (Array.length s.Executor.tuples);
  check_bool (name ^ ": tuples byte-identical") true
    (s.Executor.tuples = m.Executor.tuples)

let run catalog plan =
  let meter = Cost.create ~scale:2.0 () in
  let res = Executor.run catalog meter plan in
  (res, Cost.snapshot meter)

(* What a fired guard's run leaves behind: the violation and the meter. *)
let fire catalog plan =
  let meter = Cost.create ~scale:2.0 () in
  match Executor.run catalog meter plan with
  | _ -> Alcotest.fail "guard did not fire"
  | exception Executor.Guard_violation v -> (v, Cost.snapshot meter)

let with_pool_pages pages f =
  let before =
    (Buffer_pool.global_stats ()).Buffer_pool.capacity_chunks * Page.pages_per_chunk
  in
  Buffer_pool.configure ~capacity_pages:pages;
  Fun.protect ~finally:(fun () -> Buffer_pool.configure ~capacity_pages:before) f

(* A guard or LIMIT over an input adds exactly one cpu-tuple charge per
   row it passes on (the counter pass); every other counter is the
   input's. *)
let check_plus_cpu name ~rows (s : Cost.snapshot) (base : Cost.snapshot) =
  check_snapshots name s
    {
      base with
      Cost.cpu_tuples = base.Cost.cpu_tuples + rows;
      seconds =
        base.Cost.seconds
        +. (2.0 *. float_of_int rows *. Cost.default_constants.Cost.cpu_tuple_s);
    }

(* ------------------------------------------------------------------ *)
(* Every plan family under the morsel pool                             *)
(* ------------------------------------------------------------------ *)

let star_catalog () =
  Rq_workload.Star.generate (Rq_math.Rng.create 23)
    ~params:{ Rq_workload.Star.default_params with fact_rows = 5000; dim_rows = 100 } ()

let star_dim i =
  {
    Plan.dim_table = Printf.sprintf "dim%d" i;
    dim_pred = Pred.eq (Expr.col "d_filter") (Expr.int 0);
    fact_fk = Printf.sprintf "f_dim%d" i;
  }

(* Index scans, merge and indexed-NL joins, the star semijoin and sort
   build rows themselves; scans feed them as per-morsel segments. *)
let plan_families () =
  let catalog = chain_catalog () in
  let star = star_catalog () in
  let hash_join =
    Plan.Hash_join
      {
        build = scan_all "orders";
        probe = scan_lineitems Plan.Seq_scan;
        build_key = "orders.o_id";
        probe_key = "lineitems.l_order";
      }
  in
  [
    ("seq-scan", catalog, scan_lineitems Plan.Seq_scan);
    ( "index-range",
      catalog,
      scan_lineitems (Plan.Index_range { column = "l_qty"; lo = None; hi = Some (v_int 25) })
    );
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
          right = scan_all "orders";
          left_key = "lineitems.l_order";
          right_key = "orders.o_id";
        } );
    ( "indexed-nl-join",
      catalog,
      Plan.Indexed_nl_join
        {
          outer = scan_lineitems Plan.Seq_scan;
          outer_key = "lineitems.l_order";
          inner_table = "orders";
          inner_key = "o_id";
          inner_pred = Pred.True;
        } );
    ( "star-semijoin",
      star,
      Plan.Star_semijoin
        { fact = "fact"; fact_pred = Pred.True; dims = [ star_dim 1; star_dim 2; star_dim 3 ] }
    );
    ( "agg-filter-project-sort",
      catalog,
      Plan.Sort
        {
          input =
            Plan.Aggregate
              {
                input =
                  Plan.Project
                    ( Plan.Filter (scan_lineitems Plan.Seq_scan, Pred.True),
                      [ "lineitems.l_order"; "lineitems.l_qty" ] );
                group_by = [ "lineitems.l_order" ];
                aggs =
                  [
                    { Plan.fn = Plan.Count_star; output_name = "n" };
                    { Plan.fn = Plan.Sum (Expr.col "lineitems.l_qty"); output_name = "q" };
                  ];
              };
          keys = [ { Plan.sort_column = "n"; descending = true } ];
        } );
    ( "guard-pass",
      catalog,
      Plan.Guard
        {
          input = scan_lineitems Plan.Seq_scan;
          expected_rows = 1000.0;
          max_q_error = 1e9;
          label = "wide";
        } );
  ]

(* Every family must come out of [Parallel.run] byte-identical, counter
   for counter. *)
let test_family_parity () =
  let families = plan_families () in
  let par = Parallel.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown par)
    (fun () ->
      List.iter
        (fun (name, cat, plan) ->
          (match Plan.validate cat plan with
          | Ok () -> ()
          | Error msg -> Alcotest.fail (name ^ ": fixture plan invalid: " ^ msg));
          let sres, ssnap = run cat plan in
          let meter = Cost.create ~scale:2.0 () in
          let pres = Parallel.run par cat meter plan in
          check_results name pres sres;
          check_snapshots name (Cost.snapshot meter) ssnap)
        families)

(* ------------------------------------------------------------------ *)
(* LIMIT early exit                                                    *)
(* ------------------------------------------------------------------ *)

let test_limit_early_exit () =
  let catalog = chain_catalog () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let plan = Plan.Limit (scan_all "lineitems", 10) in
  let lres, lsnap = run catalog plan in
  let full, fsnap = run catalog (scan_all "lineitems") in
  (* Same first rows... *)
  check_int "limit honored" 10 (Array.length lres.Executor.tuples);
  check_bool "the first rows of the full scan" true
    (lres.Executor.tuples = Array.sub full.Executor.tuples 0 10);
  (* ...but the full drain paid for the whole table while the LIMIT
     stopped pulling after the first batch. *)
  check_int "full drain scans every page" (Relation.page_count lineitems)
    fsnap.Cost.seq_pages;
  check_bool
    (Printf.sprintf "LIMIT charges strictly fewer seq pages (%d < %d)" lsnap.Cost.seq_pages
       fsnap.Cost.seq_pages)
    true
    (lsnap.Cost.seq_pages < fsnap.Cost.seq_pages);
  check_int "LIMIT charges one batch of cpu tuples plus its own pass"
    (Stream_exec.batch_rows + 10) lsnap.Cost.cpu_tuples;
  (* Over a hash join the LIMIT stops the probe side too: the build is
     paid in full, the probe scan only up to the batch that filled it. *)
  let join =
    Plan.Hash_join
      {
        build = scan_all "orders";
        probe = scan_all "lineitems";
        build_key = "orders.o_id";
        probe_key = "lineitems.l_order";
      }
  in
  let jres, jsnap = run catalog (Plan.Limit (join, 50)) in
  let _, jfsnap = run catalog join in
  let pages (s : Cost.snapshot) = s.Cost.seq_pages + s.Cost.random_pages in
  check_int "join limit honored" 50 (Array.length jres.Executor.tuples);
  check_bool
    (Printf.sprintf "LIMIT over a hash join charges strictly fewer pages (%d < %d)"
       (pages jsnap) (pages jfsnap))
    true
    (pages jsnap < pages jfsnap)

(* A LIMIT larger than the input is a full drain plus its counter pass. *)
let test_limit_full_drain_parity () =
  let catalog = chain_catalog () in
  let lres, lsnap = run catalog (Plan.Limit (scan_all "lineitems", 10_000)) in
  let full, fsnap = run catalog (scan_all "lineitems") in
  check_results "limit-full-drain" lres full;
  check_plus_cpu "limit-full-drain" ~rows:(Array.length full.Executor.tuples) lsnap fsnap

(* ------------------------------------------------------------------ *)
(* Mid-stream guard firing                                             *)
(* ------------------------------------------------------------------ *)

let overflow_guard input =
  Plan.Guard { input; expected_rows = 4.0; max_q_error = 2.0; label = "overflow" }

let test_guard_fires_mid_stream () =
  let catalog = chain_catalog () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let n = Relation.row_count lineitems in
  let sv, ssnap = fire catalog (overflow_guard (scan_all "lineitems")) in
  let full, fsnap = run catalog (scan_all "lineitems") in
  (* The guard fires on the batch that makes the overflow unrecoverable:
     the violation carries the partial prefix and a resumable tail. *)
  check_bool "fires mid-stream" false sv.Executor.complete;
  check_int "stopped after one batch" Stream_exec.batch_rows sv.Executor.actual_rows;
  check_int "partial result carries the consumed prefix" Stream_exec.batch_rows
    (Array.length sv.Executor.result.Executor.tuples);
  check_bool "progress is a real fraction" true
    (sv.Executor.progress > 0.0 && sv.Executor.progress < 1.0);
  check_float "progress = consumed fraction"
    (float_of_int Stream_exec.batch_rows /. float_of_int n)
    sv.Executor.progress;
  (match sv.Executor.resume with
  | Some (Plan.Scan_resume { table; from_rid; _ }) ->
      check_bool "resume names the table" true (table = "lineitems");
      check_int "resume starts where the stream stopped" Stream_exec.batch_rows from_rid
  | _ -> Alcotest.fail "violation should carry a Scan_resume tail");
  check_bool
    (Printf.sprintf "mid-stream firing charged fewer pages than a full drain (%d < %d)"
       ssnap.Cost.seq_pages fsnap.Cost.seq_pages)
    true
    (ssnap.Cost.seq_pages < fsnap.Cost.seq_pages);
  (* The prefix + resume tail replays to exactly the full scan: this is
     the continuation the reopt loop builds. *)
  let continuation =
    Plan.Append
      [
        Plan.Materialized
          {
            name = "prefix";
            schema = sv.Executor.result.Executor.schema;
            tuples = sv.Executor.result.Executor.tuples;
            refs = [];
          };
        (match sv.Executor.resume with Some p -> p | None -> assert false);
      ]
  in
  let cs, _ = run catalog continuation in
  check_bool "prefix + tail = full scan" true (cs.Executor.tuples = full.Executor.tuples)

(* Underflow is only judgeable at drain: the guard fires with the input
   fully consumed, in lockstep with a full drain plus the guard's counter
   pass. *)
let test_guard_underflow_drain_parity () =
  let catalog = chain_catalog () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let n = Relation.row_count lineitems in
  let plan =
    Plan.Guard
      {
        input = scan_all "lineitems";
        expected_rows = 1e6;
        max_q_error = 2.0;
        label = "underflow";
      }
  in
  let sv, ssnap = fire catalog plan in
  let full, fsnap = run catalog (scan_all "lineitems") in
  check_bool "underflow is complete" true sv.Executor.complete;
  check_bool "no resume on a complete firing" true (sv.Executor.resume = None);
  check_int "every row means every row" n sv.Executor.actual_rows;
  check_bool "the carried result is the full drain" true
    (sv.Executor.result.Executor.tuples = full.Executor.tuples);
  check_float "q-error of the full count"
    (Plan.q_error ~expected:1e6 ~actual:n)
    sv.Executor.q_error;
  check_plus_cpu "underflow drain" ~rows:n ssnap fsnap

(* ------------------------------------------------------------------ *)
(* Recovery leaves: Scan_resume and Append                             *)
(* ------------------------------------------------------------------ *)

let test_scan_resume_from_zero_is_a_scan () =
  let catalog = chain_catalog () in
  let resume = Plan.Scan_resume { table = "lineitems"; pred = qty_pred; from_rid = 0 } in
  let sres, ssnap = run catalog resume in
  let scan, scan_snap = run catalog (scan_lineitems Plan.Seq_scan) in
  check_results "scan-resume-0 = plain scan" sres scan;
  check_snapshots "scan-resume-0 = plain scan" ssnap scan_snap

let test_append_prefix_resume () =
  let catalog = chain_catalog () in
  let split = 600 in
  let full, _ = run catalog (scan_all "lineitems") in
  let plan =
    Plan.Append
      [
        Plan.Materialized
          {
            name = "prefix";
            schema = full.Executor.schema;
            tuples = Array.sub full.Executor.tuples 0 split;
            refs = [];
          };
        Plan.Scan_resume { table = "lineitems"; pred = Pred.True; from_rid = split };
      ]
  in
  let sres, ssnap = run catalog plan in
  check_bool "append = full scan" true (sres.Executor.tuples = full.Executor.tuples);
  (* The whole point: the replay does not re-read the prefix's pages. *)
  let lineitems = Catalog.find_table catalog "lineitems" in
  check_int "tail pages only"
    (Relation.page_count lineitems - (split / Relation.rows_per_page lineitems))
    ssnap.Cost.seq_pages

(* A reopt continuation hands a breaker batches that prune differently:
   the materialized prefix is full width, the resumed scan prunes every
   column nothing above reads.  Sort, merge join and hash build over it
   give the rows the same plan gives over one scan. *)
let test_breakers_over_mixed_pruning () =
  let catalog = chain_catalog () in
  let full, _ = run catalog (scan_all "lineitems") in
  let split = 700 in
  let continuation =
    Plan.Append
      [
        Plan.Materialized
          {
            name = "prefix";
            schema = full.Executor.schema;
            tuples = Array.sub full.Executor.tuples 0 split;
            refs = [];
          };
        Plan.Scan_resume { table = "lineitems"; pred = Pred.True; from_rid = split };
      ]
  in
  let shapes =
    [
      ( "sort",
        fun input ->
          Plan.Project
            ( Plan.Sort
                { input; keys = [ { Plan.sort_column = "lineitems.l_qty"; descending = true } ] },
              [ "lineitems.l_id"; "lineitems.l_qty" ] ) );
      ( "merge join",
        fun left ->
          Plan.Project
            ( Plan.Merge_join
                {
                  left;
                  right = scan_all "orders";
                  left_key = "lineitems.l_qty";
                  right_key = "orders.o_status";
                },
              [ "lineitems.l_id"; "orders.o_id" ] ) );
      ( "hash build",
        fun build ->
          Plan.Project
            ( Plan.Hash_join
                {
                  build;
                  probe = scan_all "orders";
                  build_key = "lineitems.l_order";
                  probe_key = "orders.o_id";
                },
              [ "lineitems.l_qty"; "orders.o_status" ] ) );
    ]
  in
  List.iter
    (fun (name, shape) ->
      let whole, _ = run catalog (shape (scan_all "lineitems")) in
      let resumed, _ = run catalog (shape continuation) in
      check_bool (name ^ ": rows") true (Array.length whole.Executor.tuples > 0);
      check_bool (name ^ ": continuation = one scan") true
        (resumed.Executor.tuples = whole.Executor.tuples))
    shapes

(* ------------------------------------------------------------------ *)
(* Hash join duplicate-key ordering                                    *)
(* ------------------------------------------------------------------ *)

(* Build side on a duplicated key (many lineitems per order): matches for
   a probe row must come out in build-input order, equal to a reference
   nested loop. *)
let test_hash_join_duplicate_key_order () =
  let catalog = chain_catalog () in
  let plan =
    Plan.Hash_join
      {
        build = scan_all "lineitems";
        probe = scan_all "orders";
        build_key = "lineitems.l_order";
        probe_key = "orders.o_id";
      }
  in
  let sres, _ = run catalog plan in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let orders = Catalog.find_table catalog "orders" in
  let expected = ref [] in
  for o = 0 to Relation.row_count orders - 1 do
    let otup = Relation.get orders o in
    for l = 0 to Relation.row_count lineitems - 1 do
      let ltup = Relation.get lineitems l in
      if Value.compare ltup.(1) otup.(0) = 0 then
        expected := Array.append ltup otup :: !expected
    done
  done;
  let expected = Array.of_list (List.rev !expected) in
  check_int "reference row count" (Array.length expected) (Array.length sres.Executor.tuples);
  check_bool "build-input order within duplicate keys" true
    (sres.Executor.tuples = expected)

(* ------------------------------------------------------------------ *)
(* End-to-end: mid-stream firing through the reopt loop                *)
(* ------------------------------------------------------------------ *)

(* Force a bad plan whose guards blow up mid-stream; the reopt loop must
   still produce the right answer (prefix reuse included). *)
let test_reopt_mid_stream_correctness () =
  let catalog = chain_catalog () in
  let stats = Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create 41) catalog in
  let query =
    Logical.query [ Logical.scan ~pred:qty_pred "lineitems"; Logical.scan "orders" ]
  in
  let bad_plan =
    Plan.Indexed_nl_join
      {
        outer = scan_lineitems Plan.Seq_scan;
        outer_key = "lineitems.l_order";
        inner_table = "orders";
        inner_key = "o_id";
        inner_pred = Pred.True;
      }
  in
  let opt = Optimizer.create stats (Cardinality.fixed_selectivity catalog 5e-4) in
  let outcome = Reopt.execute_plan ~threshold:4.0 opt query bad_plan in
  check_bool "a guard fired" true (outcome.Reopt.events <> []);
  check_bool "replanned" true
    (List.exists
       (function Rq_obs.Trace.Reopt_adopted _ -> true | _ -> false)
       outcome.Reopt.events);
  (* Against a trusted plain plan for the same query, and the oracle. *)
  let reference, _ =
    run catalog
      (Plan.Hash_join
         {
           build = scan_all "orders";
           probe = scan_lineitems Plan.Seq_scan;
           build_key = "orders.o_id";
           probe_key = "lineitems.l_order";
         })
  in
  check_bool "same answer as a trusted plan" true
    (Rq_experiments.Exp_common.results_equal outcome.Reopt.result reference);
  check_bool "same answer as the naive oracle" true
    (Rq_experiments.Exp_common.results_equal outcome.Reopt.result
       (Naive.evaluate_query catalog query))

(* ------------------------------------------------------------------ *)
(* Engine invariance under the morsel pool (qcheck)                    *)
(* ------------------------------------------------------------------ *)

(* The law: with the big table on the heap or in a spill file,
   {!Executor.run} and {!Parallel.run} at domains {1, 2, 4} x buffer-pool
   capacity {one chunk, the default} return byte-identical tuples and move
   every cost counter identically to {!Executor.run} on the heap, and a
   fired guard's violation is identical — prefix rows, progress, resume —
   on random null-bearing data, including empty selections (predicates
   matching nothing), whole chunks disproved by zone maps, and relations
   sized to straddle batch-window and chunk boundaries.  The spilled store
   decodes columns on first touch, so the morsel workers' bitmaps and the
   serial loop's pruned batches race to decode columns of the same chunks. *)

(* Five 20-byte string pads push row_bytes to 124, so a chunk holds
   [16 * (8192 / 124)] = 1056 rows — just above [Stream_exec.batch_rows]
   (1024).  Tables of up to three morsels (about 13k rows) therefore
   exercise batch splits inside a chunk, multi-chunk scans and several
   morsel batches without being slow to generate. *)
let vec_schema =
  Schema.create
    ({ Schema.name = "t_id"; ty = Value.T_int }
    :: { Schema.name = "t_k"; ty = Value.T_int }
    :: { Schema.name = "t_v"; ty = Value.T_float }
    :: List.map
         (fun i -> { Schema.name = Printf.sprintf "t_s%d" i; ty = Value.T_string })
         [ 1; 2; 3; 4; 5 ])

let vec_chunk_rows = Page.rows_per_chunk vec_schema

(* Morsels are whole chunks covering at least 4 batches: 4 chunks here. *)
let vec_morsel_rows =
  vec_chunk_rows * ((4 * Stream_exec.batch_rows + vec_chunk_rows - 1) / vec_chunk_rows)

type vec_case = {
  vc_seed : int;
  vc_big : int;   (* big-table rows *)
  vc_dim : int;   (* dim-table rows *)
  vc_plan : int;  (* plan family pick *)
  vc_c : int;     (* clustered band bound (can be <= 0: empty selection) *)
  vc_k : int;     (* scattered key bound *)
  vc_limit : int;
}

let render_vec_case c =
  Printf.sprintf "{seed=%d; big=%d; dim=%d; plan=%d; c=%d; k=%d; limit=%d}" c.vc_seed
    c.vc_big c.vc_dim c.vc_plan c.vc_c c.vc_k c.vc_limit

let gen_vec_case : vec_case QCheck.Gen.t =
  let open QCheck.Gen in
  let boundary_sizes =
    oneofl
      [
        1;
        Stream_exec.batch_rows;
        Stream_exec.batch_rows + 1;
        vec_chunk_rows;
        vec_chunk_rows + 1;
        (2 * vec_chunk_rows) + 17;
        vec_morsel_rows;
        vec_morsel_rows + 1;
        (2 * vec_morsel_rows) + 17;
      ]
  in
  int_bound 1_000_000 >>= fun vc_seed ->
  oneof [ boundary_sizes; int_range 1 ((3 * vec_morsel_rows) + 300) ] >>= fun vc_big ->
  int_range 1 60 >>= fun vc_dim ->
  int_bound 19 >>= fun vc_plan ->
  int_range (-1) (2 * vec_chunk_rows) >>= fun vc_c ->
  int_bound 40 >>= fun vc_k ->
  oneofl [ 1; 7; Stream_exec.batch_rows; Stream_exec.batch_rows + 1; max_int / 2 ]
  >>= fun vc_limit -> return { vc_seed; vc_big; vc_dim; vc_plan; vc_c; vc_k; vc_limit }

(* Clustered ascending t_id (so the band predicate disproves whole chunks
   by zone map), null-bearing t_k and t_v (1 in 8). *)
let vec_case_rows c =
  let rng = Rq_math.Rng.create c.vc_seed in
  let pad () =
    String.init (1 + Rq_math.Rng.int rng 6) (fun _ -> Char.chr (97 + Rq_math.Rng.int rng 26))
  in
  let maybe_null v = if Rq_math.Rng.int rng 8 = 0 then Value.Null else v in
  let big_rows =
    Array.init c.vc_big (fun i ->
        [|
          v_int i;
          maybe_null (v_int (Rq_math.Rng.int rng 40));
          maybe_null (Value.Float (Rq_math.Rng.float rng 100.0));
          Value.String (pad ());
          Value.String (pad ());
          Value.String (pad ());
          Value.String (pad ());
          Value.String (pad ());
        |])
  in
  let dim_rows =
    Array.init c.vc_dim (fun i -> [| v_int i; maybe_null (v_int (Rq_math.Rng.int rng 40)) |])
  in
  (big_rows, dim_rows)

let dim_schema =
  Schema.create
    [ { Schema.name = "d_id"; ty = Value.T_int }; { Schema.name = "d_k"; ty = Value.T_int } ]

(* The same rows twice: on the heap, and in spill files.  big.t_k is a
   foreign key into dim, and every column the row-operator families probe
   is indexed. *)
let vec_case_catalogs c =
  let big_rows, dim_rows = vec_case_rows c in
  let catalog ~spill =
    let catalog = Catalog.create () in
    let add ~name ~schema ~primary_key rows =
      let b = Relation.Builder.create ~spill ~name ~schema () in
      Array.iter (Relation.Builder.add_row b) rows;
      Catalog.add_table catalog ~primary_key (Relation.Builder.finish b)
    in
    add ~name:"big" ~schema:vec_schema ~primary_key:"t_id" big_rows;
    add ~name:"dim" ~schema:dim_schema ~primary_key:"d_id" dim_rows;
    Catalog.add_foreign_key catalog
      { from_table = "big"; from_column = "t_k"; to_table = "dim"; to_column = "d_id" };
    List.iter (fun column -> Catalog.build_index catalog ~table:"big" ~column) [ "t_id"; "t_k"; "t_v" ];
    Catalog.build_index catalog ~table:"dim" ~column:"d_id";
    catalog
  in
  [ ("heap", catalog ~spill:false); ("spilled", catalog ~spill:true) ]

let vec_case_plan c =
  let scan pred = Plan.Scan { table = "big"; access = Plan.Seq_scan; pred } in
  let band = Pred.lt (Expr.col "t_id") (Expr.int c.vc_c) in
  let keyp = Pred.le (Expr.col "t_k") (Expr.int c.vc_k) in
  let dim_scan = Plan.Scan { table = "dim"; access = Plan.Seq_scan; pred = Pred.True } in
  (* Both merge inputs carry duplicate and NULL keys; [big] is clustered
     on t_id, so a t_id merge reads its left side as already sorted and a
     t_k merge sorts it. *)
  let merge left_key =
    Plan.Merge_join { left = scan keyp; right = dim_scan; left_key; right_key = "dim.d_k" }
  in
  match c.vc_plan with
  | 0 -> scan band (* zone-skipped chunks; empty when c <= 0 *)
  | 1 -> scan keyp (* scattered selection with null keys *)
  | 2 -> Plan.Filter (scan band, Pred.le (Expr.col "big.t_k") (Expr.int c.vc_k))
  | 3 -> Plan.Project (scan keyp, [ "big.t_k"; "big.t_v" ])
  | 4 -> Plan.Limit (scan Pred.True, c.vc_limit)
  | 5 ->
      Plan.Hash_join
        {
          build = Plan.Scan { table = "dim"; access = Plan.Seq_scan; pred = Pred.True };
          probe = scan keyp;
          build_key = "dim.d_k";
          probe_key = "big.t_k";
        }
  | 6 ->
      Plan.Aggregate
        {
          input = scan band;
          group_by = [ "big.t_k" ];
          aggs =
            [
              { Plan.fn = Plan.Count_star; output_name = "n" };
              { Plan.fn = Plan.Sum (Expr.col "big.t_v"); output_name = "s" };
            ];
        }
  | 9 ->
      (* a pruned probe side through a hash join into an aggregate *)
      Plan.Aggregate
        {
          input =
            Plan.Hash_join
              {
                build = Plan.Scan { table = "dim"; access = Plan.Seq_scan; pred = Pred.True };
                probe = scan keyp;
                build_key = "dim.d_k";
                probe_key = "big.t_k";
              };
          group_by = [ "dim.d_id" ];
          aggs = [ { Plan.fn = Plan.Sum (Expr.col "big.t_v"); output_name = "s" } ];
        }
  | 10 ->
      (* an unsorted left side; the projection prunes the string pads *)
      Plan.Project (merge "big.t_k", [ "big.t_id"; "big.t_v"; "dim.d_id" ])
  | 11 ->
      (* two keys, one descending; rows tie when t_k and t_v are both
         equal (NULL t_v included), and the pads are pruned *)
      Plan.Project
        ( Plan.Sort
            {
              input = scan keyp;
              keys =
                [
                  { Plan.sort_column = "big.t_k"; descending = true };
                  { Plan.sort_column = "big.t_v"; descending = false };
                ];
            },
          [ "big.t_id"; "big.t_k"; "big.t_v" ] )
  | 12 ->
      (* a grand total over a merge join whose left side is already sorted *)
      Plan.Aggregate
        {
          input = merge "big.t_id";
          group_by = [];
          aggs =
            [
              { Plan.fn = Plan.Count_star; output_name = "n" };
              { Plan.fn = Plan.Sum (Expr.col "big.t_v"); output_name = "s" };
              { Plan.fn = Plan.Min (Expr.col "dim.d_id"); output_name = "lo" };
              { Plan.fn = Plan.Max (Expr.col "big.t_k"); output_name = "hi" };
            ];
        }
  | 13 ->
      (* an index range whose fetched rows fail the rest of the predicate *)
      Plan.Project
        ( Plan.Scan
            {
              table = "big";
              access = Plan.Index_range { column = "t_k"; lo = None; hi = Some (v_int c.vc_k) };
              pred = Pred.And [ keyp; Pred.lt (Expr.col "t_v") (Expr.float 50.0) ];
            },
          [ "big.t_id"; "big.t_v" ] )
  | 14 ->
      Plan.Project
        ( Plan.Scan
            {
              table = "big";
              access =
                Plan.Index_intersect
                  [
                    { column = "t_id"; lo = None; hi = Some (v_int c.vc_c) };
                    { column = "t_k"; lo = None; hi = Some (v_int c.vc_k) };
                    { column = "t_v"; lo = Some (Value.Float 10.0); hi = None };
                  ];
              pred = Pred.And [ band; keyp; Pred.ge (Expr.col "t_v") (Expr.float 10.0) ];
            },
          [ "big.t_k"; "big.t_s1" ] )
  | 15 ->
      (* ordered fetches ramping up under a LIMIT *)
      Plan.Project
        ( Plan.Limit
            ( Plan.Scan
                {
                  table = "big";
                  access = Plan.Index_order { column = "t_v"; descending = true };
                  pred = keyp;
                },
              c.vc_limit ),
          [ "big.t_id"; "big.t_v" ] )
  | 16 ->
      (* NULL outer keys, and an inner predicate over a NULL-bearing column *)
      Plan.Project
        ( Plan.Indexed_nl_join
            {
              outer = scan band;
              outer_key = "big.t_k";
              inner_table = "dim";
              inner_key = "d_id";
              inner_pred = Pred.le (Expr.col "d_k") (Expr.int c.vc_k);
            },
          [ "big.t_id"; "dim.d_k" ] )
  | 17 ->
      Plan.Project
        ( Plan.Star_semijoin
            {
              fact = "big";
              fact_pred = band;
              dims =
                [
                  {
                    Plan.dim_table = "dim";
                    dim_pred = Pred.le (Expr.col "d_k") (Expr.int c.vc_k);
                    fact_fk = "t_k";
                  };
                ];
            },
          [ "big.t_v"; "dim.d_id" ] )
  | 18 ->
      (* one group per row: more groups than a batch holds *)
      Plan.Project
        ( Plan.Aggregate
            {
              input = scan keyp;
              group_by = [ "big.t_id" ];
              aggs =
                [
                  { Plan.fn = Plan.Count_star; output_name = "n" };
                  { Plan.fn = Plan.Sum (Expr.col "big.t_v"); output_name = "s" };
                ];
            },
          [ "big.t_id"; "s" ] )
  | 19 ->
      (* a replayed prefix of the first c rows, then the resumed scan *)
      let big_rows, _ = vec_case_rows c in
      let m = max 0 (min c.vc_c c.vc_big) in
      Plan.Project
        ( Plan.Append
            [
              Plan.Materialized
                {
                  name = "prefix";
                  schema = Schema.qualify "big" vec_schema;
                  tuples = Array.sub big_rows 0 m;
                  refs = [ ("big", Pred.True) ];
                };
              Plan.Scan_resume { table = "big"; pred = keyp; from_rid = m };
            ],
          [ "big.t_id"; "big.t_k" ] )
  | 7 ->
      (* every batch drained with an empty selection, under a guard *)
      Plan.Guard
        {
          input = Plan.Filter (scan Pred.True, Pred.False);
          expected_rows = 1.0;
          max_q_error = 1e12;
          label = "empty";
        }
  | _ ->
      (* a guard that fires mid-scan once the matches outgrow twice the
         estimate (or at drain when they fall short of half of it) *)
      Plan.Guard
        {
          input = scan keyp;
          expected_rows = float_of_int (50 * c.vc_k);
          max_q_error = 2.0;
          label = "fires";
        }


(* The families the cost-model parity law covers; the row-operator
   families (13-19) are checked for invariance and pinned outcomes. *)
let parity_families = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
let invariance_families = parity_families @ [ 13; 14; 15; 16; 17; 18; 19 ]

(* A run's observable outcome: the tuples, or the violation's prefix rows,
   progress and resume; plus the meter. *)
type outcome = Rows of Executor.result | Fired of Executor.violation

let outcome_of run =
  let meter = Cost.create ~scale:2.0 () in
  let o =
    match run meter with
    | res -> Rows res
    | exception Executor.Guard_violation v -> Fired v
  in
  (o, Cost.snapshot meter)

let outcomes_agree ~label (a, asnap) (b, bsnap) =
  let same =
    match (a, b) with
    | Rows r, Rows s -> r.Executor.tuples = s.Executor.tuples
    | Fired v, Fired w ->
        v.Executor.result.Executor.tuples = w.Executor.result.Executor.tuples
        && v.Executor.actual_rows = w.Executor.actual_rows
        && v.Executor.complete = w.Executor.complete
        && v.Executor.progress = w.Executor.progress
        && v.Executor.resume = w.Executor.resume
    | _ -> false
  in
  if not same then QCheck.Test.fail_reportf "%s: outcomes differ" label
  else if not (Rq_experiments.Exp_common.snapshots_equal asnap bsnap) then
    QCheck.Test.fail_reportf "%s: counters diverge\nserial:   %s\nparallel: %s" label
      (Format.asprintf "%a" Rq_obs.Metrics.pp asnap)
      (Format.asprintf "%a" Rq_obs.Metrics.pp bsnap)
  else true

(* The serial run on the first store, then every (store, pool capacity,
   serial or domains) point, all at [batch_rows]. *)
let invariant ?(batch_rows = Stream_exec.batch_rows) pools ~label stores plan =
  let serial_at catalog = outcome_of (fun meter -> Stream_exec.run ~batch_rows catalog meter plan) in
  let label = Printf.sprintf "%s, batch %d" label batch_rows in
  let serial = serial_at (snd (List.hd stores)) in
  let pool_sizes =
    [
      Page.pages_per_chunk;
      (Buffer_pool.global_stats ()).Buffer_pool.capacity_chunks * Page.pages_per_chunk;
    ]
  in
  List.for_all
    (fun (store, catalog) ->
      List.for_all
        (fun pages ->
          with_pool_pages pages (fun () ->
              let at what = Printf.sprintf "%s, %s store, %s, %d-page pool" label store what pages in
              outcomes_agree ~label:(at "serial") serial (serial_at catalog)
              && List.for_all
                   (fun par ->
                     outcomes_agree
                       ~label:(at (Printf.sprintf "%d domains" (Parallel.domains par)))
                       serial
                       (outcome_of (fun meter -> Parallel.run ~batch_rows par catalog meter plan)))
                   pools))
        pool_sizes)
    stores

let with_pools f =
  let pools = List.map (fun domains -> Parallel.create ~domains ()) [ 1; 2; 4 ] in
  Fun.protect ~finally:(fun () -> List.iter Parallel.shutdown pools) (fun () -> f pools)

(* Batch sizes of one row, a few rows, and the default. *)
let batch_sizes = [ 1; 7; Stream_exec.batch_rows ]

(* Where an operator stops early — a satisfied [Limit], a guard — depends
   on the batch size by design, and so do its counters. *)
let rec stops_early = function
  | Plan.Limit _ | Plan.Guard _ -> true
  | plan -> List.exists stops_early (Plan.children plan)

(* Across batch sizes, an unguarded plan returns the same rows, and one
   that never stops early moves every integer counter alike. *)
let sizes_agree ~label plan outcomes =
  let counters (s : Cost.snapshot) =
    [ s.seq_pages; s.random_pages; s.pages_skipped; s.cpu_tuples; s.index_probes;
      s.index_entries; s.hash_build; s.hash_probe; s.merge_tuples; s.sort_tuples;
      s.output_tuples ]
  in
  match outcomes with
  | [] -> true
  | (b0, (o0, s0)) :: rest ->
      List.for_all
        (fun (b, (o, s)) ->
          match (o0, o) with
          | Rows r0, Rows r when r0.Executor.tuples <> r.Executor.tuples ->
              QCheck.Test.fail_reportf "%s: rows differ at batch %d and %d" label b0 b
          | Rows _, Rows _ when (not (stops_early plan)) && counters s0 <> counters s ->
              QCheck.Test.fail_reportf "%s: counters differ at batch %d and %d\n%s\n%s" label b0
                b
                (Format.asprintf "%a" Rq_obs.Metrics.pp s0)
                (Format.asprintf "%a" Rq_obs.Metrics.pp s)
          | Rows _, Rows _ -> true
          | _ -> stops_early plan || QCheck.Test.fail_reportf "%s: a guard fired" label)
        rest

let invariance_law =
  QCheck.Test.make
    ~name:"parallel = serial at every domain count, pool size and batch size" ~count:48
    (QCheck.make ~print:render_vec_case gen_vec_case)
    (fun c ->
      let stores = vec_case_catalogs c in
      let plan = vec_case_plan c in
      let label = render_vec_case c in
      (match Plan.validate (snd (List.hd stores)) plan with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "generator produced invalid plan: %s" msg);
      with_pools (fun pools ->
          List.for_all (fun batch_rows -> invariant ~batch_rows pools ~label stores plan) batch_sizes)
      && sizes_agree ~label plan
           (List.map
              (fun batch_rows ->
                ( batch_rows,
                  outcome_of (fun meter ->
                      Stream_exec.run ~batch_rows (snd (List.hd stores)) meter plan) ))
              batch_sizes))

(* The named boundary shapes. *)
let edge_cases =
  [
    ( "single-row",
      { vc_seed = 3; vc_big = 1; vc_dim = 1; vc_plan = 0; vc_c = 1; vc_k = 20; vc_limit = 1 }
    );
    ( "empty-selection",
      {
        vc_seed = 5;
        vc_big = vec_chunk_rows + 1;
        vc_dim = 8;
        vc_plan = 0;
        vc_c = -1;
        vc_k = 0;
        vc_limit = 7;
      } );
    ( "batch-boundary",
      {
        vc_seed = 7;
        vc_big = Stream_exec.batch_rows + 1;
        vc_dim = 8;
        vc_plan = 0;
        vc_c = Stream_exec.batch_rows;
        vc_k = 20;
        vc_limit = Stream_exec.batch_rows;
      } );
    ( "chunk-boundary",
      {
        vc_seed = 11;
        vc_big = vec_chunk_rows;
        vc_dim = 8;
        vc_plan = 0;
        vc_c = vec_chunk_rows - 1;
        vc_k = 20;
        vc_limit = vec_chunk_rows;
      } );
    ( "multi-morsel",
      {
        vc_seed = 17;
        vc_big = (2 * vec_morsel_rows) + 17;
        vc_dim = 16;
        vc_plan = 0;
        vc_c = vec_morsel_rows + 5;
        vc_k = 30;
        vc_limit = vec_morsel_rows + 1;
      } );
    ( "multi-chunk-band",
      {
        vc_seed = 13;
        vc_big = (2 * vec_chunk_rows) + 17;
        vc_dim = 16;
        vc_plan = 0;
        vc_c = vec_chunk_rows / 2;
        vc_k = 20;
        vc_limit = 100;
      } );
  ]

(* Deterministic edge sweep: the named boundary shapes, each through every
   plan family.  Redundant with the law above in expectation; pinned here
   so a regression names the exact shape. *)
let test_edge_shapes () =
  with_pools (fun pools ->
      List.iter
        (fun (shape, c) ->
          List.iter
            (fun plan_pick ->
              let c = { c with vc_plan = plan_pick } in
              let stores = vec_case_catalogs c in
              let plan = vec_case_plan c in
              ignore
                (invariant pools ~label:(Printf.sprintf "%s/plan%d" shape plan_pick) stores plan))
            invariance_families)
        edge_cases)

(* Pinned outcomes of the breaker families (a merge join with an unsorted
   left side, a two-key sort with ties, a grand total over a merge join) on
   fixed cases: the row count, an MD5 of the ordered rows (floats in hex,
   so bit-exact) and every counter of the serial run on the heap store.
   The values were recorded while the breakers still drained their inputs
   into tuples; the invariance law shows the engines agree with one
   another, these pins show they still agree with that answer. *)
let render_value = function
  | Value.Null -> "N"
  | Value.Bool b -> if b then "T" else "F"
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Float f -> Printf.sprintf "f%h" f
  | Value.String s -> Printf.sprintf "s%S" s
  | Value.Date d -> "d" ^ string_of_int d

let render_outcome (res : Executor.result) (m : Cost.snapshot) =
  let row t = String.concat "," (Array.to_list (Array.map render_value t)) in
  let rows = String.concat "\n" (Array.to_list (Array.map row res.Executor.tuples)) in
  Printf.sprintf
    "rows=%d md5=%s seq=%d rnd=%d skip=%d cpu=%d probes=%d entries=%d build=%d \
     probe=%d merge=%d sort=%d out=%d units=%h extra=%h s=%h"
    (Array.length res.Executor.tuples)
    (Digest.to_hex (Digest.string rows))
    m.Cost.seq_pages m.Cost.random_pages m.Cost.pages_skipped m.Cost.cpu_tuples
    m.Cost.index_probes m.Cost.index_entries m.Cost.hash_build m.Cost.hash_probe
    m.Cost.merge_tuples m.Cost.sort_tuples m.Cost.output_tuples m.Cost.sort_units
    m.Cost.extra_seconds m.Cost.seconds

let case_a =
  { vc_seed = 31; vc_big = 2129; vc_dim = 24; vc_plan = 0; vc_c = 0; vc_k = 20; vc_limit = 1 }

let case_b =
  { vc_seed = 47; vc_big = 1025; vc_dim = 60; vc_plan = 0; vc_c = 0; vc_k = 39; vc_limit = 1 }

let golden_cases =
  List.concat_map
    (fun family ->
      [
        (Printf.sprintf "family %d, case a" family, { case_a with vc_plan = family });
        (Printf.sprintf "family %d, case b" family, { case_b with vc_plan = family });
      ])
    [ 10; 11; 12 ]

let golden_outcomes =
  [
    ("family 10, case a",
      "rows=533 md5=3735266bf4a9587b5dc815cf58b51056 seq=34 rnd=0 skip=0 cpu=2686 probes=0 entries=0 build=0 probe=0 merge=1021 sort=1021 out=533 units=0x1.39ccd5e76f33ep+13 extra=0x0p+0 s=0x1.1b02964fc21e8p-4");
    ("family 10, case b",
      "rows=1244 md5=157ffc4540ed9fd1e9ca46a1e795c7a6 seq=17 rnd=0 skip=0 cpu=2329 probes=0 entries=0 build=0 probe=0 merge=955 sort=955 out=1244 units=0x1.1d546f0118facp+13 extra=0x0p+0 s=0x1.1f231c8d0172bp-5");
    ("family 11, case a",
      "rows=997 md5=0b07e9cd10c254bc989e708ee6896fad seq=33 rnd=0 skip=0 cpu=3126 probes=0 entries=0 build=0 probe=0 merge=0 sort=997 out=0 units=0x1.365c85d3c3b7p+13 extra=0x0p+0 s=0x1.12862550611b7p-4");
    ("family 11, case b",
      "rows=895 md5=411634cf0277bfa593db5e36f9f096c8 seq=16 rnd=0 skip=0 cpu=1920 probes=0 entries=0 build=0 probe=0 merge=0 sort=895 out=0 units=0x1.12412049b3c04p+13 extra=0x0p+0 s=0x1.0c2a5dcd54bc1p-5");
    ("family 12, case a",
      "rows=1 md5=6eb6ad0441234e14e41e560d340f594b seq=34 rnd=0 skip=0 cpu=2153 probes=0 entries=0 build=11 probe=0 merge=1021 sort=24 out=12 units=0x1.b82809d5be708p+6 extra=0x0p+0 s=0x1.18c03b598cc8bp-4");
    ("family 12, case b",
      "rows=1 md5=fe0b9492d38a731623abe95edc814b1b seq=17 rnd=0 skip=0 cpu=1085 probes=0 entries=0 build=47 probe=0 merge=955 sort=60 out=48 units=0x1.6269d6eca7502p+8 extra=0x0p+0 s=0x1.1965c04ac731cp-5");
  ]

let test_breaker_golden () =
  let actual =
    List.map
      (fun (label, c) ->
        let catalog = List.assoc "heap" (vec_case_catalogs c) in
        let res, snap = run catalog (vec_case_plan c) in
        (label, render_outcome res snap))
      golden_cases
  in
  if actual <> golden_outcomes then
    Alcotest.failf "breaker outcomes moved; now:\n%s"
      (String.concat "\n" (List.map (fun (l, o) -> Printf.sprintf "(%S,\n %S);" l o) actual))

(* Pinned outcomes of the row operators (index range, intersection and
   ordered scans, the indexed-NL join, the star semijoin, aggregate output
   wider than a batch, a materialized prefix replayed before a resumed
   scan), each under a narrow projection.  Every case runs on heap tables
   and again on spilled tables behind a one-chunk pool, and both runs must
   give the pinned outcome (rendered as for the breaker pins).  The values
   were recorded while these operators still built tuples. *)

(* The same tables in spill files, with the same keys, foreign keys and
   indexes. *)
let spilled_copy catalog =
  let copy = Catalog.create () in
  let names = Catalog.table_names catalog in
  List.iter
    (fun name ->
      let rel = Catalog.find_table catalog name in
      let b = Relation.Builder.create ~spill:true ~name ~schema:(Relation.schema rel) () in
      Relation.iter (fun _ tup -> Relation.Builder.add_row b tup) rel;
      Catalog.add_table copy
        ?primary_key:(Catalog.primary_key catalog name)
        ?clustered_by:(Catalog.clustered_by catalog name)
        (Relation.Builder.finish b))
    names;
  List.iter (Catalog.add_foreign_key copy) (Catalog.all_foreign_keys catalog);
  List.iter
    (fun table ->
      List.iter
        (fun idx -> Catalog.build_index copy ~table ~column:(Index.column idx))
        (Catalog.indexes_on catalog table))
    names;
  copy

let star_pin dims cols =
  let heap = star_catalog () in
  ( [ ("heap", heap); ("spilled", spilled_copy heap) ],
    Plan.Project
      ( Plan.Star_semijoin
          {
            fact = "fact";
            fact_pred = Pred.lt (Expr.col "f_m1") (Expr.float 600.0);
            dims = List.map star_dim dims;
          },
        cols ) )

let row_pin_cases () =
  let vec c family = (vec_case_catalogs c, vec_case_plan { c with vc_plan = family }) in
  [
    ("index range", vec case_a 13);
    ("index intersect, 3 probes", vec { case_a with vc_c = 1500 } 14);
    ("index order under LIMIT", vec { case_a with vc_limit = 300 } 15);
    ("indexed-NL join, NULL outer keys", vec { case_a with vc_c = 2000 } 16);
    ("star semijoin, 1 dim", star_pin [ 1 ] [ "fact.f_id"; "dim1.d_payload" ]);
    ("star semijoin, 3 dims", star_pin [ 1; 2; 3 ] [ "fact.f_m2"; "dim1.d_key"; "dim3.d_payload" ]);
    ("group by, more groups than a batch", vec { case_a with vc_k = 39 } 18);
    ("materialized prefix + resumed scan", vec { case_a with vc_c = 1500 } 19);
  ]

let row_pins =
  [
    ("index range",
     "rows=434 md5=3e69320be7866bbf7c92346b2d394038 seq=3 rnd=997 skip=0 cpu=1431 probes=1 entries=997 build=0 probe=0 merge=0 sort=0 out=0 units=0x0p+0 extra=0x0p+0 s=0x1.bf13d6e1f984dp+2");
    ("index intersect, 3 probes",
     "rows=554 md5=fe17cd24b4ea4bd175059bd16f46aa4f seq=11 rnd=555 skip=0 cpu=5999 probes=3 entries=4168 build=0 probe=0 merge=0 sort=0 out=0 units=0x0p+0 extra=0x0p+0 s=0x1.f46135a4fd7bp+1");
    ("index order under LIMIT",
     "rows=300 md5=08b5b1e8fdc13931c8ee473427dd8430 seq=5 rnd=960 skip=0 cpu=1560 probes=1 entries=2129 build=0 probe=0 merge=0 sort=0 out=0 units=0x0p+0 extra=0x0p+0 s=0x1.aec4325ef7dd3p+2");
    ("indexed-NL join, NULL outer keys",
     "rows=493 md5=ea1eecaa5b88b4d097b7784817960764 seq=32 rnd=1076 skip=1 cpu=3681 probes=1739 entries=1076 build=0 probe=0 merge=0 sort=0 out=493 units=0x0p+0 extra=0x0p+0 s=0x1.fc75da0c507b5p+2");
    ("star semijoin, 1 dim",
     "rows=269 md5=a1a3d9edc72531cb4f4f88e7387c7577 seq=1 rnd=470 skip=0 cpu=839 probes=10 entries=470 build=10 probe=269 merge=0 sort=0 out=269 units=0x0p+0 extra=0x0p+0 s=0x1.a5ab9b23dd594p+1");
    ("star semijoin, 3 dims",
     "rows=27 md5=118284cd164d0e3eec75e2ffd7ca60ac seq=3 rnd=49 skip=0 cpu=1936 probes=30 entries=1511 build=30 probe=81 merge=0 sort=0 out=27 units=0x0p+0 extra=0x0p+0 s=0x1.6c1a5515dc0afp-2");
    ("group by, more groups than a batch",
     "rows=1850 md5=3ce347db6c4646297587ab43b1ccf284 seq=33 rnd=0 skip=0 cpu=3979 probes=0 entries=0 build=1850 probe=0 merge=0 sort=0 out=1850 units=0x0p+0 extra=0x0p+0 s=0x1.156267d424affp-4");
    ("materialized prefix + resumed scan",
     "rows=1776 md5=a7d216612289a2d7828df312390cc905 seq=11 rnd=0 skip=0 cpu=2405 probes=0 entries=0 build=0 probe=0 merge=0 sort=0 out=0 units=0x0p+0 extra=0x0p+0 s=0x1.705425f202107p-6");
  ]

let test_row_golden () =
  let actual =
    List.map
      (fun (label, (stores, plan)) ->
        let outcome store =
          let res, snap = run (List.assoc store stores) plan in
          render_outcome res snap
        in
        let heap = outcome "heap" in
        let spilled = with_pool_pages Page.pages_per_chunk (fun () -> outcome "spilled") in
        if spilled <> heap then
          Alcotest.failf "%s: spilled outcome differs from heap\nheap:    %s\nspilled: %s" label
            heap spilled;
        (label, heap))
      (row_pin_cases ())
  in
  if actual <> row_pins then
    Alcotest.failf "row-operator outcomes moved; now:\n%s"
      (String.concat "\n" (List.map (fun (l, o) -> Printf.sprintf "(%S,\n %S);" l o) actual))

(* ------------------------------------------------------------------ *)
(* Predicted counters = metered counters                               *)
(* ------------------------------------------------------------------ *)

(* The exact estimator for one plan: every subplan whose cardinality
   Costing reads off its refs (scans, joins, filters, star semijoins), and
   every aggregate's group count, answers with the rows that subplan really
   produces; anything else goes to [Cardinality.oracle].  The invariance
   families join on columns no foreign key names, which the oracle cannot
   evaluate.  A resumed scan is left to the oracle: Costing sizes it as
   the full scan's cardinality times the unscanned fraction. *)
let exact_estimator catalog plan =
  let oracle = Cardinality.oracle catalog in
  let rows p =
    float_of_int
      (Array.length (Executor.run catalog (Cost.create ()) (Plan.strip_guards p)).Executor.tuples)
  in
  let cards = Hashtbl.create 16 and groups = Hashtbl.create 4 in
  let rec walk p =
    List.iter walk (Plan.children p);
    match p with
    | Plan.Scan _ | Plan.Hash_join _ | Plan.Merge_join _ | Plan.Indexed_nl_join _
    | Plan.Star_semijoin _ | Plan.Filter _ ->
        Hashtbl.replace cards (Costing.refs_of p) (rows p)
    | Plan.Aggregate { input; group_by; _ } ->
        Hashtbl.replace groups (Costing.refs_of input, group_by) (rows p)
    | _ -> ()
  in
  walk plan;
  {
    oracle with
    Cardinality.expression_cardinality =
      (fun refs ->
        match Hashtbl.find_opt cards refs with
        | Some card -> card
        | None -> oracle.Cardinality.expression_cardinality refs);
    group_count =
      (fun refs group_by ->
        match Hashtbl.find_opt groups (refs, group_by) with
        | Some n -> n
        | None -> oracle.Cardinality.group_count refs group_by);
  }

(* A LIMIT below its input's row count stops pulling early: the meter then
   pays for less than the input Costing prices. *)
let rec limit_stops_early catalog plan =
  (match plan with
  | Plan.Limit (input, n) ->
      n < Array.length (Executor.run catalog (Cost.create ()) input).Executor.tuples
  | _ -> false)
  || List.exists (limit_stops_early catalog) (Plan.children plan)

(* Predicted minus metered, per counter that differs: sort units within
   1e-9 relative, every other counter rounded to the nearest whole count.
   [None] when a guard fires or a LIMIT stops early: the meter then stops
   short of the plan Costing prices. *)
let counter_gaps catalog plan =
  let meter = Cost.create () in
  match Executor.run catalog meter plan with
  | exception Executor.Guard_violation _ -> None
  | _ when limit_stops_early catalog plan -> None
  | _ ->
      let m = Cost.snapshot meter in
      let (p : Cost.work) = (Costing.estimate catalog (exact_estimator catalog plan) plan).work in
      let whole name predicted metered = (name, Float.round predicted -. float_of_int metered) in
      let sort_gap = p.Cost.sort_units -. m.Cost.sort_units in
      List.filter
        (fun (_, gap) -> gap <> 0.0)
        [
          whole "seq_pages" p.Cost.seq_pages m.Cost.seq_pages;
          whole "random_pages" p.Cost.random_pages m.Cost.random_pages;
          whole "cpu_tuples" p.Cost.cpu_tuples m.Cost.cpu_tuples;
          whole "index_entries" p.Cost.index_entries m.Cost.index_entries;
          whole "index_probes" p.Cost.index_probes m.Cost.index_probes;
          whole "hash_build" p.Cost.hash_build m.Cost.hash_build;
          whole "hash_probe" p.Cost.hash_probe m.Cost.hash_probe;
          whole "merge_tuples" p.Cost.merge_tuples m.Cost.merge_tuples;
          ( "sort_units",
            if Float.abs sort_gap <= 1e-9 *. Float.max 1.0 m.Cost.sort_units then 0.0
            else sort_gap );
          whole "output_tuples" p.Cost.output_tuples m.Cost.output_tuples;
        ]
      |> Option.some

(* Cases beyond the fixed families: the star semijoin at one and two
   dimensions, a three-probe intersection, an indexed-NL join over NULL
   outer keys, and a merge join whose already-sorted side is a resumed
   scan. *)
let extra_parity_cases () =
  let catalog = chain_catalog () in
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_id";
  let star = star_catalog () in
  let nullable = List.assoc "heap" (vec_case_catalogs case_a) in
  Catalog.build_index nullable ~table:"dim" ~column:"d_id";
  [
    ( "star-semijoin, 1 dim",
      star,
      Plan.Star_semijoin { fact = "fact"; fact_pred = Pred.True; dims = [ star_dim 1 ] } );
    ( "star-semijoin, 2 dims",
      star,
      Plan.Star_semijoin
        { fact = "fact"; fact_pred = Pred.True; dims = [ star_dim 1; star_dim 2 ] } );
    ( "index-intersect, 3 probes",
      catalog,
      scan_lineitems
        (Plan.Index_intersect
           [
             { column = "l_qty"; lo = None; hi = Some (v_int 25) };
             { column = "l_order"; lo = Some (v_int 0); hi = Some (v_int 100) };
             { column = "l_id"; lo = Some (v_int 500); hi = None };
           ]) );
    ( "indexed-nl-join, NULL outer keys",
      nullable,
      Plan.Indexed_nl_join
        {
          outer = Plan.Scan { table = "big"; access = Plan.Seq_scan; pred = Pred.True };
          outer_key = "big.t_k";
          inner_table = "dim";
          inner_key = "d_id";
          inner_pred = Pred.True;
        } );
    ( "merge-join, resumed sorted side",
      catalog,
      Plan.Merge_join
        {
          left = scan_lineitems Plan.Seq_scan;
          right = Plan.Scan_resume { table = "orders"; pred = Pred.True; from_rid = 50 };
          left_key = "lineitems.l_order";
          right_key = "orders.o_id";
        } );
  ]

(* The disagreements the cost model keeps for now, as predicted minus
   metered.  Each is the exact gap on its case; any other case must agree
   on every counter. *)
let known_gaps =
  [
    (* The RID intersection: Costing charges the sum of every dimension's
       semijoin entries; the executor charges |running intersection| +
       entries of each dimension from the second on. *)
    ("star-semijoin", [ ("cpu_tuples", -49.0) ]);
    ("star-semijoin, 1 dim", [ ("cpu_tuples", 470.0) ]);
    (* The same intersection over three index probes. *)
    ("index-intersect, 3 probes", [ ("cpu_tuples", -518.0) ]);
    (* The executor skips NULL outer keys; Costing probes once per outer row. *)
    ("indexed-nl-join, NULL outer keys", [ ("index_probes", 279.0) ]);
  ]

let parity_cases () =
  let vec =
    List.concat_map
      (fun (shape, c) ->
        let catalog = List.assoc "heap" (vec_case_catalogs c) in
        List.map
          (fun family ->
            ( Printf.sprintf "%s/family %d" shape family,
              catalog,
              vec_case_plan { c with vc_plan = family } ))
          parity_families)
      (edge_cases @ [ ("case a", case_a); ("case b", case_b) ])
  in
  plan_families () @ extra_parity_cases () @ vec

let render_gaps gaps =
  String.concat ", " (List.map (fun (name, gap) -> Printf.sprintf "%s %+g" name gap) gaps)

let test_counter_parity () =
  let compared = ref [] and wrong = ref [] in
  List.iter
    (fun (name, catalog, plan) ->
      match counter_gaps catalog plan with
      | None -> ()
      | Some gaps ->
          compared := name :: !compared;
          let expected = Option.value (List.assoc_opt name known_gaps) ~default:[] in
          if gaps <> expected then
            wrong :=
              Printf.sprintf "%s: predicted - metered [%s], expected [%s]" name
                (render_gaps gaps) (render_gaps expected)
              :: !wrong)
    (parity_cases ());
  if !wrong <> [] then Alcotest.fail (String.concat "\n" (List.rev !wrong));
  List.iter
    (fun (name, _) ->
      check_bool (name ^ ": known gap still exercised") true (List.mem name !compared))
    known_gaps

let () =
  Alcotest.run "stream"
    [
      ( "parity",
        [
          Alcotest.test_case "every plan family: tuples + all counters" `Quick
            test_family_parity;
          Alcotest.test_case "LIMIT >= input is a full drain" `Quick
            test_limit_full_drain_parity;
          Alcotest.test_case "Scan_resume from 0 = Scan" `Quick
            test_scan_resume_from_zero_is_a_scan;
        ] );
      ( "early-exit",
        [
          Alcotest.test_case "LIMIT stops pulling and pays less I/O" `Quick
            test_limit_early_exit;
          Alcotest.test_case "guard fires mid-stream with a resumable prefix" `Quick
            test_guard_fires_mid_stream;
          Alcotest.test_case "underflow fires at drain, in lockstep" `Quick
            test_guard_underflow_drain_parity;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "Append prefix + Scan_resume tail replays the scan" `Quick
            test_append_prefix_resume;
          Alcotest.test_case "hash join keeps build-input order on duplicate keys" `Quick
            test_hash_join_duplicate_key_order;
          Alcotest.test_case "breakers over a prefix + resumed-scan continuation" `Quick
            test_breakers_over_mixed_pruning;
          Alcotest.test_case "mid-stream reopt returns the right answer" `Quick
            test_reopt_mid_stream_correctness;
        ] );
      ( "costing",
        [
          Alcotest.test_case "predicted counters = metered" `Quick test_counter_parity;
        ] );
      ( "invariance",
        [
          QCheck_alcotest.to_alcotest invariance_law;
          Alcotest.test_case "boundary shapes through every family" `Quick test_edge_shapes;
          Alcotest.test_case "breaker outcomes pinned" `Quick test_breaker_golden;
          Alcotest.test_case "row-operator outcomes pinned" `Quick test_row_golden;
        ] );
    ]
