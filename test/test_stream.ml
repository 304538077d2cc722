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

(* Index scans, merge and indexed-NL joins, the star semijoin and sort
   build rows themselves; scans feed them through the morsel prefetch.
   Every family must come out of [Parallel.run] byte-identical, counter
   for counter. *)
let test_family_parity () =
  let catalog = chain_catalog () in
  let star = star_catalog () in
  let dim i =
    {
      Plan.dim_table = Printf.sprintf "dim%d" i;
      dim_pred = Pred.eq (Expr.col "d_filter") (Expr.int 0);
      fact_fk = Printf.sprintf "f_dim%d" i;
    }
  in
  let hash_join =
    Plan.Hash_join
      {
        build = scan_all "orders";
        probe = scan_lineitems Plan.Seq_scan;
        build_key = "orders.o_id";
        probe_key = "lineitems.l_order";
      }
  in
  let families =
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
        Plan.Star_semijoin { fact = "fact"; fact_pred = Pred.True; dims = [ dim 1; dim 2; dim 3 ] }
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
  in
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
    (List.exists (fun (e : Reopt.event) -> e.Reopt.replanned) outcome.Reopt.events);
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
  int_bound 9 >>= fun vc_plan ->
  int_range (-1) (2 * vec_chunk_rows) >>= fun vc_c ->
  int_bound 40 >>= fun vc_k ->
  oneofl [ 1; 7; Stream_exec.batch_rows; Stream_exec.batch_rows + 1; max_int / 2 ]
  >>= fun vc_limit -> return { vc_seed; vc_big; vc_dim; vc_plan; vc_c; vc_k; vc_limit }

(* Clustered ascending t_id (so the band predicate disproves whole chunks
   by zone map), null-bearing t_k and t_v (1 in 8).  The same rows twice:
   [big] on the heap, and [big] in a spill file. *)
let vec_case_catalogs c =
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
  let catalog ~spill =
    let catalog = Catalog.create () in
    let b = Relation.Builder.create ~spill ~name:"big" ~schema:vec_schema () in
    Array.iter (Relation.Builder.add_row b) big_rows;
    Catalog.add_table catalog ~primary_key:"t_id" (Relation.Builder.finish b);
    Catalog.add_table catalog ~primary_key:"d_id"
      (Relation.create ~name:"dim"
         ~schema:
           (Schema.create
              [
                { Schema.name = "d_id"; ty = Value.T_int };
                { Schema.name = "d_k"; ty = Value.T_int };
              ])
         dim_rows);
    catalog
  in
  [ ("heap", catalog ~spill:false); ("spilled", catalog ~spill:true) ]

let vec_case_plan c =
  let scan pred = Plan.Scan { table = "big"; access = Plan.Seq_scan; pred } in
  let band = Pred.lt (Expr.col "t_id") (Expr.int c.vc_c) in
  let keyp = Pred.le (Expr.col "t_k") (Expr.int c.vc_k) in
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


let invariance_families = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

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
      (Format.asprintf "%a" Cost.pp_snapshot asnap)
      (Format.asprintf "%a" Cost.pp_snapshot bsnap)
  else true

(* The serial run on the first store, then every (store, pool capacity,
   serial or domains) point. *)
let invariant pools ~label stores plan =
  let serial = outcome_of (fun meter -> Executor.run (snd (List.hd stores)) meter plan) in
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
              outcomes_agree ~label:(at "serial") serial
                (outcome_of (fun meter -> Executor.run catalog meter plan))
              && List.for_all
                   (fun par ->
                     outcomes_agree
                       ~label:(at (Printf.sprintf "%d domains" (Parallel.domains par)))
                       serial
                       (outcome_of (fun meter -> Parallel.run par catalog meter plan)))
                   pools))
        pool_sizes)
    stores

let with_pools f =
  let pools = List.map (fun domains -> Parallel.create ~domains ()) [ 1; 2; 4 ] in
  Fun.protect ~finally:(fun () -> List.iter Parallel.shutdown pools) (fun () -> f pools)

let invariance_law =
  QCheck.Test.make ~name:"parallel = serial at every domain count and pool size" ~count:48
    (QCheck.make ~print:render_vec_case gen_vec_case)
    (fun c ->
      let stores = vec_case_catalogs c in
      let plan = vec_case_plan c in
      (match Plan.validate (snd (List.hd stores)) plan with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "generator produced invalid plan: %s" msg);
      with_pools (fun pools -> invariant pools ~label:(render_vec_case c) stores plan))

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
        ])

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
          Alcotest.test_case "mid-stream reopt returns the right answer" `Quick
            test_reopt_mid_stream_correctness;
        ] );
      ( "invariance",
        [
          QCheck_alcotest.to_alcotest invariance_law;
          Alcotest.test_case "boundary shapes through every family" `Quick test_edge_shapes;
        ] );
    ]
