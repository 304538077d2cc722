(* Executor bench.

   Five fixed physical plans over the TPC-H-lite catalog, each run with
   fresh meters next to a full drain of the same plan with its LIMIT or
   guard stripped: two early-exit shapes (LIMIT over a seq scan, LIMIT over
   a hash join's probe side) that must charge strictly fewer pages than the
   full drain, one mid-stream guard firing that stops scanning at the first
   overflowing batch, a full-drain join whose re-run must move every counter
   identically, and a zone-map skip scan.  Real wall time and allocation
   are measured over repeated runs alongside the simulated counters, plus
   the GC's peak live words (sampled at major collections). *)

open Rq_exec
open Rq_workload

type config = {
  seed : int;
  scale_factor : float;
  repetitions : int;
  domains : int;              (* top of the morsel-parallel domains axis *)
  min_scan_speedup : float;   (* gate: simulated scan-morsel speedup at [domains] *)
  buffer_pool_pages : int;    (* global pool capacity in 8 KiB pages; 0 keeps
                                 the process default *)
  exact_compare : bool;       (* compare parallel arms against the serial
                                 engine tuple-by-tuple; off at bench scale,
                                 where holding both result sets doubles peak
                                 memory and an order-insensitive multiset
                                 digest suffices *)
}

let default_config =
  {
    seed = 11;
    scale_factor = 0.01;
    repetitions = 5;
    domains = 4;
    min_scan_speedup = 2.5;
    buffer_pool_pages = 0;
    exact_compare = true;
  }

let small_config =
  {
    default_config with
    scale_factor = 0.003;
    repetitions = 2;
    (* The small catalog has only a handful of morsels per scan, so the
       schedule cannot reach the default gate; 4 domains must still beat 1
       comfortably. *)
    min_scan_speedup = 1.5;
  }

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  plan : Plan.t;
  early_exit : bool;
      (* the plan must charge strictly fewer pages than its full drain;
         otherwise every counter must be identical *)
  zone_skip : bool;
      (* zone maps must skip whole chunks: pages_skipped > 0 and
         seq_pages + pages_skipped = the table's page count *)
}

let scan table = Plan.Scan { table; access = Plan.Seq_scan; pred = Pred.True }

(* lineitem is clustered on l_orderkey, so a narrow l_orderkey band makes
   most chunks' zone maps disprove the predicate outright — the
   chunk-skipping workload. *)
let zone_skip_pred catalog =
  let orders = Rq_storage.Catalog.find_table catalog "orders" in
  Pred.lt (Expr.col "l_orderkey")
    (Expr.int (max 1 (Rq_storage.Relation.row_count orders / 8)))

let workloads catalog =
  let join =
    Plan.Hash_join
      {
        build = scan "orders";
        probe = scan "lineitem";
        build_key = "orders.o_orderkey";
        probe_key = "lineitem.l_orderkey";
      }
  in
  let base = { name = ""; plan = Plan.Limit (join, 1); early_exit = false; zone_skip = false } in
  [
    { base with name = "limit-scan"; plan = Plan.Limit (scan "lineitem", 100); early_exit = true };
    { base with name = "limit-join"; plan = Plan.Limit (join, 50); early_exit = true };
    {
      base with
      name = "guard-fire";
      plan =
        Plan.Guard
          {
            input = scan "lineitem";
            expected_rows = 8.0;
            max_q_error = 2.0;
            label = "bench guard";
          };
      early_exit = true;
    };
    { base with name = "full-drain"; plan = join };
    {
      base with
      name = "zone-skip";
      plan =
        Plan.Scan
          { table = "lineitem"; access = Plan.Seq_scan; pred = zone_skip_pred catalog };
      zone_skip = true;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type arm = {
  snapshot : Cost.snapshot;
  rows : int;            (* rows produced (partial rows for a fired guard) *)
  fired : bool;
  wall_ms : float;       (* mean wall-clock per run *)
  allocated_mb : float;  (* mean bytes allocated per run *)
  peak_live_words : int; (* max live heap words seen during the runs *)
}

(* Peak live words via a GC alarm: sampled at the end of every major
   collection, plus once after the runs with the last result still live. *)
let with_gc_peak f =
  Gc.compact ();
  let peak = ref (Gc.stat ()).Gc.live_words in
  let sample () =
    let live = (Gc.stat ()).Gc.live_words in
    if live > !peak then peak := live
  in
  let alarm = Gc.create_alarm sample in
  let result = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f in
  sample ();
  (result, !peak)

let run_arm ~scale ~repetitions catalog plan =
  let execute () =
    let meter = Cost.create ~scale () in
    match Executor.run catalog meter plan with
    | res -> (Cost.snapshot meter, Array.length res.Executor.tuples, false)
    | exception Executor.Guard_violation v ->
        (Cost.snapshot meter, Array.length v.Executor.result.Executor.tuples, true)
  in
  let (run, wall_s, alloc_bytes), peak_live_words =
    with_gc_peak (fun () ->
        let a0 = Gc.allocated_bytes () in
        let t0 = Sys.time () in
        let out = ref (execute ()) in
        for _ = 2 to repetitions do
          out := execute ()
        done;
        let wall = Sys.time () -. t0 in
        let allocated = Gc.allocated_bytes () -. a0 in
        let reps = float_of_int (max 1 repetitions) in
        (!out, wall /. reps, allocated /. reps))
  in
  let snapshot, rows, fired = run in
  {
    snapshot;
    rows;
    fired;
    wall_ms = wall_s *. 1000.0;
    allocated_mb = alloc_bytes /. (1024.0 *. 1024.0);
    peak_live_words;
  }

(* ------------------------------------------------------------------ *)
(* The bench                                                           *)
(* ------------------------------------------------------------------ *)

type comparison = {
  workload : workload;
  streaming : arm;
  full_drain : arm;       (* the same plan with its LIMIT and guards stripped *)
  pages_saved : int;      (* (seq + random) pages the full drain charged but
                             the plan did not *)
  counters_equal : bool;  (* every integer counter identical *)
  wl_ok : bool;
}

(* The early-exit baseline: the plan with its top LIMIT and every guard
   removed, so it runs to completion. *)
let full_drain_plan = function
  | Plan.Limit (input, _) -> Plan.strip_guards input
  | plan -> Plan.strip_guards plan

let total_pages (s : Cost.snapshot) = s.Cost.seq_pages + s.Cost.random_pages

let counters_equal (a : Cost.snapshot) (b : Cost.snapshot) =
  a.Cost.seq_pages = b.Cost.seq_pages
  && a.Cost.random_pages = b.Cost.random_pages
  && a.Cost.pages_skipped = b.Cost.pages_skipped
  && a.Cost.cpu_tuples = b.Cost.cpu_tuples
  && a.Cost.index_probes = b.Cost.index_probes
  && a.Cost.index_entries = b.Cost.index_entries
  && a.Cost.hash_build = b.Cost.hash_build
  && a.Cost.hash_probe = b.Cost.hash_probe
  && a.Cost.merge_tuples = b.Cost.merge_tuples
  && a.Cost.sort_tuples = b.Cost.sort_tuples
  && a.Cost.output_tuples = b.Cost.output_tuples

(* ------------------------------------------------------------------ *)
(* Morsel-parallel domains axis                                        *)
(* ------------------------------------------------------------------ *)

type parallel_arm = {
  p_domains : int;
  makespan_s : float;  (* deterministic simulated makespan on p_domains domains *)
  p_speedup : float;   (* makespan at 1 domain / makespan at p_domains *)
  p_wall_ms : float;   (* real wall time of the parallel run (informational) *)
}

type parallel_check = {
  p_name : string;
  morsels : int;
  identical : bool;  (* result tuples byte-identical and every cost counter
                        equal to the serial engine, at every point of the
                        axis *)
  recovered : bool;  (* guard workload: fired mid-scan under the morsel pool
                        and prefix + resume replayed to the full result *)
  arms : parallel_arm list;
  p_ok : bool;
}

type result = {
  config : config;
  comparisons : comparison list;
  parallel : parallel_check list;
  buffer_pool : Rq_storage.Buffer_pool.stats;
      (* global pool traffic over the whole bench (stats reset after the
         catalog is generated, so this is query-time behaviour) *)
  ok : bool;
}

let domains_axis domains = List.sort_uniq compare [ 1; 2; max 1 domains ]

(* One workload across the domains axis: every point must be byte-identical
   to the serial engine (results and counters); the simulated
   makespan of the morsel schedule gives the deterministic speedup. *)
let run_parallel_check ~scale ~axis ?(min_speedup = 0.0) ~exact catalog name plan =
  let serial_meter = Cost.create ~scale () in
  (* The serial result's tuples survive this binding only under [exact]:
     at bench scale the row set dies here and every arm compares against
     the multiset digest instead, so two results are never live at once. *)
  let serial_snap, serial_digest, serial_tuples =
    let res = Executor.run catalog serial_meter plan in
    ( Cost.snapshot serial_meter,
      Exp_common.result_digest res,
      if exact then Some res.Executor.tuples else None )
  in
  let morsels = ref 0 in
  let all_identical = ref true in
  let arms =
    List.map
      (fun d ->
        let par = Parallel.create ~domains:d () in
        let meter = Cost.create ~scale () in
        let t0 = Sys.time () in
        let res, report =
          Fun.protect
            ~finally:(fun () -> Parallel.shutdown par)
            (fun () -> Parallel.run_report par catalog meter plan)
        in
        let wall = Sys.time () -. t0 in
        let snap = Cost.snapshot meter in
        let rows_match =
          match serial_tuples with
          | Some tuples -> res.Executor.tuples = tuples
          | None ->
              Exp_common.digests_equal (Exp_common.result_digest res) serial_digest
        in
        if not (rows_match && Exp_common.snapshots_equal snap serial_snap) then
          all_identical := false;
        morsels := max !morsels report.Parallel.morsels;
        let base = Parallel.makespan ~domains:1 report in
        let mk = Parallel.makespan ~domains:d report in
        {
          p_domains = d;
          makespan_s = mk;
          p_speedup = base /. Float.max 1e-12 mk;
          p_wall_ms = wall *. 1000.0;
        })
      axis
  in
  let top_speedup =
    List.fold_left (fun acc a -> Float.max acc a.p_speedup) 0.0 arms
  in
  {
    p_name = name;
    morsels = !morsels;
    identical = !all_identical;
    recovered = true;
    arms;
    p_ok = !all_identical && top_speedup >= min_speedup;
  }

(* The mid-stream robustness bar under the morsel pool: a guard must fire
   mid-scan with a reusable prefix, and [Materialized prefix; resume] must
   replay to exactly the full unguarded result. *)
let run_guard_recovery ~scale ~domains ~exact catalog name plan =
  let full_meter = Cost.create ~scale () in
  let full_digest, full_tuples =
    let full = Executor.run catalog full_meter (Plan.strip_guards plan) in
    ( Exp_common.result_digest full,
      if exact then Some full.Executor.tuples else None )
  in
  let replay_matches (res : Executor.result) =
    match full_tuples with
    | Some tuples -> res.Executor.tuples = tuples
    | None -> Exp_common.digests_equal (Exp_common.result_digest res) full_digest
  in
  let par = Parallel.create ~domains () in
  let meter = Cost.create ~scale () in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Parallel.shutdown par)
      (fun () ->
        match Parallel.run par catalog meter plan with
        | _ -> None
        | exception Executor.Guard_violation v -> Some v)
  in
  let recovered =
    match outcome with
    | None -> false (* the bench guard is tuned to fire *)
    | Some v -> (
        let prefix =
          Plan.Materialized
            {
              name = "prefix";
              schema = v.Executor.result.Executor.schema;
              tuples = v.Executor.result.Executor.tuples;
              refs = [];
            }
        in
        match v.Executor.resume with
        | Some resume ->
            let replay_meter = Cost.create ~scale () in
            let replay = Executor.run catalog replay_meter (Plan.Append [ prefix; resume ]) in
            (not v.Executor.complete) && replay_matches replay
        | None -> v.Executor.complete && replay_matches v.Executor.result)
  in
  {
    p_name = name;
    morsels = 0;
    identical = true;
    recovered;
    arms = [];
    p_ok = recovered;
  }

let run_parallel_section config catalog ~scale =
  let axis = domains_axis config.domains in
  let join =
    Plan.Hash_join
      {
        build = scan "orders";
        probe = scan "lineitem";
        build_key = "orders.o_orderkey";
        probe_key = "lineitem.l_orderkey";
      }
  in
  let exact = config.exact_compare in
  [
    run_parallel_check ~scale ~axis ~min_speedup:config.min_scan_speedup ~exact catalog
      "scan-morsel" (scan "lineitem");
    run_parallel_check ~scale ~axis ~exact catalog "join-morsel" join;
    (* Chunk-aligned morsels + zone maps: skipped-page counters must land
       identically however morsels are scheduled. *)
    run_parallel_check ~scale ~axis ~exact catalog "scan-skip-morsel"
      (Plan.Scan
         { table = "lineitem"; access = Plan.Seq_scan; pred = zone_skip_pred catalog });
    run_guard_recovery ~scale ~domains:(max 1 config.domains) ~exact catalog
      "guard-recovery"
      (Plan.Guard
         {
           input = scan "lineitem";
           expected_rows = 8.0;
           max_q_error = 2.0;
           label = "parallel bench guard";
         });
  ]

let run ?(config = default_config) () =
  if config.buffer_pool_pages > 0 then
    Rq_storage.Buffer_pool.configure ~capacity_pages:config.buffer_pool_pages;
  let rng = Rq_math.Rng.create config.seed in
  let params = { Tpch.default_params with scale_factor = config.scale_factor } in
  let catalog = Tpch.generate rng ~params () in
  let scale = Tpch.cost_scale catalog in
  (* Pool traffic from generation and index builds is load noise; what the
     report cares about is the hit rate the bench queries see. *)
  Rq_storage.Buffer_pool.reset_stats Rq_storage.Buffer_pool.global;
  let lineitem_pages =
    Rq_storage.Relation.page_count (Rq_storage.Catalog.find_table catalog "lineitem")
  in
  let comparisons =
    List.map
      (fun workload ->
        let arm plan = run_arm ~scale ~repetitions:config.repetitions catalog plan in
        let streaming = arm workload.plan in
        let full_drain = arm (full_drain_plan workload.plan) in
        let pages_saved =
          total_pages full_drain.snapshot - total_pages streaming.snapshot
        in
        let counters_equal = counters_equal streaming.snapshot full_drain.snapshot in
        let wl_ok =
          if workload.zone_skip then
            counters_equal
            && streaming.rows = full_drain.rows
            && streaming.snapshot.Cost.pages_skipped > 0
            && streaming.snapshot.Cost.seq_pages + streaming.snapshot.Cost.pages_skipped
               = lineitem_pages
          else if workload.early_exit then pages_saved > 0
          else counters_equal && streaming.rows = full_drain.rows
        in
        { workload; streaming; full_drain; pages_saved; counters_equal; wl_ok })
      (workloads catalog)
  in
  let parallel = run_parallel_section config catalog ~scale in
  let buffer_pool = Rq_storage.Buffer_pool.global_stats () in
  (* The chunk path is the only road to data: a bench that reports no pool
     traffic is not measuring the storage layer it claims to. *)
  let pool_ok = buffer_pool.Rq_storage.Buffer_pool.hits + buffer_pool.Rq_storage.Buffer_pool.misses > 0 in
  {
    config;
    comparisons;
    parallel;
    buffer_pool;
    ok =
      List.for_all (fun c -> c.wl_ok) comparisons
      && List.for_all (fun p -> p.p_ok) parallel
      && pool_ok;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let arm_to_json (a : arm) =
  Rq_obs.Json.Obj
    [
      ("simulated_seconds", Rq_obs.Json.Num a.snapshot.Cost.seconds);
      ("seq_pages", Rq_obs.Json.Num (float_of_int a.snapshot.Cost.seq_pages));
      ("random_pages", Rq_obs.Json.Num (float_of_int a.snapshot.Cost.random_pages));
      ("pages_skipped", Rq_obs.Json.Num (float_of_int a.snapshot.Cost.pages_skipped));
      ("cpu_tuples", Rq_obs.Json.Num (float_of_int a.snapshot.Cost.cpu_tuples));
      ("rows", Rq_obs.Json.Num (float_of_int a.rows));
      ("guard_fired", Rq_obs.Json.Bool a.fired);
      ("wall_ms", Rq_obs.Json.Num a.wall_ms);
      ("allocated_mb", Rq_obs.Json.Num a.allocated_mb);
      ("peak_live_words", Rq_obs.Json.Num (float_of_int a.peak_live_words));
    ]

let to_json r =
  Rq_obs.Json.Obj
    [
      ("experiment", Rq_obs.Json.Str "bench-exec");
      ("seed", Rq_obs.Json.Num (float_of_int r.config.seed));
      ("scale_factor", Rq_obs.Json.Num r.config.scale_factor);
      ("repetitions", Rq_obs.Json.Num (float_of_int r.config.repetitions));
      ( "workloads",
        Rq_obs.Json.List
          (List.map
             (fun c ->
               Rq_obs.Json.Obj
                 [
                   ("name", Rq_obs.Json.Str c.workload.name);
                   ("plan", Rq_obs.Json.Str (Plan.describe c.workload.plan));
                   ("early_exit", Rq_obs.Json.Bool c.workload.early_exit);
                   ("streaming", arm_to_json c.streaming);
                   ("full_drain", arm_to_json c.full_drain);
                   ("pages_saved", Rq_obs.Json.Num (float_of_int c.pages_saved));
                   ("counters_equal", Rq_obs.Json.Bool c.counters_equal);
                   ("ok", Rq_obs.Json.Bool c.wl_ok);
                 ])
             r.comparisons) );
      ("domains", Rq_obs.Json.Num (float_of_int r.config.domains));
      ("min_scan_speedup", Rq_obs.Json.Num r.config.min_scan_speedup);
      ( "parallel",
        Rq_obs.Json.List
          (List.map
             (fun p ->
               Rq_obs.Json.Obj
                 [
                   ("name", Rq_obs.Json.Str p.p_name);
                   ("morsels", Rq_obs.Json.Num (float_of_int p.morsels));
                   ("identical", Rq_obs.Json.Bool p.identical);
                   ("recovered", Rq_obs.Json.Bool p.recovered);
                   ( "arms",
                     Rq_obs.Json.List
                       (List.map
                          (fun a ->
                            Rq_obs.Json.Obj
                              [
                                ("domains", Rq_obs.Json.Num (float_of_int a.p_domains));
                                ("makespan_seconds", Rq_obs.Json.Num a.makespan_s);
                                ("speedup", Rq_obs.Json.Num a.p_speedup);
                                ("wall_ms", Rq_obs.Json.Num a.p_wall_ms);
                              ])
                          p.arms) );
                   ("ok", Rq_obs.Json.Bool p.p_ok);
                 ])
             r.parallel) );
      ("buffer_pool_pages", Rq_obs.Json.Num (float_of_int r.config.buffer_pool_pages));
      ( "buffer_pool",
        (let s = r.buffer_pool in
         Rq_obs.Json.Obj
           [
             ("hits", Rq_obs.Json.Num (float_of_int s.Rq_storage.Buffer_pool.hits));
             ("misses", Rq_obs.Json.Num (float_of_int s.Rq_storage.Buffer_pool.misses));
             ("evictions", Rq_obs.Json.Num (float_of_int s.Rq_storage.Buffer_pool.evictions));
             ("hit_rate", Rq_obs.Json.Num (Rq_storage.Buffer_pool.hit_rate s));
             ( "capacity_chunks",
               Rq_obs.Json.Num (float_of_int s.Rq_storage.Buffer_pool.capacity_chunks) );
             ( "resident_chunks",
               Rq_obs.Json.Num (float_of_int s.Rq_storage.Buffer_pool.resident_chunks) );
           ]) );
      ("ok", Rq_obs.Json.Bool r.ok);
    ]

let render r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "bench-exec: plans vs. their full drains (scale %.3f, %d reps)\n"
    r.config.scale_factor r.config.repetitions;
  add "%-12s %-13s %10s %8s %8s %10s %12s\n" "workload" "arm" "sim_s" "pages"
    "rows" "wall_ms" "peak_words";
  List.iter
    (fun c ->
      let arm_row name (a : arm) =
        add "%-12s %-13s %10.4f %8d %8d %10.3f %12d\n" c.workload.name name
          a.snapshot.Cost.seconds (total_pages a.snapshot) a.rows a.wall_ms
          a.peak_live_words
      in
      arm_row "plan" c.streaming;
      arm_row "full-drain" c.full_drain;
      let verdict =
        if c.workload.zone_skip then
          if c.wl_ok then
            Printf.sprintf "zone maps skipped %d pages (read %d, zero charge on skips)"
              c.streaming.snapshot.Cost.pages_skipped
              c.streaming.snapshot.Cost.seq_pages
          else "ZONE MAPS SKIPPED NOTHING (or page accounting broke)"
        else if c.workload.early_exit then
          Printf.sprintf "%d pages saved%s" c.pages_saved
            (if c.streaming.fired then " (guard fired mid-stream)" else "")
        else if c.counters_equal then "all counters identical"
        else "COUNTER MISMATCH"
      in
      add "%-12s   -> %s%s\n" "" verdict (if c.wl_ok then "" else "  [FAIL]"))
    r.comparisons;
  add "morsel-parallel (domains axis, simulated makespan):\n";
  add "%-16s %8s %8s %12s %10s %10s\n" "workload" "domains" "morsels" "makespan_s"
    "speedup" "wall_ms";
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          add "%-16s %8d %8d %12.4f %9.2fx %10.3f\n" p.p_name a.p_domains p.morsels
            a.makespan_s a.p_speedup a.p_wall_ms)
        p.arms;
      let verdict =
        if p.arms = [] then
          if p.recovered then "guard fired mid-scan; prefix + resume replayed exactly"
          else "GUARD DID NOT RECOVER"
        else if p.identical then "results and counters identical to serial"
        else "PARALLEL RESULT MISMATCH"
      in
      add "%-16s   -> %s%s\n" p.p_name verdict (if p.p_ok then "" else "  [FAIL]"))
    r.parallel;
  let s = r.buffer_pool in
  add
    "buffer pool: %d hits / %d misses (hit rate %.3f), %d evictions, %d/%d chunks \
     resident\n"
    s.Rq_storage.Buffer_pool.hits s.Rq_storage.Buffer_pool.misses
    (Rq_storage.Buffer_pool.hit_rate s) s.Rq_storage.Buffer_pool.evictions
    s.Rq_storage.Buffer_pool.resident_chunks s.Rq_storage.Buffer_pool.capacity_chunks;
  add "bench-exec: %s\n" (if r.ok then "ok" else "FAILED");
  Buffer.contents b
