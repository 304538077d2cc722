(* One pass over an op stream through the same pipeline as [robustopt run]:
   SQL text -> Binder.compile -> Fingerprint -> Plan_cache.find_or_optimize
   -> Executor.run (or Parallel.run) -> drained result.

   Closed loop, one client, no think time.  With a tracer, every layer call
   is wrapped in a span from out here; nothing inside the libraries is
   instrumented.  The traced pass differs from the untraced one only in the
   spans and in calling [Rewrite.rewrite] itself (so rewrite time is its
   own span) before handing the rewritten query to the cache, whose own
   rewrite pass then merely confirms the fixpoint. *)

open Rq_optimizer
open Rq_exec

(* Counters that depend only on the seed and the code, never on timing:
   equal across hosts, across traced and untraced passes, and across
   commits that do not change plans or execution. *)
type det = {
  mutable queries : int;
  mutable hits : int;
  mutable sim_s : float;
  mutable seq_pages : int;
  mutable random_pages : int;
  mutable pages_skipped : int;
  mutable cpu_tuples : int;
  mutable rows_out : int;
  mutable plans : string;  (* running MD5 over the chosen plans *)
}

let det_create () =
  { queries = 0; hits = 0; sim_s = 0.0; seq_pages = 0; random_pages = 0; pages_skipped = 0;
    cpu_tuples = 0; rows_out = 0; plans = "" }

let det_add d ~plan ~hit (snap : Cost.snapshot) ~rows =
  d.queries <- d.queries + 1;
  if hit then d.hits <- d.hits + 1;
  d.sim_s <- d.sim_s +. snap.Cost.seconds;
  d.seq_pages <- d.seq_pages + snap.Cost.seq_pages;
  d.random_pages <- d.random_pages + snap.Cost.random_pages;
  d.pages_skipped <- d.pages_skipped + snap.Cost.pages_skipped;
  d.cpu_tuples <- d.cpu_tuples + snap.Cost.cpu_tuples;
  d.rows_out <- d.rows_out + rows;
  d.plans <- Digest.string (d.plans ^ Rq_experiments.Exp_common.plan_digest plan)

let det_to_json d =
  let int n = Rq_obs.Json.Num (float_of_int n) in
  Rq_obs.Json.Obj
    [
      ("queries", int d.queries);
      ("cache_hits", int d.hits);
      ("sim_s", Rq_obs.Json.Num d.sim_s);
      ("seq_pages", int d.seq_pages);
      ("random_pages", int d.random_pages);
      ("pages_skipped", int d.pages_skipped);
      ("cpu_tuples", int d.cpu_tuples);
      ("rows_out", int d.rows_out);
      ("plans_md5", Rq_obs.Json.Str (Digest.to_hex d.plans));
    ]

type lane_state = {
  lane : Workload.lane;
  mutable opt : Optimizer.t option;
  mutable version : int;  (* statistics version [opt] was built for *)
}

type probe = { mutable calls : int; mutable ns : int }

type ctx = {
  spec : Workload.spec;
  lanes : lane_state array;
  cache : Plan_cache.t;
  par : Parallel.t option;
  tr : Spans.t option;
  probe : probe;  (* estimator calls of the current optimization *)
}

let confidence = Rq_core.Confidence.of_percent 80.0

let create_ctx ?tr spec (world : Workload.world) par =
  {
    spec;
    lanes = Array.map (fun lane -> { lane; opt = None; version = -1 }) world.Workload.lanes;
    cache = Plan_cache.create ~capacity:spec.Workload.cache_capacity ();
    par;
    tr;
    probe = { calls = 0; ns = 0 };
  }

(* The estimator's three closures, timed: one aggregated span per
   optimization instead of one span per call (a miss makes tens of calls). *)
let timed_estimator probe (c : Cardinality.t) =
  let time f =
    let t0 = Spans.now () in
    let finish () =
      probe.calls <- probe.calls + 1;
      probe.ns <- probe.ns + (Spans.now () - t0)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  in
  {
    c with
    Cardinality.expression_cardinality =
      (fun refs -> time (fun () -> c.Cardinality.expression_cardinality refs));
    table_selectivity = (fun ~table p -> time (fun () -> c.Cardinality.table_selectivity ~table p));
    group_count = (fun refs cols -> time (fun () -> c.Cardinality.group_count refs cols));
  }

(* One optimizer per statistics version, not one per query. *)
let optimizer ctx ls =
  let stats = Rq_stats.Maintenance.stats ls.lane.Workload.maintenance in
  let version = Rq_stats.Stats_store.version stats in
  match ls.opt with
  | Some o when ls.version = version -> o
  | _ ->
      let est =
        Cardinality.robust stats (Rq_core.Robust_estimator.create ~confidence ())
      in
      let est = match ctx.tr with None -> est | Some _ -> timed_estimator ctx.probe est in
      let o = Optimizer.create ~scale:ls.lane.Workload.scale stats est in
      ls.opt <- Some o;
      ls.version <- version;
      o

let kernel_totals stats =
  List.fold_left
    (fun acc root ->
      match Rq_stats.Stats_store.synopsis stats ~root with
      | None -> acc
      | Some syn -> Rq_obs.Metrics.kernel_add acc (Rq_stats.Join_synopsis.kernel_stats syn))
    Rq_obs.Metrics.kernel_zero
    (Rq_stats.Stats_store.synopsis_roots stats)

let num n = float_of_int n

type answer = {
  plan : Plan.t;
  hit : bool;
  snapshot : Cost.snapshot;
  result : Executor.result;
}

let query ctx ~step ~lane sql =
  let tr = ctx.tr in
  let ls = ctx.lanes.(lane) in
  let catalog = ls.lane.Workload.catalog in
  let bound =
    match Spans.within tr ~step "sql.compile" (fun _ -> Rq_sql.Binder.compile catalog sql) with
    | Ok b -> b
    | Error msg -> failwith ("SQL error: " ^ msg)
  in
  let opt = optimizer ctx ls in
  let fingerprint =
    Spans.within tr ~step "fingerprint" (fun _ ->
        Rq_sql.Fingerprint.to_key
          (Rq_sql.Fingerprint.of_logical
             ~estimator:(Optimizer.estimator opt).Cardinality.name ~confidence
             bound.Rq_sql.Binder.query))
  in
  let query =
    match tr with
    | None -> bound.Rq_sql.Binder.query
    | Some _ ->
        Spans.within tr ~step "rewrite" (fun s ->
            let q, report = Rewrite.rewrite catalog bound.Rq_sql.Binder.query in
            Spans.set_attrs s
              [ ("applications", num (List.fold_left (fun a (_, n) -> a + n) 0 report.Rewrite.applied)) ];
            q)
  in
  let decision, outcome =
    Spans.within tr ~step "optimize" (fun s ->
        let stats = Optimizer.stats opt in
        let k0 = Option.map (fun _ -> kernel_totals stats) s in
        ctx.probe.calls <- 0;
        ctx.probe.ns <- 0;
        match Plan_cache.find_or_optimize ctx.cache opt ~fingerprint query with
        | Error msg -> failwith ("optimizer: " ^ msg)
        | Ok (decision, outcome) ->
            (match (tr, s, k0) with
            | Some t, Some span, Some k0 ->
                (* Self time: a hit's lookup, or on the miss path the
                   enumeration left after subtracting estimator time. *)
                Spans.rename s (if outcome = Plan_cache.Hit then "plan_cache.hit" else "enumerate");
                if ctx.probe.calls > 0 then
                  Spans.aggregate t ~parent:span "cardinality" ~dur_ns:ctx.probe.ns
                    [ ("calls", num ctx.probe.calls) ];
                let k1 = kernel_totals stats in
                Spans.set_attrs s
                  [
                    ("bitmaps_built", num (k1.Rq_obs.Metrics.bitmaps_built - k0.Rq_obs.Metrics.bitmaps_built));
                    ("bitmap_hits", num (k1.Rq_obs.Metrics.bitmap_hits - k0.Rq_obs.Metrics.bitmap_hits));
                    ("rows_scanned", num (k1.Rq_obs.Metrics.rows_scanned - k0.Rq_obs.Metrics.rows_scanned));
                  ]
            | _ -> ());
            (decision, outcome))
  in
  let plan = decision.Optimizer.plan in
  let meter = Cost.create ~scale:ls.lane.Workload.scale () in
  let result =
    Spans.within tr ~step "exec" (fun s ->
        let before = Option.map (fun _ -> (Rq_storage.Buffer_pool.global_stats (), Gc.allocated_bytes ())) s in
        let result, morsels, serial_s =
          match ctx.par with
          | None -> (Executor.run catalog meter plan, 0, None)
          | Some p ->
              let r, rep = Parallel.run_report p catalog meter plan in
              (r, rep.Parallel.morsels, Some rep.Parallel.serial_seconds)
        in
        Option.iter
          (fun ((p0 : Rq_storage.Buffer_pool.stats), alloc0) ->
            let p1 = Rq_storage.Buffer_pool.global_stats () in
            let snap = Cost.snapshot meter in
            Spans.set_attrs s
              [
                ("alloc_bytes", Gc.allocated_bytes () -. alloc0);
                ("rows_out", num (Array.length result.Executor.tuples));
                ("seq_pages", num snap.Cost.seq_pages);
                ("random_pages", num snap.Cost.random_pages);
                ("pages_skipped", num snap.Cost.pages_skipped);
                ("cpu_tuples", num snap.Cost.cpu_tuples);
                ("sim_s", snap.Cost.seconds);
                ("serial_sim_s", Option.value serial_s ~default:snap.Cost.seconds);
                ("morsels", num morsels);
                ("pool_hits", num (p1.hits - p0.hits));
                ("pool_misses", num (p1.misses - p0.misses));
                ("pool_evictions", num (p1.evictions - p0.evictions));
              ])
          before;
        result)
  in
  { plan; hit = outcome = Plan_cache.Hit; snapshot = Cost.snapshot meter; result }

let update ctx ~step ~positions ~partkeys =
  let lane = ctx.lanes.(0).lane in
  Spans.within ctx.tr ~step "stats.update" (fun _ ->
      Workload.apply_update lane ~positions ~partkeys);
  Spans.within ctx.tr ~step "stats.refresh" (fun s ->
      let refreshed = Rq_stats.Maintenance.maybe_refresh lane.Workload.maintenance in
      Spans.set_attrs s [ ("refreshed", if refreshed then 1.0 else 0.0) ];
      refreshed)

(* ------------------------------------------------------------------ *)
(* A pass                                                              *)
(* ------------------------------------------------------------------ *)

type pass = {
  mutable steps : int;              (* ops attempted *)
  mutable failed : int;
  mutable timings : (bool * int) list;
      (* every op's duration, newest first, flagged when a query succeeded *)
  mutable update_ns : int list;
  mutable refreshes : int;
  mutable window_top_heap_words : int;  (* heap high-water mark when the window ended *)
  mutable bookkeeping_bytes : float;  (* allocated by this module, not the pipeline *)
  window : det;                     (* over the first [spec.window] ops *)
  all : det;                        (* over every op, when asked *)
  results : (int, Executor.result) Hashtbl.t;  (* sampled steps only *)
}

(* [limit]: run exactly that many ops (the traced replay of an untraced
   pass); otherwise run until [seconds] have passed and at least the
   window is done. *)
let run_pass ?limit ?(det_all = false) ?(log = prerr_string) ctx (world : Workload.world)
    ~seconds ~sampled =
  let p =
    { steps = 0; failed = 0; timings = []; update_ns = []; refreshes = 0; window_top_heap_words = 0;
      bookkeeping_bytes = 0.0; window = det_create (); all = det_create ();
      results = Hashtbl.create 256 }
  in
  let ops = world.Workload.ops in
  let n = Array.length ops in
  let deadline = Spans.now () + int_of_float (seconds *. 1e9) in
  let continue i =
    i < n
    &&
    match limit with
    | Some l -> i < l
    | None -> i < ctx.spec.Workload.window || Spans.now () < deadline
  in
  while continue p.steps do
    let step = p.steps in
    let op = ops.(step) in
    let t0 = Spans.now () in
    let outcome =
      try
        Ok
          (Spans.within ctx.tr ~step
             (match op with Workload.Query _ -> "query" | Workload.Update _ -> "update")
             (fun _ ->
               match op with
               | Workload.Query q -> `Query (query ctx ~step ~lane:q.lane q.sql)
               | Workload.Update u ->
                   `Update (update ctx ~step ~positions:u.positions ~partkeys:u.partkeys)))
      with e -> Error e
    in
    let ns = Spans.now () - t0 in
    let a0 = Gc.allocated_bytes () in
    p.steps <- step + 1;
    p.timings <- ((match outcome with Ok (`Query _) -> true | _ -> false), ns) :: p.timings;
    (match outcome with
    | Ok (`Query a) ->
        let rows = Array.length a.result.Executor.tuples in
        if step < ctx.spec.Workload.window then det_add p.window ~plan:a.plan ~hit:a.hit a.snapshot ~rows;
        if det_all then det_add p.all ~plan:a.plan ~hit:a.hit a.snapshot ~rows;
        if Hashtbl.mem sampled step then Hashtbl.replace p.results step a.result
    | Ok (`Update refreshed) ->
        p.update_ns <- ns :: p.update_ns;
        if refreshed then p.refreshes <- p.refreshes + 1
    | Error e ->
        p.failed <- p.failed + 1;
        let what =
          match op with Workload.Query q -> q.sql | Workload.Update _ -> "update batch"
        in
        log (Printf.sprintf "step %d failed: %s\n  %s\n" step (Printexc.to_string e) what));
    if p.steps = ctx.spec.Workload.window then
      p.window_top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
    p.bookkeeping_bytes <- p.bookkeeping_bytes +. (Gc.allocated_bytes () -. a0)
  done;
  p

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

(* A seeded sample of the window's query steps, the same number from each
   template family, so every family is checked. *)
let sample_steps (spec : Workload.spec) ~seed ops =
  let by_family = Hashtbl.create 8 in
  Array.iteri
    (fun i op ->
      if i < spec.Workload.window then
        Option.iter
          (fun f ->
            Hashtbl.replace by_family f
              (i :: Option.value (Hashtbl.find_opt by_family f) ~default:[]))
          (Workload.family op))
    ops;
  let families = List.sort compare (Hashtbl.fold (fun f _ acc -> f :: acc) by_family []) in
  let quota = (spec.Workload.checks + List.length families - 1) / max 1 (List.length families) in
  let rng = Rq_math.Rng.create (seed + 0x5a3) in
  let sampled = Hashtbl.create 256 in
  List.iter
    (fun f ->
      let steps = Array.of_list (List.rev (Hashtbl.find by_family f)) in
      Rq_math.Rng.shuffle_in_place rng steps;
      Array.iteri (fun i s -> if i < quota then Hashtbl.replace sampled s ()) steps)
    families;
  sampled

(* The oracle needs the residual-free, semijoin-free shape the templates
   are written in; anything else is a benchmark bug, not an engine one. *)
let matches_naive catalog sql actual =
  match Rq_sql.Binder.compile catalog sql with
  | Error msg -> failwith ("check: " ^ msg)
  | Ok b -> (
      let q = b.Rq_sql.Binder.query in
      match (q.Logical.residual, q.Logical.semijoins) with
      | Pred.True, [] ->
          Rq_experiments.Exp_common.results_equal actual (Naive.evaluate_query catalog q)
      | _ -> failwith ("check: template outside the oracle's query class: " ^ sql))

(* Returns (checked, mismatches).  For a workload with writes, a world
   rebuilt from the seed with the updates replayed gives each check the
   data version its step saw. *)
let check (spec : Workload.spec) ~seed ~seconds (world : Workload.world) pass =
  let steps = List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) pass.results []) in
  let catalogs =
    if spec.Workload.update_every = 0 then world.Workload.lanes
    else (Workload.build spec ~seed ~seconds).Workload.lanes
  in
  let last = List.fold_left max (-1) steps in
  let mismatches = ref 0 in
  for step = 0 to last do
    match world.Workload.ops.(step) with
    | Workload.Update u when spec.Workload.update_every > 0 ->
        Workload.apply_update catalogs.(0) ~positions:u.positions ~partkeys:u.partkeys
    | Workload.Update _ -> ()
    | Workload.Query q -> (
        match Hashtbl.find_opt pass.results step with
        | None -> ()
        | Some actual ->
            if not (matches_naive catalogs.(q.lane).Workload.catalog q.sql actual) then begin
              incr mismatches;
              Printf.eprintf "step %d: result differs from the Naive oracle\n  %s\n%!" step q.sql
            end)
  done;
  (List.length steps, !mismatches)
