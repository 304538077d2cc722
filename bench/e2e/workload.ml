(* The four workloads: their sizes, the world each one builds from a seed,
   and the op stream (SQL text and update batches) generated before timing.

   Every random choice flows from [--seed] through explicitly split
   generators, so a world rebuilt from the same seed holds the same rows
   and statistics: that is what lets the correctness check replay updates. *)

open Rq_storage

type kind = Lookup | Dashboard | Analytic

type spec = {
  name : string;
  kind : kind;
  tpch_sf : float;       (* TPC-H-lite scale factor of the tpch lane *)
  star_facts : int;      (* fact rows of the star lane; 0 = no star lane *)
  spill : bool;          (* store lineitem in a spill file *)
  pool_pages : int option;
      (* buffer-pool capacity; [None] = the pool's default *)
  domains : int;         (* 0 = serial streaming engine, else Parallel.run *)
  cache_capacity : int;  (* plan-cache entries *)
  window : int;
      (* ops every run executes however slow the host: the deterministic
         metrics, the correctness sample and the peak heap are taken over
         them; long enough for the caches to fill and the heap to level *)
  checks : int;          (* query steps of the window verified against Naive *)
  slice_ops : int;
      (* consecutive ops per slice: qps and latency percentiles are medians
         over slices, so a burst of load from outside hits few of them *)
  update_every : int;    (* queries between update batches; 0 = read-only *)
  max_rate : int;
      (* ops generated per timed second, about four times the rate measured
         at the commit that introduced the benchmark; a faster program only
         ends its run early *)
}

let specs =
  [
    (* Optimizer-bound: fresh literals make every plan-cache lookup miss, and
       the small SF keeps execution cheap next to estimation. *)
    { name = "lookup-adhoc"; kind = Lookup; tpch_sf = 0.01; star_facts = 0; spill = false;
      pool_pages = None; domains = 0; cache_capacity = 256; window = 4000; checks = 240;
      slice_ops = 500; update_every = 0; max_rate = 4_000 };
    (* The same cache used for hits and invalidations, writes beside reads,
       and execution on the row-adapter operators (index scans, star
       semijoin). *)
    { name = "dashboard-refresh"; kind = Dashboard; tpch_sf = 0.01; star_facts = 20_000;
      spill = false; pool_pages = None; domains = 0; cache_capacity = 64; window = 1500;
      checks = 240; slice_ops = 251; update_every = 250; max_rate = 1_500 };
    (* Larger than the buffer pool: lineitem (706 pages) lives in a spill
       file behind a 128-page pool, so storage and execution carry the
       load. *)
    { name = "analytic-spill"; kind = Analytic; tpch_sf = 0.02; star_facts = 0; spill = true;
      pool_pages = Some 128; domains = 0; cache_capacity = 256; window = 200; checks = 12;
      slice_ops = 100; update_every = 0; max_rate = 250 };
    (* The morsel engine and its materialized residual on a fixed 2-domain
       pool, with data that fits the default pool (heap store). *)
    { name = "analytic-parallel"; kind = Analytic; tpch_sf = 0.02; star_facts = 0;
      spill = false; pool_pages = None; domains = 2; cache_capacity = 256; window = 200;
      checks = 12; slice_ops = 100; update_every = 0; max_rate = 250 };
  ]

let names = List.map (fun s -> s.name) specs
let find name = List.find_opt (fun s -> String.equal s.name name) specs

(* Reduced sizes for the smoke test: same code paths, a few seconds in all. *)
let smoke s =
  let pool_pages = Option.map (fun _ -> 32) s.pool_pages in
  match s.kind with
  | Lookup -> { s with tpch_sf = 0.002; window = 100; checks = 25; slice_ops = 25 }
  | Dashboard ->
      { s with tpch_sf = 0.002; star_facts = 2_000; window = 120; checks = 30; slice_ops = 21;
               update_every = 20 }
  | Analytic -> { s with tpch_sf = 0.003; pool_pages; window = 12; checks = 12; slice_ops = 6 }

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Query of { lane : int; family : string; sql : string }
  | Update of { positions : int array; partkeys : int array }
      (* lineitem rows whose l_partkey moves, and the new keys *)

let family = function Query q -> Some q.family | Update _ -> None

let date_string day = Value.to_string (Value.Date day)

let day_of ~year ~month ~day =
  match Value.date_of_ymd ~year ~month ~day with Value.Date d -> d | _ -> assert false

let first_day = day_of ~year:1992 ~month:1 ~day:1
let last_ship_day = day_of ~year:1998 ~month:4 ~day:1

let exp1_sql ~w0 ~w1 ~offset =
  Printf.sprintf
    "SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN '%s' AND \
     '%s' AND l_receiptdate BETWEEN '%s' + %d AND '%s' + %d"
    (date_string w0) (date_string w1) (date_string w0) offset (date_string w1) offset

let exp2_sql bucket =
  Printf.sprintf
    "SELECT SUM(l_extendedprice) AS revenue FROM lineitem, orders, part WHERE p_bucket = %d"
    bucket

let star_sql v =
  Printf.sprintf
    "SELECT SUM(f_m1) AS total_m1, AVG(f_m2) AS avg_m2, COUNT(*) AS n FROM fact, dim1, dim2, \
     dim3 WHERE dim1.d_filter = %d AND dim2.d_filter = %d AND dim3.d_filter = %d"
    v v v

let row_count catalog table = Relation.row_count (Catalog.find_table catalog table)

(* Templates are dealt in shuffled rounds holding each template once, so
   every prefix of the stream has the same template mix on every seed. *)
let dealt rng n_templates n make =
  let round = Array.init n_templates Fun.id in
  Array.init n (fun i ->
      if i mod n_templates = 0 then Rq_math.Rng.shuffle_in_place rng round;
      make round.(i mod n_templates))

(* A fresh key per use: a seeded permutation of the key space, restarted
   only after every key has been used once. *)
let fresh_keys rng bound =
  let perm = Array.init bound Fun.id in
  Rq_math.Rng.shuffle_in_place rng perm;
  let next = ref 0 in
  fun () ->
    let k = perm.(!next mod bound) in
    incr next;
    k

let lookup_ops rng catalog n =
  let order_key = fresh_keys rng (row_count catalog "orders") in
  let line_order = fresh_keys rng (row_count catalog "orders") in
  let join_order = fresh_keys rng (row_count catalog "orders") in
  let part_key = fresh_keys rng (row_count catalog "part") in
  let q family sql = Query { lane = 0; family; sql } in
  dealt rng 5 n (function
    | 0 ->
        q "lineitem-by-order"
          (Printf.sprintf
             "SELECT l_rowid, l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey = %d"
             (line_order ()))
    | 1 ->
        q "order-by-key"
          (Printf.sprintf
             "SELECT o_orderkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = %d"
             (order_key ()))
    | 2 ->
        q "lineitem-by-part"
          (Printf.sprintf "SELECT l_rowid, l_orderkey FROM lineitem WHERE l_partkey = %d"
             (part_key ()))
    | 3 ->
        q "one-order-join"
          (Printf.sprintf
             "SELECT l_rowid, l_extendedprice, o_orderdate FROM lineitem, orders WHERE \
              o_orderkey = %d"
             (join_order ()))
    | _ ->
        let w0 = first_day + Rq_math.Rng.int rng (last_ship_day - first_day) in
        q "exp1-2day" (exp1_sql ~w0 ~w1:(w0 + 1) ~offset:(Rq_math.Rng.int rng 61)))

(* The 18 recurring queries of the throughput bench's pool, as SQL, in
   the same order (join-heavy first, where the skew lands). *)
let dashboard_pool =
  let w0 = day_of ~year:1997 ~month:7 ~day:1 and w1 = day_of ~year:1997 ~month:7 ~day:30 in
  Array.concat
    [
      Array.init 8 (fun v -> (1, "star", star_sql v));
      Array.map (fun b -> (0, "exp2", exp2_sql b)) [| 0; 250; 500; 750; 999 |];
      Array.map (fun o -> (0, "exp1", exp1_sql ~w0 ~w1 ~offset:o)) [| 30; 45; 60; 75; 90 |];
    ]

let update_fraction = 0.05

let dashboard_ops spec rng catalog n =
  let lineitems = row_count catalog "lineitem" and parts = row_count catalog "part" in
  let moved = max 1 (int_of_float (update_fraction *. float_of_int lineitems)) in
  let pool = Array.length dashboard_pool in
  let since_update = ref 0 in
  Array.init n (fun _ ->
      if !since_update = spec.update_every then begin
        since_update := 0;
        let positions = Rq_math.Rng.sample_without_replacement rng moved lineitems in
        Update { positions; partkeys = Array.map (fun _ -> Rq_math.Rng.int rng parts) positions }
      end
      else begin
        incr since_update;
        (* Min of two uniform draws: skewed toward the head of the pool. *)
        let i = min (Rq_math.Rng.int rng pool) (Rq_math.Rng.int rng pool) in
        let lane, family, sql = dashboard_pool.(i) in
        Query { lane; family; sql }
      end)

let analytic_ops rng catalog n =
  let orders = row_count catalog "orders" in
  let band = max 1 (orders / 50) in
  let q family sql = Query { lane = 0; family; sql } in
  dealt rng 6 n (function
    | 0 ->
        q "full-aggregate"
          (Printf.sprintf
             "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS revenue, AVG(l_quantity) AS avg_qty \
              FROM lineitem WHERE l_quantity <= %d"
             (10 + Rq_math.Rng.int rng 36))
    | 1 -> q "exp2-hot" (exp2_sql (900 + Rq_math.Rng.int rng 100))
    | 2 ->
        q "brand-groups"
          (Printf.sprintf
             "SELECT p_brand, COUNT(*) AS n, SUM(l_extendedprice) AS revenue FROM lineitem, part \
              WHERE p_size <= %d GROUP BY p_brand"
             (5 + Rq_math.Rng.int rng 46))
    | 3 ->
        let k = Rq_math.Rng.int rng (orders - band) in
        q "orderkey-band"
          (Printf.sprintf
             "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem WHERE l_orderkey \
              BETWEEN %d AND %d"
             k (k + band))
    | 4 ->
        let d0 = first_day + Rq_math.Rng.int rng (last_ship_day - first_day) in
        q "orders-date-range"
          (Printf.sprintf
             "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS revenue FROM lineitem, orders WHERE \
              o_orderdate BETWEEN '%s' AND '%s'"
             (date_string d0) (date_string (d0 + 30)))
    | _ ->
        let w0 = day_of ~year:1997 ~month:7 ~day:1 in
        q "exp1" (exp1_sql ~w0 ~w1:(w0 + 29) ~offset:(30 + Rq_math.Rng.int rng 61)))

(* ------------------------------------------------------------------ *)
(* Worlds                                                              *)
(* ------------------------------------------------------------------ *)

type lane = {
  catalog : Catalog.t;
  scale : float;  (* cost-meter scale: simulated seconds at the paper's size *)
  maintenance : Rq_stats.Maintenance.t;  (* owns the lane's statistics *)
}

type world = { lanes : lane array; ops : op array; stats_ms : float list }

let data_pages world =
  Array.fold_left
    (fun acc lane ->
      List.fold_left
        (fun acc t -> acc + Relation.page_count (Catalog.find_table lane.catalog t))
        acc (Catalog.table_names lane.catalog))
    0 world.lanes

(* Move lineitem into a spill file: the generator spills only past 1M
   rows, and the spill workload wants a larger-than-pool table at a size
   whose queries finish in tens of milliseconds. *)
let spill_lineitem catalog =
  let rel = Catalog.find_table catalog "lineitem" in
  let b =
    Relation.Builder.create ~spill:true ~name:"lineitem" ~schema:(Relation.schema rel) ()
  in
  Relation.iter (fun _ tup -> Relation.Builder.add_row b tup) rel;
  Catalog.replace_table catalog (Relation.Builder.finish b)

(* The pool's capacity before any workload resized it. *)
let default_pool_pages =
  (Buffer_pool.global_stats ()).Buffer_pool.capacity_chunks * Page.pages_per_chunk

(* [seconds] sizes the op stream. *)
let build spec ~seed ~seconds =
  Buffer_pool.configure
    ~capacity_pages:(Option.value spec.pool_pages ~default:default_pool_pages);
  let rng = Rq_math.Rng.create seed in
  let data_rng = Rq_math.Rng.split rng in
  let stats_rng = Rq_math.Rng.split rng in
  let ops_rng = Rq_math.Rng.split rng in
  let tpch =
    Rq_workload.Tpch.generate (Rq_math.Rng.split data_rng)
      ~params:{ Rq_workload.Tpch.default_params with scale_factor = spec.tpch_sf }
      ()
  in
  if spec.spill then spill_lineitem tpch;
  let catalogs =
    (tpch, Rq_workload.Tpch.cost_scale tpch)
    ::
    (if spec.star_facts > 0 then
       let star =
         Rq_workload.Star.generate (Rq_math.Rng.split data_rng)
           ~params:{ Rq_workload.Star.default_params with fact_rows = spec.star_facts }
           ()
       in
       [ (star, Rq_workload.Star.cost_scale star) ]
     else [])
  in
  let stats_ms = ref [] in
  let lanes =
    Array.of_list
      (List.map
         (fun (catalog, scale) ->
           let t0 = Spans.now () in
           let maintenance = Rq_stats.Maintenance.create (Rq_math.Rng.split stats_rng) catalog in
           stats_ms := (float_of_int (Spans.now () - t0) /. 1e6) :: !stats_ms;
           { catalog; scale; maintenance })
         catalogs)
  in
  let n = max spec.window (int_of_float (seconds *. float_of_int spec.max_rate)) in
  let ops =
    match spec.kind with
    | Lookup -> lookup_ops ops_rng tpch n
    | Dashboard -> dashboard_ops spec ops_rng tpch n
    | Analytic -> analytic_ops ops_rng tpch n
  in
  { lanes; ops; stats_ms = List.rev !stats_ms }

(* One update batch: the given lineitem rows get new l_partkey values.
   Updated rows are fresh arrays in a fresh array, because [apply_update]
   counts a row as modified when it is physically a new tuple. *)
let apply_update lane ~positions ~partkeys =
  let schema = Relation.schema (Catalog.find_table lane.catalog "lineitem") in
  let col = Schema.index_of schema "l_partkey" in
  Rq_stats.Maintenance.apply_update lane.maintenance ~table:"lineitem" (fun rows ->
      let rows = Array.copy rows in
      Array.iteri
        (fun i pos ->
          let row = Array.copy rows.(pos) in
          row.(col) <- Value.Int partkeys.(i);
          rows.(pos) <- row)
        positions;
      rows)
