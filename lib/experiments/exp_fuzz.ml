(* Feedback-guided differential fuzzer.

   An evolutionary loop over (data-state mutation, stats-fault profile,
   SQL query) triples.  Each case's query is an Ast.statement, stored as
   SQL text and bound by the binder into the logical query that
   Differential.check takes; the check holds every differential pass and
   takes Naive as the reference answer.  The case's faults damage the
   statistics its degraded pass plans over, and the rewritten plans also
   run on a 2-domain morsel pool.
   Whatever the estimates, the answers must agree with Naive and the
   counters must add up.

   Coverage is YBFuzz-style Query Plan Guidance: a mutant is kept only if
   it exhibits an unseen (structural plan fingerprint x degradation-tier
   transition digest) pair.  Parents are drawn by AFL-style energy (the
   rarer their fingerprint and digest in the corpus, the likelier), and
   each child comes from one operator of a fixed mix: splice a fresh query
   into the parent's state, change its statistics faults, or change its
   data state.  Any divergence is delta-debugged down to a minimal case
   and serialized as a replayable .fuzz-repro file carrying the exact
   seed. *)

open Rq_storage
open Rq_exec
open Rq_sql
open Rq_workload
module Rng = Rq_math.Rng
module Json = Rq_obs.Json
module Stats_store = Rq_stats.Stats_store
module Fault = Rq_stats.Fault

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)
(* ------------------------------------------------------------------ *)

type workload = Tpch | Star

type case = {
  workload : workload;
  catalog_seed : int;
  mutations : Mutate.t list;
  faults : Fault.injection list;
  query : Ast.statement;
  pool_pages : int option;
      (* buffer-pool-capacity gene: cap the global pool (in 8 KiB pages)
         while the case's passes run.  Eviction pressure must never change
         answers — a tiny pool only re-faults chunks. *)
}

let workload_to_string = function Tpch -> "tpch" | Star -> "star"

let workload_of_string = function
  | "tpch" -> Ok Tpch
  | "star" -> Ok Star
  | s -> Error (Printf.sprintf "unknown workload %S" s)

(* ------------------------------------------------------------------ *)
(* Workload specs: the predicate/table space of every generated query   *)
(* ------------------------------------------------------------------ *)

type atom_pool = { p_column : string; p_cmps : Ast.cmp array; p_draw : Rng.t -> Ast.expr }

type table_spec = { t_name : string; t_pools : atom_pool array }

type spec = {
  s_root : table_spec;
  s_satellites : table_spec array;
  s_group : Ast.column;
  s_agg : Ast.column;         (* SUM target *)
  s_projection : Ast.column list;
  s_order : Ast.column;       (* projection sort column; in s_projection *)
  s_semis : (string * Ast.column * string) array;
      (* (inner table, outer key, inner key) FK triples the IN subqueries
         draw from *)
}

let col table name = { Ast.table = Some table; name }

let date_lit days =
  let y, m, d = Value.ymd_of_date (Value.Date days) in
  Ast.Date_lit (y, m, d)

let ship_day0 = match fst Tpch.ship_window with Value.Date d -> d | _ -> 0

let tpch_spec =
  {
    s_root =
      {
        t_name = "lineitem";
        t_pools =
          [|
            {
              p_column = "l_quantity";
              p_cmps = [| Ast.Le; Ast.Gt; Ast.Ge; Ast.Lt |];
              p_draw = (fun rng -> Ast.Int_lit (1 + Rng.int rng 50));
            };
            {
              p_column = "l_extendedprice";
              p_cmps = [| Ast.Gt; Ast.Le |];
              p_draw = (fun rng -> Ast.Float_lit (Rng.float rng 120_000.0));
            };
            {
              p_column = "l_shipdate";
              p_cmps = [| Ast.Le; Ast.Gt |];
              p_draw = (fun rng -> date_lit (ship_day0 - 200 + Rng.int rng 600));
            };
          |];
      };
    s_satellites =
      [|
        {
          t_name = "orders";
          t_pools =
            [|
              {
                p_column = "o_totalprice";
                p_cmps = [| Ast.Gt; Ast.Le |];
                p_draw = (fun rng -> Ast.Float_lit (Rng.float rng 250_000.0));
              };
            |];
        };
        {
          t_name = "part";
          t_pools =
            [|
              {
                p_column = "p_size";
                p_cmps = [| Ast.Lt; Ast.Ge |];
                p_draw = (fun rng -> Ast.Int_lit (1 + Rng.int rng 50));
              };
              {
                p_column = "p_bucket";
                p_cmps = [| Ast.Eq |];
                p_draw = (fun rng -> Ast.Int_lit (Rng.int rng 1000));
              };
            |];
        };
      |];
    s_group = col "lineitem" "l_quantity";
    s_agg = col "lineitem" "l_extendedprice";
    s_projection = [ col "lineitem" "l_rowid"; col "lineitem" "l_extendedprice" ];
    s_order = col "lineitem" "l_extendedprice";
    s_semis =
      [|
        ("orders", col "lineitem" "l_orderkey", "o_orderkey");
        ("part", col "lineitem" "l_partkey", "p_partkey");
      |];
  }

let star_spec =
  let dim n =
    {
      t_name = Printf.sprintf "dim%d" n;
      t_pools =
        [|
          {
            p_column = "d_filter";
            p_cmps = [| Ast.Eq |];
            p_draw = (fun rng -> Ast.Int_lit (Rng.int rng 10));
          };
        |];
    }
  in
  {
    s_root =
      {
        t_name = "fact";
        t_pools =
          [|
            {
              p_column = "f_m1";
              p_cmps = [| Ast.Gt; Ast.Le |];
              p_draw = (fun rng -> Ast.Float_lit (Rng.float rng 1000.0));
            };
          |];
      };
    s_satellites = [| dim 1; dim 2; dim 3 |];
    s_group = col "fact" "f_dim1";
    s_agg = col "fact" "f_m1";
    s_projection = [ col "fact" "f_id"; col "fact" "f_m1" ];
    s_order = col "fact" "f_m1";
    s_semis =
      [|
        ("dim1", col "fact" "f_dim1", "d_key");
        ("dim2", col "fact" "f_dim2", "d_key");
        ("dim3", col "fact" "f_dim3", "d_key");
      |];
  }

let spec_of = function Tpch -> tpch_spec | Star -> star_spec

let table_spec spec name =
  if spec.s_root.t_name = name then Some spec.s_root
  else Array.find_opt (fun t -> t.t_name = name) spec.s_satellites

(* The three query shapes — total, grouped, projected — as (SELECT list,
   GROUP BY, the column an ORDER BY may sort on). *)
let shapes spec =
  let sum_total = Ast.Agg_item (Ast.Sum, Some (Ast.Column spec.s_agg), Some "total") in
  [|
    ([ sum_total; Ast.Agg_item (Ast.Count_star, None, Some "n") ], [], None);
    ( [ Ast.Expr_item (Ast.Column spec.s_group, None); sum_total ],
      [ spec.s_group ],
      Some { Ast.table = None; name = "total" } );
    (List.map (fun c -> Ast.Expr_item (Ast.Column c, None)) spec.s_projection, [], Some spec.s_order);
  |]

(* A WHERE clause as its top-level conjuncts, and back. *)
let conjuncts (q : Ast.statement) =
  match q.where with None -> [] | Some (Ast.And cs) -> cs | Some c -> [ c ]

let conjunction = function [] -> None | [ c ] -> Some c | cs -> Some (Ast.And cs)

let with_conjuncts (q : Ast.statement) cs = { q with where = conjunction cs }

(* ------------------------------------------------------------------ *)
(* Serialization (corpus entries and .fuzz-repro files)                *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let jfield name = function
  | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error (Printf.sprintf "expected an object with field %S" name)

let jstr name obj =
  match jfield name obj with
  | Ok (Json.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "field %S must be a string" name)
  | Error e -> Error e

let jnum name obj =
  match jfield name obj with
  | Ok (Json.Num n) -> Ok n
  | Ok _ -> Error (Printf.sprintf "field %S must be a number" name)
  | Error e -> Error e

let jlist name obj =
  match jfield name obj with
  | Ok (Json.List l) -> Ok l
  | Ok _ -> Error (Printf.sprintf "field %S must be a list" name)
  | Error e -> Error e

let map_result f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let case_to_json case =
  Json.Obj
    [
      ("workload", Json.Str (workload_to_string case.workload));
      ("catalog_seed", Json.Num (float_of_int case.catalog_seed));
      ("mutations", Json.List (List.map (fun m -> Json.Str (Mutate.to_string m)) case.mutations));
      ("faults", Json.List (List.map Fault.injection_to_json case.faults));
      ( "pool_pages",
        match case.pool_pages with None -> Json.Null | Some n -> Json.Num (float_of_int n) );
      ("sql", Json.Str (Ast.to_sql case.query));
    ]

let case_of_json j =
  let* workload_s = jstr "workload" j in
  let* workload = workload_of_string workload_s in
  let* catalog_seed = jnum "catalog_seed" j in
  let* mutation_js = jlist "mutations" j in
  let* mutations =
    map_result
      (function Json.Str s -> Mutate.of_string s | _ -> Error "mutation must be a string")
      mutation_js
  in
  let* fault_js = jlist "faults" j in
  let* faults = map_result Fault.injection_of_json fault_js in
  let* pool_pages =
    match jfield "pool_pages" j with
    | Ok Json.Null -> Ok None
    | Ok (Json.Num n) -> Ok (Some (int_of_float n))
    | Ok _ -> Error "field \"pool_pages\" must be a number or null"
    | Error e -> Error e
  in
  let* sql = jstr "sql" j in
  let* query = Parser.parse sql in
  Ok { workload; catalog_seed = int_of_float catalog_seed; mutations; faults; query; pool_pages }

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  iterations : int;            (* mutation steps; 0 = unbounded (soak) *)
  seed : int;
  corpus_dir : string option;
  baseline : bool;             (* also run the pure-random control *)
  late_after : int option;     (* require a new pair after this iteration *)
  sabotage : Differential.sabotage option;
  repro_file : string;
  workloads : workload list;
  catalog_seeds : int list;
  tpch_scale : float;
  star_rows : int;
  sample_size : int;
  seed_corpus : int;           (* initial random cases *)
  shrink_budget : int;         (* max case evaluations while shrinking *)
}

let default_config =
  {
    iterations = 200;
    seed = 5;
    corpus_dir = None;
    baseline = false;
    late_after = None;
    sabotage = None;
    repro_file = "divergence.fuzz-repro";
    workloads = [ Tpch; Star ];
    catalog_seeds = [ 0; 1 ];
    tpch_scale = 0.001;
    star_rows = 2_000;
    sample_size = 150;
    seed_corpus = 8;
    shrink_budget = 200;
  }

let quick_config = { default_config with iterations = 60 }

(* ------------------------------------------------------------------ *)
(* Environments (memoized catalogs + statistics)                       *)
(* ------------------------------------------------------------------ *)

(* Seeds for the deterministic sub-streams.  They depend only on fields
   that survive serialization, so a replayed .fuzz-repro rebuilds the
   byte-identical environment. *)
let mutation_seed case = (case.catalog_seed * 1_000_003) + 11
let stats_seed case = (case.catalog_seed * 7919) + 13
let fault_seed case = (case.catalog_seed * 1_000_003) + 7

(* Healthy environments, without the case's faulted statistics. *)
let env_cache : (string, (Differential.env, string) result) Hashtbl.t = Hashtbl.create 32

let env_key config case =
  Printf.sprintf "%s/%d/%g/%d/%d/%s"
    (workload_to_string case.workload)
    case.catalog_seed config.tpch_scale config.star_rows config.sample_size
    (String.concat "," (List.map Mutate.to_string case.mutations))

let base_catalog config case =
  match case.workload with
  | Tpch ->
      let params = { Tpch.default_params with scale_factor = config.tpch_scale } in
      Tpch.generate (Rng.create ((case.catalog_seed * 2) + 1)) ~params ()
  | Star ->
      let params = { Star.default_params with fact_rows = config.star_rows } in
      Star.generate (Rng.create ((case.catalog_seed * 2) + 2)) ~params ()

let build_env config case =
  let key = env_key config case in
  match Hashtbl.find_opt env_cache key with
  | Some env -> env
  | None ->
      if Hashtbl.length env_cache > 32 then Hashtbl.reset env_cache;
      let env =
        let catalog = base_catalog config case in
        match Mutate.apply_all (Rng.create (mutation_seed case)) catalog case.mutations with
        | Error e -> Error e
        | Ok () ->
            let scale =
              match case.workload with
              | Tpch -> Tpch.cost_scale catalog
              | Star -> Star.cost_scale catalog
            in
            let stats =
              Stats_store.update_statistics
                (Rng.create (stats_seed case))
                ~config:{ Stats_store.default_config with sample_size = config.sample_size }
                catalog
            in
            Ok { Differential.catalog; scale; stats; faulted = []; pools = [] }
      in
      Hashtbl.add env_cache key env;
      env

(* ------------------------------------------------------------------ *)
(* One case through every differential pass                            *)
(* ------------------------------------------------------------------ *)

type divergence = Differential.divergence = { pass : string; detail : string }

type probe = Differential.probe = { coverage : string * string; divergence : divergence option }

let probe_case ?sabotage ?(pools = []) config case =
  let* env = build_env config case in
  let* { Binder.query; _ } = Binder.bind env.Differential.catalog case.query in
  let faulted = Fault.apply (Rng.create (fault_seed case)) env.Differential.stats case.faults in
  let check () =
    Differential.check ?sabotage { env with faulted = [ ("case", faulted) ]; pools } query
  in
  match case.pool_pages with
  | None -> check ()
  | Some pages ->
      (* Apply the buffer-pool-capacity gene for the duration of the
         probe, then restore the previous capacity: a starved pool must
         only add fault-ins, never change an answer. *)
      let before =
        (Rq_storage.Buffer_pool.global_stats ()).Rq_storage.Buffer_pool.capacity_chunks
        * Rq_storage.Page.pages_per_chunk
      in
      Rq_storage.Buffer_pool.configure ~capacity_pages:pages;
      Fun.protect
        ~finally:(fun () -> Rq_storage.Buffer_pool.configure ~capacity_pages:before)
        check

(* ------------------------------------------------------------------ *)
(* Random generation and the mutator                                  *)
(* ------------------------------------------------------------------ *)

(* The literal is drawn before the comparison: the draw order fixes every
   seed's search. *)
let gen_atom rng ts pool =
  let value = pool.p_draw rng in
  let op = Rng.pick rng pool.p_cmps in
  Ast.Cmp (op, Ast.Column (col ts.t_name pool.p_column), value)

let gen_conjuncts rng ?(max_atoms = 2) ts =
  let n = Rng.int rng (max_atoms + 1) in
  List.init n (fun _ -> gen_atom rng ts (Rng.pick rng ts.t_pools))

(* One [outer_key IN (SELECT inner_key FROM t ...)] over an FK edge whose
   table the query does not already join (the logical layer rejects
   disguised self-joins). *)
let gen_semi rng spec ~present =
  let free =
    Array.to_list spec.s_semis
    |> List.filter (fun (t, _, _) -> not (List.mem t present))
  in
  match free with
  | [] -> None
  | _ ->
      let t, outer_key, inner_key = Rng.pick rng (Array.of_list free) in
      table_spec spec t
      |> Option.map (fun ts ->
             let sub_where = conjunction (gen_conjuncts rng ~max_atoms:1 ts) in
             Ast.In_subquery
               ( Ast.Column outer_key,
                 {
                   Ast.sub_item = Ast.Sub_column { table = None; name = inner_key };
                   sub_from = t;
                   sub_where;
                 } ))

let gen_statement rng spec =
  let root = gen_conjuncts rng spec.s_root in
  let sats =
    Array.to_list spec.s_satellites
    |> List.filter_map (fun ts ->
           if Rng.bool rng then Some (ts.t_name, gen_conjuncts rng ~max_atoms:1 ts) else None)
  in
  let from = spec.s_root.t_name :: List.map fst sats in
  let semis =
    if Rng.int rng 3 = 0 then Option.to_list (gen_semi rng spec ~present:from) else []
  in
  let select, group_by, sort_column = Rng.pick rng (shapes spec) in
  let order = sort_column <> None && Rng.int rng 3 = 0 in
  let limit = if Rng.int rng 4 = 0 then Some (1 + Rng.int rng 20) else None in
  let desc = order && Rng.bool rng in
  let order_by =
    match sort_column with Some order_column when order -> [ { Ast.order_column; desc } ] | _ -> []
  in
  let q =
    with_conjuncts
      { Ast.select; from; where = None; group_by; order_by; limit = None; hints = [] }
      (root @ List.concat_map snd sats @ semis)
  in
  (* every candidate plan for a single-table projection without a
     semijoin emits one canonical row order (RID order, or the identical
     stable-sorted order), so only there does LIMIT stay deterministic
     across the differential arms *)
  let projected = not (List.exists (function Ast.Agg_item _ -> true | _ -> false) select) in
  if List.length from = 1 && semis = [] && projected then { q with limit } else q

let gen_query rng workload = gen_statement rng (spec_of workload)

(* Faults and data mutations target tables the query actually touches:
   damage elsewhere leaves both the plan and the tier digest unchanged, so
   untargeted injections are almost always wasted probes. *)
let gen_fault rng spec tables =
  let root = Rng.pick rng (Array.of_list tables) in
  match Rng.int rng 6 with
  | 0 -> Fault.Drop_synopsis root
  | 1 -> Fault.Truncate_synopsis { root; keep = Rng.pick rng [| 2; 5 |] }
  | 2 -> Fault.Corrupt_synopsis root
  | 3 -> Fault.Skew_synopsis { root; factor = Rng.pick rng [| 16.0; 0.06; 64.0 |] }
  | 4 ->
      let ts =
        match table_spec spec root with Some ts -> ts | None -> spec.s_root
      in
      Fault.Drop_histogram { table = ts.t_name; column = (Rng.pick rng ts.t_pools).p_column }
  | _ -> Fault.Dangling_fk { root; break = Rng.pick rng [| 1; 25; 75 |] }

let gen_mutation rng spec tables =
  if Rng.int rng 3 = 0 then
    (* only the fact/root table is shrinkable (no incoming FK edges) *)
    Mutate.Shrink { table = spec.s_root.t_name; keep_percent = Rng.pick rng [| 60; 25; 0 |] }
  else
    Mutate.Grow { table = Rng.pick rng (Array.of_list tables); percent = Rng.pick rng [| 40; 120 |] }

let gen_case rng config =
  let workload = Rng.pick rng (Array.of_list config.workloads) in
  let catalog_seed = Rng.pick rng (Array.of_list config.catalog_seeds) in
  let spec = spec_of workload in
  let query = gen_statement rng spec in
  let tables = query.Ast.from in
  (* the pure-random control can reach fault/mutation states too — the
     steered loop must win on search order, not on a larger gene pool *)
  let faults = if Rng.int rng 4 = 0 then [ gen_fault rng spec tables ] else [] in
  let mutations = if Rng.int rng 6 = 0 then [ gen_mutation rng spec tables ] else [] in
  let pool_pages =
    if Rng.int rng 6 = 0 then Some (Rng.pick rng [| 64; 256; 2048 |]) else None
  in
  { workload; catalog_seed; mutations; faults; query; pool_pages }

let cap_list n l = if List.length l > n then List.tl l else l

type operator = Splice | Fault | Data

let operators = [ Splice; Fault; Data ]

let operator_name = function Splice -> "splice" | Fault -> "fault" | Data -> "data"

let mutate_case rng op case =
  let spec = spec_of case.workload in
  let tables = case.query.Ast.from in
  match op with
  | Splice ->
      (* a fresh query over the parent's data state, faults and pool: new
         plan shapes come from new queries far more often than from
         tweaking one gene of an old one *)
      { case with query = gen_statement rng spec }
  | Fault ->
      if case.faults <> [] && Rng.int rng 6 = 0 then
        let j = Rng.int rng (List.length case.faults) in
        { case with faults = List.filteri (fun k _ -> k <> j) case.faults }
      else
        (* stacking faults is the point: compound damage reaches tier
           transition sequences no single injection can produce *)
        { case with faults = cap_list 3 (case.faults @ [ gen_fault rng spec tables ]) }
  | Data ->
      if Rng.int rng 5 = 0 then
        (* toggle or tighten the buffer-pool-capacity gene *)
        { case with
          pool_pages =
            (match case.pool_pages with
            | None -> Some (Rng.pick rng [| 64; 256; 2048 |])
            | Some n -> if Rng.bool rng then None else Some (max 16 (n / 4)));
        }
      else if case.mutations <> [] && Rng.int rng 4 = 0 then
        let j = Rng.int rng (List.length case.mutations) in
        { case with mutations = List.filteri (fun k _ -> k <> j) case.mutations }
      else { case with mutations = cap_list 3 (case.mutations @ [ gen_mutation rng spec tables ]) }

(* ------------------------------------------------------------------ *)
(* Delta-debugging shrink                                              *)
(* ------------------------------------------------------------------ *)

let shrink_literal = function
  | Ast.Int_lit n -> if n = 0 then [] else [ Ast.Int_lit (n / 2); Ast.Int_lit 0 ]
  | Ast.Float_lit f -> if f = 0.0 then [] else [ Ast.Float_lit (f /. 2.0); Ast.Float_lit 0.0 ]
  | Ast.Date_lit (year, month, day) -> (
      match Value.date_of_ymd ~year ~month ~day with
      | Value.Date d -> [ date_lit (d - 100) ]
      | _ -> [])
  | _ -> []

let weaken_fault = function
  | Fault.Truncate_synopsis { root; keep } when keep < 16 ->
      [ Fault.Truncate_synopsis { root; keep = keep * 4 } ]
  | Fault.Skew_synopsis { root; factor } when factor > 4.0 ->
      [ Fault.Skew_synopsis { root; factor = 4.0 } ]
  | Fault.Dangling_fk { root; break } when break > 1 ->
      [ Fault.Dangling_fk { root; break = break / 2 } ]
  | _ -> []

let weaken_mutation = function
  | Mutate.Grow { table; percent } when percent > 10 ->
      [ Mutate.Grow { table; percent = percent / 2 } ]
  | Mutate.Shrink { table; keep_percent } when keep_percent < 50 ->
      [ Mutate.Shrink { table; keep_percent = min 100 ((keep_percent * 2) + 10) } ]
  | _ -> []

let shrink_candidates case =
  let q = case.query in
  let with_query q' = { case with query = q' } in
  let cs = conjuncts q in
  let is_semi = function Ast.In_subquery _ -> true | _ -> false in
  let filters t = function
    | Ast.Cmp (_, Ast.Column { table = Some t'; _ }, _) -> t = t'
    | _ -> false
  in
  let drop_conjunct j = with_query (with_conjuncts q (List.filteri (fun k _ -> k <> j) cs)) in
  let drop_conjuncts_if p =
    List.concat (List.mapi (fun j c -> if p c then [ drop_conjunct j ] else []) cs)
  in
  let drop_tables =
    match q.from with
    | _root :: sats ->
        List.map
          (fun t ->
            with_query
              (with_conjuncts
                 { q with from = List.filter (( <> ) t) q.from }
                 (List.filter (fun c -> not (filters t c)) cs)))
          sats
    | [] -> []
  in
  let drop_semis = drop_conjuncts_if is_semi in
  let drop_order = if q.order_by <> [] then [ with_query { q with order_by = [] } ] else [] in
  let drop_limit =
    if q.limit <> None then [ with_query { q with limit = None } ] else []
  in
  let simplify_shape =
    (* the total shape, which has no ORDER BY and no LIMIT *)
    let select, group_by, _ = (shapes (spec_of case.workload)).(0) in
    if q.select <> select then
      [ with_query { q with select; group_by; order_by = []; limit = None } ]
    else []
  in
  let drop_mutations =
    List.mapi
      (fun j _ -> { case with mutations = List.filteri (fun k _ -> k <> j) case.mutations })
      case.mutations
  in
  let drop_pool =
    if case.pool_pages <> None then [ { case with pool_pages = None } ] else []
  in
  let weaken_mutations =
    List.concat
      (List.mapi
         (fun j m ->
           List.map
             (fun m' -> { case with mutations = List.mapi (fun k m0 -> if k = j then m' else m0) case.mutations })
             (weaken_mutation m))
         case.mutations)
  in
  let drop_faults =
    List.mapi
      (fun j _ -> { case with faults = List.filteri (fun k _ -> k <> j) case.faults })
      case.faults
  in
  let weaken_faults =
    List.concat
      (List.mapi
         (fun j f ->
           List.map
             (fun f' -> { case with faults = List.mapi (fun k f0 -> if k = j then f' else f0) case.faults })
             (weaken_fault f))
         case.faults)
  in
  let drop_atoms = drop_conjuncts_if (fun c -> not (is_semi c)) in
  let shrink_literals =
    List.concat
      (List.mapi
         (fun j c ->
           match c with
           | Ast.Cmp (op, lhs, lit) ->
               List.map
                 (fun v ->
                   with_query
                     (with_conjuncts q
                        (List.mapi (fun k c0 -> if k = j then Ast.Cmp (op, lhs, v) else c0) cs)))
                 (shrink_literal lit)
           | _ -> [])
         cs)
  in
  (* most aggressive first: whole tables and subqueries, then decoration
     (ORDER BY / LIMIT), then whole faults/mutations, then conjuncts, then
     literal values *)
  drop_tables @ drop_semis @ drop_order @ drop_limit @ simplify_shape @ drop_mutations
  @ drop_pool @ drop_faults @ weaken_mutations @ weaken_faults
  @ drop_atoms @ shrink_literals

let shrink ~probe ~config case0 (div0 : divergence) =
  let reproduces case =
    match probe case with
    | Ok { divergence = Some d; _ } -> d.pass = div0.pass
    | _ -> false
  in
  let current = ref case0 in
  let spent = ref 0 in
  let progress = ref true in
  while !progress && !spent < config.shrink_budget do
    progress := false;
    (try
       List.iter
         (fun candidate ->
           if !spent >= config.shrink_budget then raise Exit;
           incr spent;
           if reproduces candidate then begin
             current := candidate;
             progress := true;
             raise Exit
           end)
         (shrink_candidates !current)
     with Exit -> ())
  done;
  !current

(* ------------------------------------------------------------------ *)
(* Repro files                                                         *)
(* ------------------------------------------------------------------ *)

let repro_format = "robustopt-fuzz-repro/2"

(* The planted unsound rewrite fires on every case with a filter, so it
   takes precedence when both self-tests are armed. *)
let sabotage_of_flags ~self_test ~self_test_rewrite =
  if self_test_rewrite then Some Differential.Unsound_rewrite
  else if self_test then Some Differential.Perturbed_scan_arm
  else None

(* The sabotage is stored as the two flags of the CLI that plants it. *)
let repro_to_json ~seed ~iteration ~sabotage case (d : divergence) =
  Json.Obj
    [
      ("format", Json.Str repro_format);
      ("seed", Json.Num (float_of_int seed));
      ("iteration", Json.Num (float_of_int iteration));
      ("self_test", Json.Bool (sabotage = Some Differential.Perturbed_scan_arm));
      ("self_test_rewrite", Json.Bool (sabotage = Some Differential.Unsound_rewrite));
      ("divergence", Json.Obj [ ("pass", Json.Str d.pass); ("detail", Json.Str d.detail) ]);
      ("case", case_to_json case);
    ]

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let write_repro path ~seed ~iteration ~sabotage case d =
  write_file path (Json.to_string (repro_to_json ~seed ~iteration ~sabotage case d) ^ "\n")

let load_repro path =
  let* json = Json.parse (read_file path) in
  let* format = jstr "format" json in
  if format <> repro_format then Error (Printf.sprintf "unsupported repro format %S" format)
  else
    let* case_j = jfield "case" json in
    let* case = case_of_json case_j in
    let jbool name = match jfield name json with Ok (Json.Bool b) -> b | _ -> false in
    let sabotage =
      sabotage_of_flags ~self_test:(jbool "self_test") ~self_test_rewrite:(jbool "self_test_rewrite")
    in
    let pass = match jfield "divergence" json with Ok d -> Result.value ~default:"" (jstr "pass" d) | Error _ -> "" in
    Ok (case, sabotage, pass)

(* One 2-domain morsel pool for the duration of a run or a replay: the
   rewrite pass also runs each rewritten plan on it. *)
let with_pools f =
  let pool = Parallel.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f [ pool ])

let replay_on ~pools config path =
  let* case, sabotage, expected_pass = load_repro path in
  let* probe = probe_case ?sabotage ~pools config case in
  Ok (case, probe, expected_pass)

let replay config path = with_pools (fun pools -> replay_on ~pools config path)

(* ------------------------------------------------------------------ *)
(* The evolutionary loop                                               *)
(* ------------------------------------------------------------------ *)

type found = {
  f_divergence : divergence;
  f_case : case;               (* shrunk *)
  f_tables : int;
  f_iteration : int;
  f_repro_path : string;
  f_reproduced : bool;         (* the written repro file replays red *)
}

type result = {
  r_iterations : int;
  r_probes : int;              (* total case evaluations, shrinking included *)
  r_corpus : int;
  r_pairs : int;               (* distinct (plan digest x tier digest) pairs *)
  r_baseline_pairs : int option;
  r_last_new_pair : int;       (* iteration that last produced an unseen pair *)
  r_operators : (operator * int * int) list;  (* operator, probes tried, probes kept *)
  r_found : found option;
  r_self_test : bool;
  r_ok : bool;
  r_seconds : float;
}

let coverage_key (plans, tier) = plans ^ "|" ^ tier

let corpus_filename case =
  Printf.sprintf "%08x.fuzz" (Hashtbl.hash (Json.to_string (case_to_json case)))

let load_corpus ~log dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fuzz")
    |> List.sort String.compare
    |> List.filter_map (fun f ->
           let path = Filename.concat dir f in
           match Result.bind (Json.parse (read_file path)) case_of_json with
           | Ok c -> Some c
           | Error e ->
               log (Printf.sprintf "corpus: skipping %s: %s" path e);
               None)
  else []

let save_corpus_case dir case =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_file (Filename.concat dir (corpus_filename case))
    (Json.to_string (case_to_json case) ^ "\n")

(* The fixed operator mix, splice : fault : data = 3 : 3 : 1. *)
let operator_mix = [| Splice; Splice; Splice; Fault; Fault; Fault; Data |]

let count tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:0

(* AFL-style energy: a parent weighs 1 / (entries sharing its plan
   fingerprint x entries sharing its tier digest), so the rarest
   behaviour in the corpus is mutated most. *)
let pick_parent rng ~plan_count ~tier_count corpus =
  let energy (_, (plans, tier)) =
    1.0 /. float_of_int (count plan_count plans * count tier_count tier)
  in
  let total = List.fold_left (fun acc e -> acc +. energy e) 0.0 corpus in
  let rec walk x = function
    | [ (case, _) ] -> case
    | ((case, _) as e) :: rest -> if x < energy e then case else walk (x -. energy e) rest
    | [] -> invalid_arg "pick_parent: empty corpus"
  in
  walk (Rng.float rng total) corpus

let run ?(log = fun (_ : string) -> ()) ?(config = default_config) () =
  with_pools @@ fun pools ->
  let start = Unix.gettimeofday () in
  let rng = Rng.create config.seed in
  let sabotage = config.sabotage in
  let probes = ref 0 in
  let probe case =
    incr probes;
    probe_case ?sabotage ~pools config case
  in
  let seen = Hashtbl.create 256 in
  let plan_count = Hashtbl.create 64 in
  let tier_count = Hashtbl.create 64 in
  (* (case, coverage) pairs, newest first *)
  let corpus = ref [] in
  let last_new = ref 0 in
  let tried = Hashtbl.create 3 in
  let kept = Hashtbl.create 3 in
  let found = ref None in
  let record_found ~iteration case d =
    let shrunk = shrink ~probe ~config case d in
    (* the shrunk case may now diverge with a refined detail; re-probe for
       the message we serialize *)
    let final_d =
      match probe shrunk with
      | Ok { divergence = Some d'; _ } when d'.pass = d.pass -> d'
      | _ -> d
    in
    write_repro config.repro_file ~seed:config.seed ~iteration ~sabotage shrunk final_d;
    let reproduced =
      match replay_on ~pools config config.repro_file with
      | Ok (_, { divergence = Some d'; _ }, _) -> d'.pass = d.pass
      | _ -> false
    in
    found :=
      Some
        {
          f_divergence = final_d;
          f_case = shrunk;
          f_tables = List.length shrunk.query.Ast.from;
          f_iteration = iteration;
          f_repro_path = config.repro_file;
          f_reproduced = reproduced;
        }
  in
  (* [op] is the operator that made the case; seed cases have none *)
  let admit ~iteration ?op case =
    match probe case with
    | Error _ -> ()   (* invalid case: the mutator overstepped, skip it *)
    | Ok { divergence = Some d; _ } ->
        log (Printf.sprintf "iteration %d: divergence in pass %s — shrinking" iteration d.pass);
        record_found ~iteration case d
    | Ok { coverage = (plans, tier) as coverage; divergence = None } ->
        let key = coverage_key coverage in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          Hashtbl.replace plan_count plans (count plan_count plans + 1);
          Hashtbl.replace tier_count tier (count tier_count tier + 1);
          corpus := (case, coverage) :: !corpus;
          if iteration > 0 then last_new := iteration;
          Option.iter (fun op -> Hashtbl.replace kept op (count kept op + 1)) op;
          Option.iter (fun dir -> save_corpus_case dir case) config.corpus_dir
        end
  in
  (* Seed the corpus: persisted cases first, then fresh random ones. *)
  let persisted = match config.corpus_dir with Some d -> load_corpus ~log d | None -> [] in
  List.iter (fun c -> if !found = None then admit ~iteration:0 c) persisted;
  for _ = 1 to config.seed_corpus do
    if !found = None then admit ~iteration:0 (gen_case rng config)
  done;
  if !corpus = [] && !found = None then
    (* pathological but possible if every seed was invalid: retry once *)
    admit ~iteration:0 (gen_case rng config);
  (* Evolve. *)
  let i = ref 0 in
  while (config.iterations = 0 || !i < config.iterations) && !found = None && !corpus <> [] do
    incr i;
    let parent = pick_parent rng ~plan_count ~tier_count !corpus in
    let op = Rng.pick rng operator_mix in
    Hashtbl.replace tried op (count tried op + 1);
    admit ~iteration:!i ~op (mutate_case rng op parent);
    if !i mod 50 = 0 then
      log
        (Printf.sprintf "iteration %d: corpus %d, %d distinct pairs" !i (List.length !corpus)
           (Hashtbl.length seen))
  done;
  (* The pure-random control: same probe machinery, same case evaluation
     count, no corpus and no steering. *)
  let baseline_pairs =
    if not config.baseline then None
    else begin
      let brng = Rng.create (config.seed + 1009) in
      let bseen = Hashtbl.create 256 in
      let n = config.seed_corpus + !i in
      for _ = 1 to n do
        let case = gen_case brng config in
        match probe_case ?sabotage ~pools config case with
        | Ok { divergence = None; coverage } -> Hashtbl.replace bseen (coverage_key coverage) ()
        | Ok { divergence = Some d; _ } ->
            (* a divergence is a divergence, whoever finds it *)
            if !found = None then record_found ~iteration:0 case d
        | Error _ -> ()
      done;
      Some (Hashtbl.length bseen)
    end
  in
  let pairs = Hashtbl.length seen in
  let caught_by prefix f =
    (* a clean catch: the divergence must surface in the targeted pass, not
       as a crash elsewhere — "crash:kernel" deliberately does not count *)
    let n = String.length prefix in
    String.length f.f_divergence.pass >= n
    && String.sub f.f_divergence.pass 0 n = prefix
    && f.f_tables <= 3 && f.f_reproduced
  in
  let ok =
    match sabotage with
    | Some Differential.Unsound_rewrite -> Option.fold ~none:false ~some:(caught_by "rewrite") !found
    | Some Differential.Perturbed_scan_arm ->
        Option.fold ~none:false ~some:(caught_by "kernel") !found
    | None ->
      !found = None
      && (match config.late_after with None -> true | Some n -> !last_new > n)
      && match baseline_pairs with None -> true | Some b -> pairs > b
  in
  {
    r_iterations = !i;
    r_probes = !probes;
    r_corpus = List.length !corpus;
    r_pairs = pairs;
    r_baseline_pairs = baseline_pairs;
    r_last_new_pair = !last_new;
    r_operators = List.map (fun op -> (op, count tried op, count kept op)) operators;
    r_found = !found;
    r_self_test = sabotage <> None;
    r_ok = ok;
    r_seconds = Unix.gettimeofday () -. start;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let case_summary case =
  Printf.sprintf "%s/seed%d faults=[%s] mutations=[%s]%s: %s"
    (workload_to_string case.workload)
    case.catalog_seed
    (String.concat "," (List.map Fault.injection_to_string case.faults))
    (String.concat "," (List.map Mutate.to_string case.mutations))
    (match case.pool_pages with None -> "" | Some n -> Printf.sprintf " pool=%d" n)
    (Ast.to_sql case.query)

let render r =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "fuzz: %d iterations, %d probes, %.1fs%s" r.r_iterations r.r_probes r.r_seconds
    (if r.r_self_test then " (self-test)" else "");
  line "coverage: %d distinct (plan x tier) pairs, corpus %d, last new pair at iteration %d"
    r.r_pairs r.r_corpus r.r_last_new_pair;
  line "operators (kept/tried): %s"
    (String.concat ", "
       (List.map
          (fun (op, tried, kept) -> Printf.sprintf "%s %d/%d" (operator_name op) kept tried)
          r.r_operators));
  (match r.r_baseline_pairs with
  | Some bp ->
      line "baseline: pure-random search reached %d pairs at equal probes (steered: %d) — %s" bp
        r.r_pairs
        (if r.r_pairs > bp then "steering wins" else "steering DID NOT win")
  | None -> ());
  (match r.r_found with
  | Some f ->
      line "DIVERGENCE in pass %s (iteration %d), shrunk to %d table(s):" f.f_divergence.pass
        f.f_iteration f.f_tables;
      line "  %s" (case_summary f.f_case);
      line "  detail: %s" f.f_divergence.detail;
      line "  repro: %s (replay %s)" f.f_repro_path
        (if f.f_reproduced then "reproduces" else "DOES NOT reproduce")
  | None -> line "no divergence found");
  line "verdict: %s" (if r.r_ok then "OK" else "FAIL");
  Buffer.contents b
