open Rq_storage
open Rq_exec

(* ------------------------------------------------------------------ *)
(* Sargable predicate analysis                                         *)
(* ------------------------------------------------------------------ *)

let range_of_conjunct = function
  | Pred.Between (Expr.Col c, lo_e, hi_e) -> (
      match (Expr.const_value lo_e, Expr.const_value hi_e) with
      | Some lo, Some hi -> Some (c, Some lo, Some hi)
      | _ -> None)
  | Pred.Cmp (op, Expr.Col c, e) -> (
      match Expr.const_value e with
      | None -> None
      | Some v -> (
          match op with
          | Pred.Eq -> Some (c, Some v, Some v)
          | Pred.Le | Pred.Lt -> Some (c, None, Some v)
          | Pred.Ge | Pred.Gt -> Some (c, Some v, None)
          | Pred.Ne -> None))
  | Pred.Cmp (op, e, Expr.Col c) -> (
      match Expr.const_value e with
      | None -> None
      | Some v -> (
          match op with
          | Pred.Eq -> Some (c, Some v, Some v)
          | Pred.Le | Pred.Lt -> Some (c, Some v, None)
          | Pred.Ge | Pred.Gt -> Some (c, None, Some v)
          | Pred.Ne -> None))
  | _ -> None

let tighten (lo1, hi1) (lo2, hi2) =
  let max_lo =
    match (lo1, lo2) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (if Value.compare a b >= 0 then a else b)
  in
  let min_hi =
    match (hi1, hi2) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (if Value.compare a b <= 0 then a else b)
  in
  (max_lo, min_hi)

let sargable_ranges pred =
  let ranges = List.filter_map range_of_conjunct (Pred.conjuncts pred) in
  let merged = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (c, lo, hi) ->
      match Hashtbl.find_opt merged c with
      | None ->
          Hashtbl.replace merged c (lo, hi);
          order := c :: !order
      | Some existing -> Hashtbl.replace merged c (tighten existing (lo, hi)))
    ranges;
  List.rev_map (fun c -> let lo, hi = Hashtbl.find merged c in (c, lo, hi)) !order

(* ------------------------------------------------------------------ *)
(* Access paths                                                        *)
(* ------------------------------------------------------------------ *)

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let without = subsets rest in
      without @ List.map (fun s -> x :: s) without

let access_paths ?ordered catalog ({ Logical.table; pred } : Logical.table_ref) =
  let scan access = Plan.Scan { table; access; pred } in
  let indexed_ranges =
    List.filter
      (fun (c, _, _) -> Catalog.find_index catalog ~table ~column:c <> None)
      (sargable_ranges pred)
  in
  let probes =
    List.map (fun (column, lo, hi) -> { Plan.column; lo; hi }) indexed_ranges
  in
  let singles = List.map (fun p -> scan (Plan.Index_range p)) probes in
  let intersections =
    subsets probes
    |> List.filter (fun s -> List.length s >= 2)
    |> List.map (fun s -> scan (Plan.Index_intersect s))
  in
  let ordered_scans =
    match ordered with
    | Some (column, descending) when Catalog.find_index catalog ~table ~column <> None ->
        [ scan (Plan.Index_order { column; descending }) ]
    | _ -> []
  in
  (scan Plan.Seq_scan :: (singles @ intersections)) @ ordered_scans

(* ------------------------------------------------------------------ *)
(* Join enumeration                                                    *)
(* ------------------------------------------------------------------ *)

let ref_of query table =
  match
    List.find_opt
      (fun (r : Logical.table_ref) -> String.equal r.Logical.table table)
      query.Logical.tables
  with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Enumerate: table %s not in query" table)

(* FK edges crossing between two disjoint table sets, oriented as stored
   (from = FK side, to = PK side). *)
let crossing_edges catalog left right =
  List.filter
    (fun (fk : Catalog.foreign_key) ->
      (List.mem fk.from_table left && List.mem fk.to_table right)
      || (List.mem fk.from_table right && List.mem fk.to_table left))
    (Catalog.all_foreign_keys catalog)

let join_candidates catalog query ~left_tables ~left_plan ~right_tables ~right_plan =
  let edges = crossing_edges catalog left_tables right_tables in
  List.concat_map
    (fun (fk : Catalog.foreign_key) ->
      let fk_key = fk.from_table ^ "." ^ fk.from_column in
      let pk_key = fk.to_table ^ "." ^ fk.to_column in
      let left_key, right_key =
        if List.mem fk.from_table left_tables then (fk_key, pk_key) else (pk_key, fk_key)
      in
      let hash_both =
        [ Plan.Hash_join
            { build = left_plan; probe = right_plan; build_key = left_key; probe_key = right_key };
          Plan.Hash_join
            { build = right_plan; probe = left_plan; build_key = right_key; probe_key = left_key };
        ]
      in
      let merge =
        [ Plan.Merge_join { left = left_plan; right = right_plan; left_key; right_key } ]
      in
      let inl_into tables key plan other_plan other_key =
        (* Indexed NL join with a base table as the probed inner side. *)
        match tables with
        | [ table ] -> (
            let column =
              let prefix = table ^ "." in
              String.sub key (String.length prefix) (String.length key - String.length prefix)
            in
            match Catalog.find_index catalog ~table ~column with
            | Some _ ->
                ignore plan;
                [ Plan.Indexed_nl_join
                    {
                      outer = other_plan;
                      outer_key = other_key;
                      inner_table = table;
                      inner_key = column;
                      inner_pred = (ref_of query table).Logical.pred;
                    } ]
            | None -> [])
        | _ -> []
      in
      hash_both @ merge
      @ inl_into left_tables left_key left_plan right_plan right_key
      @ inl_into right_tables right_key right_plan left_plan left_key)
    edges

(* The naive plan of last resort: seq-scan leaves, hash joins, tables taken
   in query order following FK connectivity.  No cost function consulted, so
   it is constructible even when the optimization budget is exhausted. *)
let left_deep_plan catalog (query : Logical.t) =
  let scan (r : Logical.table_ref) =
    Plan.Scan { table = r.Logical.table; access = Plan.Seq_scan; pred = r.Logical.pred }
  in
  match query.Logical.tables with
  | [] -> None
  | [ single ] -> Some (scan single)
  | first :: rest ->
      let rec grow plan covered remaining =
        match remaining with
        | [] -> Some plan
        | _ -> (
            let joinable r =
              match crossing_edges catalog covered [ r.Logical.table ] with
              | [] -> None
              | fk :: _ -> Some (r, fk)
            in
            match List.find_map joinable remaining with
            | None -> None (* disconnected join graph *)
            | Some (r, fk) ->
                let fk_key = fk.Catalog.from_table ^ "." ^ fk.Catalog.from_column in
                let pk_key = fk.Catalog.to_table ^ "." ^ fk.Catalog.to_column in
                let probe_key, build_key =
                  if List.mem fk.Catalog.from_table covered then (fk_key, pk_key)
                  else (pk_key, fk_key)
                in
                let plan =
                  Plan.Hash_join { build = scan r; probe = plan; build_key; probe_key }
                in
                grow plan (r.Logical.table :: covered)
                  (List.filter
                     (fun (x : Logical.table_ref) ->
                       not (String.equal x.Logical.table r.Logical.table))
                     remaining))
      in
      grow (scan first) [ first.Logical.table ] rest

(* Splits of a sorted table list into two non-empty disjoint parts; the DP
   tries every split and keeps connected ones implicitly (unconnected parts
   have no crossing edge and produce no candidates). *)
let splits tables =
  let arr = Array.of_list tables in
  let n = Array.length arr in
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 2 do
    (* Avoid double-counting (S, S') and (S', S): keep masks containing the
       first element. *)
    if mask land 1 = 1 then begin
      let left = ref [] and right = ref [] in
      for i = n - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then left := arr.(i) :: !left
        else right := arr.(i) :: !right
      done;
      out := (!left, !right) :: !out
    end
  done;
  !out

let star_shape catalog query =
  let names = Logical.table_names query in
  match Rq_stats.Stats_store.root_of_expression catalog names with
  | None -> None
  | Some root ->
      let dims = List.filter (fun t -> not (String.equal t root)) names in
      let direct_child dim =
        match Catalog.fk_edge catalog ~from_table:root ~to_table:dim with
        | Some fk -> Catalog.find_index catalog ~table:root ~column:fk.from_column <> None
        | None -> false
      in
      if List.length dims >= 2 && List.for_all direct_child dims then Some (root, dims)
      else None

let star_plans catalog query ~cost_fn ~best_single =
  match star_shape catalog query with
  | None -> []
  | Some (root, dims) ->
      let fact_pred = (ref_of query root).Logical.pred in
      let star_dim dim =
        let fk = Option.get (Catalog.fk_edge catalog ~from_table:root ~to_table:dim) in
        { Plan.dim_table = dim; dim_pred = (ref_of query dim).Logical.pred; fact_fk = fk.from_column }
      in
      subsets dims
      |> List.filter (fun chosen -> chosen <> [])
      |> List.map (fun chosen ->
             let base =
               Plan.Star_semijoin { fact = root; fact_pred; dims = List.map star_dim chosen }
             in
             (* Hash-join the dimensions not covered by the semijoin on top
                (the Experiment-3 "hybrid" plans). *)
             let remaining = List.filter (fun d -> not (List.mem d chosen)) dims in
             List.fold_left
               (fun plan dim ->
                 let fk = Option.get (Catalog.fk_edge catalog ~from_table:root ~to_table:dim) in
                 let pk = Option.get (Catalog.primary_key catalog dim) in
                 Plan.Hash_join
                   {
                     build = best_single dim;
                     probe = plan;
                     build_key = dim ^ "." ^ pk;
                     probe_key = root ^ "." ^ fk.from_column;
                   })
               base remaining)
      |> List.map (fun plan -> (plan, cost_fn plan))
      |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)
      |> List.map fst

(* When the rewrite layer marked the query [index_order], offer an ordered
   index scan over the (single) table's ORDER BY column; [wrap_top] elides
   the Sort when this access path wins the costing race. *)
let ordered_access query =
  if not query.Logical.index_order then None
  else
    match (query.Logical.tables, query.Logical.order_by) with
    | [ { Logical.table; _ } ], [ { Plan.sort_column; descending } ] ->
        let prefix = table ^ "." in
        let pl = String.length prefix in
        if String.length sort_column > pl && String.sub sort_column 0 pl = prefix then
          Some (String.sub sort_column pl (String.length sort_column - pl), descending)
        else None
    | _ -> None

let join_plans catalog ~cost_fn query =
  let ordered = ordered_access query in
  match List.sort String.compare (Logical.table_names query) with
  | [ single ] -> access_paths ?ordered catalog (ref_of query single)
  | all_tables ->
      (* Canonical table-set encoding for the DP table: bit i = i-th table
         in sorted name order.  Subset keys become single ints, so the hot
         inner loop (one lookup per split side per subset) does integer
         hashing instead of allocating and structurally hashing string
         lists. *)
      let bit_of = Hashtbl.create 8 in
      List.iteri (fun i table -> Hashtbl.replace bit_of table (1 lsl i)) all_tables;
      let mask_of tables =
        List.fold_left (fun mask table -> mask lor Hashtbl.find bit_of table) 0 tables
      in
      let best : (int, Plan.t) Hashtbl.t = Hashtbl.create 16 in
      (* Each candidate is costed once; strict [<] keeps the first of equally
         cheap plans. *)
      let pick_best = function
        | [] -> None
        | [ only ] -> Some only
        | first :: rest ->
            let best, _ =
              List.fold_left
                (fun ((_, best_cost) as acc) p ->
                  let cost = cost_fn p in
                  if cost < best_cost then (p, cost) else acc)
                (first, cost_fn first) rest
            in
            Some best
      in
      List.iter
        (fun tables ->
          let candidates =
            match tables with
            | [ single ] -> access_paths ?ordered catalog (ref_of query single)
            | _ ->
                List.concat_map
                  (fun (left, right) ->
                    match
                      ( Hashtbl.find_opt best (mask_of left),
                        Hashtbl.find_opt best (mask_of right) )
                    with
                    | Some left_plan, Some right_plan ->
                        join_candidates catalog query ~left_tables:left ~left_plan
                          ~right_tables:right ~right_plan
                    | _ -> [])
                  (splits tables)
          in
          match pick_best candidates with
          | Some plan -> Hashtbl.replace best (mask_of tables) plan
          | None -> ())
        (Logical.connected_subsets catalog query);
      let best_single table =
        match Hashtbl.find_opt best (Hashtbl.find bit_of table) with
        | Some plan -> plan
        | None ->
            Plan.Scan { table; access = Plan.Seq_scan; pred = (ref_of query table).Logical.pred }
      in
      let stars = star_plans catalog query ~cost_fn ~best_single in
      (match Hashtbl.find_opt best (mask_of all_tables) with
      | Some plan -> plan :: stars
      | None -> stars)

let qualified_columns catalog table =
  List.map
    (fun (c : Schema.column) -> table ^ "." ^ c.Schema.name)
    (Schema.columns (Relation.schema (Catalog.find_table catalog table)))

(* A semijoin lowers onto existing plan nodes: the inner side becomes a
   distinct-key build (Aggregate with no aggregate functions), the outer
   plan probes it, and a Project restores the outer schema that the
   hash join widened.  Hash-join null-key skipping gives exactly the
   IN/EXISTS row-dropping semantics, and the distinct build keeps outer
   multiplicity. *)
let lower_semijoin plan outer_columns (sj : Logical.semijoin) =
  let inner_key = sj.Logical.inner.Logical.table ^ "." ^ sj.Logical.inner_key in
  let build =
    Plan.Aggregate
      {
        input =
          Plan.Scan
            {
              table = sj.Logical.inner.Logical.table;
              access = Plan.Seq_scan;
              pred = sj.Logical.inner.Logical.pred;
            };
        group_by = [ inner_key ];
        aggs = [];
      }
  in
  Plan.Project
    ( Plan.Hash_join
        { build; probe = plan; build_key = inner_key; probe_key = sj.Logical.outer_key },
      outer_columns )

let wrap_top catalog (query : Logical.t) plan =
  let with_residual =
    match query.Logical.residual with
    | Pred.True -> plan
    | residual -> Plan.Filter (plan, residual)
  in
  let with_semijoins =
    match query.Logical.semijoins with
    | [] -> with_residual
    | sjs ->
        let outer_columns =
          List.concat_map
            (fun (r : Logical.table_ref) -> qualified_columns catalog r.Logical.table)
            query.Logical.tables
        in
        List.fold_left (fun p sj -> lower_semijoin p outer_columns sj) with_residual sjs
  in
  let with_agg =
    if query.Logical.aggs = [] && query.Logical.group_by = [] then with_semijoins
    else
      Plan.Aggregate
        { input = with_semijoins; group_by = query.Logical.group_by; aggs = query.Logical.aggs }
  in
  (* The Sort is elided when the plan below already delivers the requested
     order: an ordered index scan matching the single sort key, with only
     order-preserving operators (Filter) above it.  [Index.ordered_rids]
     tie-breaks identically to the stable Sort, so the outputs are equal,
     not merely equivalent. *)
  let sort_elided =
    query.Logical.semijoins = []
    &&
    match (query.Logical.order_by, plan) with
    | ( [ { Plan.sort_column; descending } ],
        Plan.Scan
          { table; access = Plan.Index_order { column = o_col; descending = o_desc }; _ } ) ->
        o_desc = descending && String.equal sort_column (table ^ "." ^ o_col)
    | _ -> false
  in
  let with_order =
    match query.Logical.order_by with
    | [] -> with_agg
    | _ when sort_elided -> with_agg
    | keys -> Plan.Sort { input = with_agg; keys }
  in
  let with_limit =
    match query.Logical.limit with
    | Some n -> Plan.Limit (with_order, n)
    | None -> with_order
  in
  (* Sort and Limit sit below the projection: ORDER BY may name a column
     the SELECT list drops. *)
  match query.Logical.projection with
  | Some cols when query.Logical.aggs = [] && query.Logical.group_by = [] ->
      Plan.Project (with_limit, cols)
  | _ -> with_limit
