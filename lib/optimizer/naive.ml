open Rq_storage
open Rq_exec

let evaluate catalog (refs : Logical.table_ref list) =
  let names = List.map (fun (r : Logical.table_ref) -> r.Logical.table) refs in
  let root =
    match Rq_stats.Stats_store.root_of_expression catalog names with
    | Some root -> root
    | None -> (
        match names with
        | [ single ] -> single
        | _ -> invalid_arg "Naive.evaluate: expression has no unique root")
  in
  let pred_of table =
    match List.find_opt (fun (r : Logical.table_ref) -> String.equal r.Logical.table table) refs with
    | Some r -> r.Logical.pred
    | None -> Pred.True
  in
  (* Deterministic join order: BFS from the root along FK edges restricted to
     the query's tables. *)
  let order = ref [ root ] in
  let frontier = Queue.create () in
  Queue.add root frontier;
  while not (Queue.is_empty frontier) do
    let table = Queue.pop frontier in
    List.iter
      (fun (fk : Catalog.foreign_key) ->
        if List.mem fk.to_table names && not (List.mem fk.to_table !order) then begin
          order := !order @ [ fk.to_table ];
          Queue.add fk.to_table frontier
        end)
      (Catalog.foreign_keys_from catalog table)
  done;
  if List.length !order <> List.length names then
    invalid_arg "Naive.evaluate: tables not all reachable from the root";
  (* Per-table compiled predicates and pk lookup tables. *)
  let compiled = Hashtbl.create 8 in
  let lookups = Hashtbl.create 8 in
  List.iter
    (fun table ->
      let rel = Catalog.find_table catalog table in
      Hashtbl.replace compiled table (Pred.compile (Relation.schema rel) (pred_of table));
      if not (String.equal table root) then begin
        let pk =
          match Catalog.primary_key catalog table with
          | Some pk -> pk
          | None -> invalid_arg (Printf.sprintf "Naive.evaluate: %s has no primary key" table)
        in
        let pos = Schema.index_of (Relation.schema rel) pk in
        let lookup = Hashtbl.create (Relation.row_count rel) in
        Relation.iter (fun _ tup -> Hashtbl.replace lookup tup.(pos) tup) rel;
        Hashtbl.replace lookups table lookup
      end)
    !order;
  (* The FK edge used to reach each non-root table: (source table, source
     column). *)
  let incoming = Hashtbl.create 8 in
  List.iter
    (fun table ->
      List.iter
        (fun (fk : Catalog.foreign_key) ->
          if List.mem fk.to_table names && not (Hashtbl.mem incoming fk.to_table) then
            Hashtbl.replace incoming fk.to_table (fk.from_table, fk.from_column))
        (Catalog.foreign_keys_from catalog table))
    !order;
  let root_rel = Catalog.find_table catalog root in
  let root_check = Hashtbl.find compiled root in
  let out = ref [] in
  Relation.iter
    (fun _ root_tup ->
      if root_check root_tup then begin
        (* Extend the root tuple across every joined table; FK integrity
           means each step matches exactly one row or the row is dropped. *)
        let parts = Hashtbl.create 8 in
        Hashtbl.replace parts root root_tup;
        let ok = ref true in
        List.iter
          (fun table ->
            if !ok && not (String.equal table root) then begin
              let src_table, src_col = Hashtbl.find incoming table in
              match Hashtbl.find_opt parts src_table with
              | None -> ok := false
              | Some src_tup ->
                  let src_schema = Relation.schema (Catalog.find_table catalog src_table) in
                  let key = src_tup.(Schema.index_of src_schema src_col) in
                  (match Hashtbl.find_opt (Hashtbl.find lookups table) key with
                  | Some tup when Hashtbl.find compiled table tup ->
                      Hashtbl.replace parts table tup
                  | Some _ | None -> ok := false)
            end)
          !order;
        if !ok then
          out := Array.concat (List.map (fun table -> Hashtbl.find parts table) !order) :: !out
      end)
    root_rel;
  let schema =
    List.fold_left
      (fun acc table ->
        let s = Schema.qualify table (Relation.schema (Catalog.find_table catalog table)) in
        match acc with None -> Some s | Some a -> Some (Schema.concat a s))
      None !order
    |> Option.get
  in
  { Executor.schema; tuples = Array.of_list (List.rev !out) }

let cardinality catalog refs = Array.length (evaluate catalog refs).Executor.tuples

let selectivity catalog (refs : Logical.table_ref list) =
  let names = List.map (fun (r : Logical.table_ref) -> r.Logical.table) refs in
  let root =
    match Rq_stats.Stats_store.root_of_expression catalog names with
    | Some root -> root
    | None -> List.hd names
  in
  let root_rows = Relation.row_count (Catalog.find_table catalog root) in
  if root_rows = 0 then 0.0
  else float_of_int (cardinality catalog refs) /. float_of_int root_rows

(* [outer_key IN (SELECT inner_key FROM inner)]: the inner side's key set,
   NULL keys excluded (NULL IN (...) is never true). *)
let semijoin_filter catalog schema (sj : Logical.semijoin) =
  let rel = Catalog.find_table catalog sj.Logical.inner.Logical.table in
  let inner_pred = Pred.compile (Relation.schema rel) sj.Logical.inner.Logical.pred in
  let key = Schema.index_of (Relation.schema rel) sj.Logical.inner_key in
  let keys = Hashtbl.create 64 in
  Relation.iter
    (fun _ tup ->
      if inner_pred tup && not (Value.is_null tup.(key)) then Hashtbl.replace keys tup.(key) ())
    rel;
  let outer = Schema.index_of schema sj.Logical.outer_key in
  fun tup -> Hashtbl.mem keys tup.(outer)

(* GROUP BY as a fold over the joined rows: collect each group's rows in
   arrival order, then evaluate every aggregate over them with SQL's NULL
   rules (NULL inputs are skipped; SUM/AVG/MIN/MAX of no values are NULL).
   A grand total yields one row even on empty input. *)
let aggregate (res : Executor.result) ~group_by ~aggs =
  let schema = res.Executor.schema in
  let key_positions = List.map (Schema.index_of schema) group_by in
  let groups = Hashtbl.create 16 in
  let keys = ref (if group_by = [] then [ [] ] else []) in
  if group_by = [] then Hashtbl.replace groups [] [];
  Array.iter
    (fun tup ->
      let key = List.map (fun p -> tup.(p)) key_positions in
      match Hashtbl.find_opt groups key with
      | Some rows -> Hashtbl.replace groups key (tup :: rows)
      | None ->
          keys := key :: !keys;
          Hashtbl.replace groups key [ tup ])
    res.Executor.tuples;
  let fold rows { Plan.fn; _ } =
    let values e = List.filter (fun v -> not (Value.is_null v)) (List.map (Expr.compile schema e) rows) in
    let sum vs = List.fold_left (fun acc v -> acc +. Value.to_float v) 0.0 vs in
    let extreme keep e =
      List.fold_left
        (fun acc v -> if Value.is_null acc || keep (Value.compare v acc) then v else acc)
        Value.Null (values e)
    in
    match fn with
    | Plan.Count_star -> Value.Int (List.length rows)
    | Plan.Count e -> Value.Int (List.length (values e))
    | Plan.Sum e -> ( match values e with [] -> Value.Null | vs -> Value.Float (sum vs))
    | Plan.Avg e -> (
        match values e with
        | [] -> Value.Null
        | vs -> Value.Float (sum vs /. float_of_int (List.length vs)))
    | Plan.Min e -> extreme (fun c -> c < 0) e
    | Plan.Max e -> extreme (fun c -> c > 0) e
  in
  let agg_column { Plan.fn; output_name } =
    let ty = match fn with Plan.Count_star | Plan.Count _ -> Value.T_int | _ -> Value.T_float in
    { Schema.name = output_name; ty }
  in
  {
    Executor.schema =
      Schema.create (List.map (Schema.column_at schema) key_positions @ List.map agg_column aggs);
    tuples =
      Array.of_list
        (List.rev_map
           (fun key -> Array.of_list (key @ List.map (fold (List.rev (Hashtbl.find groups key))) aggs))
           !keys);
  }

let evaluate_query catalog (q : Logical.t) =
  if q.Logical.scalars <> [] then
    invalid_arg "Naive.evaluate_query: scalar subqueries are outside the oracle's query class";
  let joined = evaluate catalog q.Logical.tables in
  let joined =
    let schema = joined.Executor.schema in
    let keep =
      Pred.compile schema q.Logical.residual
      :: List.map (semijoin_filter catalog schema) q.Logical.semijoins
    in
    let rows = List.filter (fun tup -> List.for_all (fun f -> f tup) keep) (Array.to_list joined.Executor.tuples) in
    { joined with Executor.tuples = Array.of_list rows }
  in
  let apply_projection (res : Executor.result) =
    match q.Logical.projection with
    | None -> res
    | Some cols ->
        let positions = List.map (Schema.index_of res.Executor.schema) cols in
        {
          Executor.schema = Schema.project res.Executor.schema cols;
          tuples =
            Array.map
              (fun tup -> Array.of_list (List.map (fun p -> tup.(p)) positions))
              res.Executor.tuples;
        }
  in
  let apply_order_limit (res : Executor.result) =
    let ordered =
      match q.Logical.order_by with
      | [] -> res
      | keys ->
          let positions =
            List.map
              (fun { Plan.sort_column; descending } ->
                (Schema.index_of res.Executor.schema sort_column, descending))
              keys
          in
          let indexed = Array.mapi (fun i tup -> (i, tup)) res.Executor.tuples in
          Array.sort
            (fun (i, a) (j, b) ->
              let rec go = function
                | [] -> Int.compare i j
                | (pos, descending) :: rest ->
                    let c = Value.compare a.(pos) b.(pos) in
                    if c <> 0 then if descending then -c else c else go rest
              in
              go positions)
            indexed;
          { res with Executor.tuples = Array.map snd indexed }
    in
    match q.Logical.limit with
    | Some n ->
        {
          ordered with
          Executor.tuples =
            Array.sub ordered.Executor.tuples 0
              (max 0 (min n (Array.length ordered.Executor.tuples)));
        }
    | None -> ordered
  in
  (* Order and limit before projecting: ORDER BY may name a column the
     SELECT list drops. *)
  if q.Logical.aggs = [] && q.Logical.group_by = [] then
    apply_projection (apply_order_limit joined)
  else apply_order_limit (aggregate joined ~group_by:q.Logical.group_by ~aggs:q.Logical.aggs)
