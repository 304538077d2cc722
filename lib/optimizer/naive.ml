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

let evaluate_query catalog (q : Logical.t) =
  let joined = evaluate catalog q.Logical.tables in
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
  else begin
    (* Delegate grouping to the executor over the materialized join: register
       it as a temporary table under a scratch catalog.  The temp table's
       columns are already qualified, so the scan must not re-qualify them —
       hence the identity-qualification via already-dotted names. *)
    let scratch = Catalog.create () in
    let temp = Executor.result_to_relation ~name:"naive_temp" joined in
    Catalog.add_table scratch temp;
    let meter = Cost.create () in
    let plan =
      Plan.Aggregate
        {
          input = Plan.Scan { table = "naive_temp"; access = Plan.Seq_scan; pred = Pred.True };
          group_by = q.Logical.group_by;
          aggs = q.Logical.aggs;
        }
    in
    apply_order_limit (Executor.run scratch meter plan)
  end
