open Rq_storage
open Rq_exec

type table_ref = { table : string; pred : Pred.t }

type semijoin = { outer_key : string; inner : table_ref; inner_key : string }

type scalar = {
  s_expr : Expr.t;
  s_cmp : Pred.cmp;
  s_agg : Plan.agg_fn;
  s_table : string;
  s_pred : Pred.t;
}

type t = {
  tables : table_ref list;
  residual : Pred.t;
  semijoins : semijoin list;
  scalars : scalar list;
  group_by : string list;
  aggs : Plan.agg list;
  projection : string list option;
  order_by : Plan.sort_key list;
  limit : int option;
  index_order : bool;
}

let scan ?(pred = Pred.True) table = { table; pred }

let query ?(residual = Pred.True) ?(semijoins = []) ?(scalars = []) ?(group_by = [])
    ?(aggs = []) ?projection ?(order_by = []) ?limit ?(index_order = false) tables =
  {
    tables;
    residual;
    semijoins;
    scalars;
    group_by;
    aggs;
    projection;
    order_by;
    limit;
    index_order;
  }

let table_names t = List.map (fun r -> r.table) t.tables

let root catalog t =
  Rq_stats.Stats_store.root_of_expression catalog (table_names t)

let is_connected catalog names =
  match names with
  | [] -> false
  | first :: _ ->
      let edges =
        List.filter
          (fun (fk : Catalog.foreign_key) ->
            List.mem fk.from_table names && List.mem fk.to_table names)
          (Catalog.all_foreign_keys catalog)
      in
      let visited = Hashtbl.create 8 in
      let rec visit name =
        if not (Hashtbl.mem visited name) then begin
          Hashtbl.add visited name ();
          List.iter
            (fun (fk : Catalog.foreign_key) ->
              if String.equal fk.from_table name then visit fk.to_table;
              if String.equal fk.to_table name then visit fk.from_table)
            edges
        end
      in
      visit first;
      List.for_all (Hashtbl.mem visited) names

let rec validate catalog t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.tables = [] then fail "query references no tables"
  else begin
    let names = table_names t in
    let dup =
      List.exists
        (fun n -> List.length (List.filter (String.equal n) names) > 1)
        names
    in
    if dup then fail "self-joins are not supported (duplicate table reference)"
    else begin
      let missing =
        List.find_opt (fun n -> Catalog.find_table_opt catalog n = None) names
      in
      match missing with
      | Some n -> fail "unknown table %s" n
      | None -> (
          let bad_pred =
            List.find_opt
              (fun { table; pred } ->
                let schema = Relation.schema (Catalog.find_table catalog table) in
                List.exists (fun c -> not (Schema.mem schema c)) (Pred.columns pred))
              t.tables
          in
          match bad_pred with
          | Some { table; _ } -> fail "predicate on %s references unknown columns" table
          | None ->
              if not (is_connected catalog names) then
                fail "join graph is not connected"
              else if List.length names > 1 && root catalog t = None then
                fail "join graph has no unique root relation"
              else validate_extensions catalog t)
    end
  end

(* Checks on the widened surface: the residual predicate, semijoins and
   scalar subqueries all reference base tables through qualified
   ["table.column"] names (residual/outer side) or a private inner table
   with unqualified names (semijoin/scalar inner side). *)
and validate_extensions catalog t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let names = table_names t in
  let qualified_ok c =
    match String.index_opt c '.' with
    | None -> false
    | Some i ->
        let table = String.sub c 0 i in
        let column = String.sub c (i + 1) (String.length c - i - 1) in
        List.mem table names
        && Schema.mem (Relation.schema (Catalog.find_table catalog table)) column
  in
  let inner_ok ({ table; pred } : table_ref) k =
    match Catalog.find_table_opt catalog table with
    | None -> fail "unknown table %s" table
    | Some rel ->
        let schema = Relation.schema rel in
        if List.exists (fun c -> not (Schema.mem schema c)) (Pred.columns pred) then
          fail "predicate on %s references unknown columns" table
        else k schema
  in
  match List.find_opt (fun c -> not (qualified_ok c)) (Pred.columns t.residual) with
  | Some c -> fail "residual predicate references unknown column %s" c
  | None -> (
      let bad_semijoin =
        List.find_map
          (fun { outer_key; inner; inner_key } ->
            if not (qualified_ok outer_key) then
              Some (Printf.sprintf "semijoin outer key %s is not a query column" outer_key)
            else if List.mem inner.table names then
              (* The lowered semijoin would re-scan a joined table and
                 collide on qualified column names (a disguised self-join). *)
              Some
                (Printf.sprintf "semijoin over %s, which is already joined in FROM"
                   inner.table)
            else
              match
                inner_ok inner (fun schema ->
                    if Schema.mem schema inner_key then Ok ()
                    else fail "semijoin inner key %s.%s does not exist" inner.table inner_key)
              with
              | Ok () -> None
              | Error e -> Some e)
          t.semijoins
      in
      match bad_semijoin with
      | Some e -> Error e
      | None -> (
          let agg_columns = function
            | Plan.Count_star -> []
            | Plan.Count e | Plan.Sum e | Plan.Avg e | Plan.Min e | Plan.Max e ->
                Expr.columns e
          in
          let bad_scalar =
            List.find_map
              (fun { s_expr; s_cmp = _; s_agg; s_table; s_pred } ->
                match
                  inner_ok { table = s_table; pred = s_pred } (fun schema ->
                      let inner_cols =
                        List.map (fun c -> s_table ^ "." ^ c)
                          (List.map (fun (col : Schema.column) -> col.Schema.name)
                             (Schema.columns schema))
                      in
                      match
                        List.find_opt
                          (fun c -> not (List.mem c inner_cols))
                          (agg_columns s_agg)
                      with
                      | Some c -> fail "scalar aggregate references %s outside %s" c s_table
                      | None -> (
                          match
                            List.find_opt (fun c -> not (qualified_ok c)) (Expr.columns s_expr)
                          with
                          | Some c -> fail "scalar comparison references unknown column %s" c
                          | None -> Ok ()))
                with
                | Ok () -> None
                | Error e -> Some e)
              t.scalars
          in
          match bad_scalar with Some e -> Error e | None -> Ok ()))

let combined_predicate t =
  Pred.conj
    (List.map
       (fun { table; pred } -> Pred.rename_columns (fun c -> table ^ "." ^ c) pred)
       t.tables)

let connected_subsets catalog t =
  let names = Array.of_list (table_names t) in
  let n = Array.length names in
  let subsets = ref [] in
  (* n is small (paper queries join at most 4 tables), so enumerate all
     bitmasks. *)
  for mask = 1 to (1 lsl n) - 1 do
    let subset = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then subset := names.(i) :: !subset
    done;
    if is_connected catalog !subset then
      subsets := List.sort String.compare !subset :: !subsets
  done;
  List.sort
    (fun a b ->
      let c = Int.compare (List.length a) (List.length b) in
      if c <> 0 then c else compare a b)
    !subsets

let pp fmt t =
  Format.fprintf fmt "SPJ{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " JOIN ")
       (fun fmt { table; pred } -> Format.fprintf fmt "%s[%a]" table Pred.pp pred))
    t.tables
