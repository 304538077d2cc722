type foreign_key = {
  from_table : string;
  from_column : string;
  to_table : string;
  to_column : string;
}

type table_entry = {
  relation : Relation.t;
  primary_key : string option;
  clustered_by : string option;
}

type t = {
  tables : (string, table_entry) Hashtbl.t;
  indexes : (string * string, Index.t) Hashtbl.t;
  mutable foreign_keys : foreign_key list;
}

let create () =
  { tables = Hashtbl.create 16; indexes = Hashtbl.create 16; foreign_keys = [] }

let add_table t ?primary_key ?clustered_by rel =
  let name = Relation.name rel in
  if Hashtbl.mem t.tables name then
    invalid_arg (Printf.sprintf "Catalog.add_table: duplicate table %S" name);
  let check_col what = function
    | Some c when not (Schema.mem (Relation.schema rel) c) ->
        invalid_arg
          (Printf.sprintf "Catalog.add_table %s: %s column %S not in schema" name what c)
    | _ -> ()
  in
  check_col "primary-key" primary_key;
  check_col "clustering" clustered_by;
  let clustered_by = match clustered_by with Some _ as c -> c | None -> primary_key in
  Hashtbl.add t.tables name { relation = rel; primary_key; clustered_by }

let find_table_opt t name =
  Option.map (fun e -> e.relation) (Hashtbl.find_opt t.tables name)

let find_table t name =
  match find_table_opt t name with Some r -> r | None -> raise Not_found

let replace_table t rel =
  let name = Relation.name rel in
  match Hashtbl.find_opt t.tables name with
  | None -> invalid_arg (Printf.sprintf "Catalog.replace_table: unknown table %S" name)
  | Some entry ->
      let old_columns = Schema.columns (Relation.schema entry.relation) in
      let new_columns = Schema.columns (Relation.schema rel) in
      if old_columns <> new_columns then
        invalid_arg (Printf.sprintf "Catalog.replace_table %s: schema changed" name);
      (* Registered indexes reflect the heap: patch each against the old
         version while its chunks are still in the pool.  An index whose
         column did not change comes back as itself. *)
      Hashtbl.filter_map_inplace
        (fun (table, _) idx ->
          Some (if String.equal table name then Index.refresh idx ~old:entry.relation rel else idx))
        t.indexes;
      Hashtbl.replace t.tables name { entry with relation = rel };
      (* Pool keys carry the relation id, so nothing would ever hit the old
         relation's chunks again: release them now instead of holding their
         memory until they age out. *)
      Relation.evict entry.relation

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [] |> List.sort String.compare

let primary_key t name =
  match Hashtbl.find_opt t.tables name with
  | Some e -> e.primary_key
  | None -> raise Not_found

let clustered_by t name =
  match Hashtbl.find_opt t.tables name with
  | Some e -> e.clustered_by
  | None -> raise Not_found

let build_index t ~table ~column =
  if not (Hashtbl.mem t.indexes (table, column)) then begin
    let rel = find_table t table in
    Hashtbl.add t.indexes (table, column) (Index.build rel column)
  end

let find_index t ~table ~column = Hashtbl.find_opt t.indexes (table, column)

let indexes_on t table =
  Hashtbl.fold
    (fun (tbl, _) idx acc -> if String.equal tbl table then idx :: acc else acc)
    t.indexes []
  |> List.sort (fun a b -> String.compare (Index.column a) (Index.column b))

let foreign_keys_from t table =
  List.filter (fun fk -> String.equal fk.from_table table) t.foreign_keys

let foreign_keys_into t table =
  List.filter (fun fk -> String.equal fk.to_table table) t.foreign_keys

let all_foreign_keys t = t.foreign_keys

let fk_edge t ~from_table ~to_table =
  List.find_opt
    (fun fk -> String.equal fk.from_table from_table && String.equal fk.to_table to_table)
    t.foreign_keys

let reachable_via_fk t root =
  let visited = Hashtbl.create 8 in
  let order = ref [] in
  let rec visit name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.add visited name ();
      order := name :: !order;
      List.iter (fun fk -> visit fk.to_table) (foreign_keys_from t name)
    end
  in
  visit root;
  List.rev !order

let add_foreign_key t fk =
  let check_column table column =
    let rel = find_table t table in
    if not (Schema.mem (Relation.schema rel) column) then
      invalid_arg
        (Printf.sprintf "Catalog.add_foreign_key: column %s.%s does not exist" table column)
  in
  check_column fk.from_table fk.from_column;
  check_column fk.to_table fk.to_column;
  (match primary_key t fk.to_table with
  | Some pk when String.equal pk fk.to_column -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Catalog.add_foreign_key: %s.%s is not the primary key of %s"
           fk.to_table fk.to_column fk.to_table));
  (* Acyclicity: the referenced table must not already reach the referencing
     table through existing FK edges. *)
  if List.mem fk.from_table (reachable_via_fk t fk.to_table) then
    invalid_arg
      (Printf.sprintf "Catalog.add_foreign_key: edge %s -> %s would create a cycle"
         fk.from_table fk.to_table);
  t.foreign_keys <- fk :: t.foreign_keys
