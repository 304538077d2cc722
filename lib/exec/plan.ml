open Rq_storage

type probe = { column : string; lo : Value.t option; hi : Value.t option }

type access =
  | Seq_scan
  | Index_range of probe
  | Index_intersect of probe list
  | Index_order of { column : string; descending : bool }

type agg_fn =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type agg = { fn : agg_fn; output_name : string }

type sort_key = { sort_column : string; descending : bool }

type star_dim = { dim_table : string; dim_pred : Pred.t; fact_fk : string }

type t =
  | Scan of { table : string; access : access; pred : Pred.t }
  | Scan_resume of { table : string; pred : Pred.t; from_rid : int }
  | Hash_join of { build : t; probe : t; build_key : string; probe_key : string }
  | Merge_join of { left : t; right : t; left_key : string; right_key : string }
  | Indexed_nl_join of {
      outer : t;
      outer_key : string;
      inner_table : string;
      inner_key : string;
      inner_pred : Pred.t;
    }
  | Star_semijoin of { fact : string; fact_pred : Pred.t; dims : star_dim list }
  | Filter of t * Pred.t
  | Project of t * string list
  | Aggregate of { input : t; group_by : string list; aggs : agg list }
  | Sort of { input : t; keys : sort_key list }
  | Limit of t * int
  | Guard of { input : t; expected_rows : float; max_q_error : float; label : string }
  | Materialized of {
      name : string;
      schema : Schema.t;
      cols : Value.t array array;
      n_rows : int;
      refs : (string * Pred.t) list;
    }
  | Append of t list

let qualified_schema catalog table =
  Schema.qualify table (Relation.schema (Catalog.find_table catalog table))

let agg_output_type = function
  | Count_star | Count _ -> Value.T_int
  | Sum _ | Avg _ -> Value.T_float
  | Min _ | Max _ -> Value.T_float

let rec schema_of catalog = function
  | Scan { table; _ } | Scan_resume { table; _ } -> qualified_schema catalog table
  | Append [] -> invalid_arg "Plan.schema_of: empty Append"
  | Append (part :: _) -> schema_of catalog part
  | Hash_join { build; probe; _ } ->
      Schema.concat (schema_of catalog build) (schema_of catalog probe)
  | Merge_join { left; right; _ } ->
      Schema.concat (schema_of catalog left) (schema_of catalog right)
  | Indexed_nl_join { outer; inner_table; _ } ->
      Schema.concat (schema_of catalog outer) (qualified_schema catalog inner_table)
  | Star_semijoin { fact; dims; _ } ->
      List.fold_left
        (fun acc { dim_table; _ } -> Schema.concat acc (qualified_schema catalog dim_table))
        (qualified_schema catalog fact)
        dims
  | Filter (input, _) -> schema_of catalog input
  | Sort { input; _ } | Limit (input, _) -> schema_of catalog input
  | Guard { input; _ } -> schema_of catalog input
  | Materialized { schema; _ } -> schema
  | Project (input, cols) -> Schema.project (schema_of catalog input) cols
  | Aggregate { input; group_by; aggs } ->
      let input_schema = schema_of catalog input in
      let group_cols =
        List.map
          (fun c -> Schema.column_at input_schema (Schema.index_of input_schema c))
          group_by
      in
      let agg_cols =
        List.map
          (fun { fn; output_name } -> { Schema.name = output_name; ty = agg_output_type fn })
          aggs
      in
      Schema.create (group_cols @ agg_cols)

let base_tables plan =
  let add acc t = if List.mem t acc then acc else t :: acc in
  let rec go acc = function
    | Scan { table; _ } | Scan_resume { table; _ } -> add acc table
    | Append parts -> List.fold_left go acc parts
    | Hash_join { build; probe; _ } -> go (go acc build) probe
    | Merge_join { left; right; _ } -> go (go acc left) right
    | Indexed_nl_join { outer; inner_table; _ } -> add (go acc outer) inner_table
    | Star_semijoin { fact; dims; _ } ->
        List.fold_left (fun acc { dim_table; _ } -> add acc dim_table) (add acc fact) dims
    | Filter (input, _) | Project (input, _) -> go acc input
    | Sort { input; _ } | Limit (input, _) -> go acc input
    | Aggregate { input; _ } -> go acc input
    | Guard { input; _ } -> go acc input
    | Materialized { refs; _ } ->
        List.fold_left (fun acc (table, _) -> add acc table) acc refs
  in
  List.rev (go [] plan)

let validate catalog plan =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_index table column k =
    match Catalog.find_index catalog ~table ~column with
    | Some _ -> k ()
    | None -> fail "no index on %s.%s" table column
  in
  let check_column schema column k =
    if Schema.mem schema column then k () else fail "column %s not in scope" column
  in
  let rec go = function
    | Scan { table; access; pred = _ } -> (
        match Catalog.find_table_opt catalog table with
        | None -> fail "unknown table %s" table
        | Some _ -> (
            match access with
            | Seq_scan -> Ok ()
            | Index_range p -> check_index table p.column (fun () -> Ok ())
            | Index_intersect probes ->
                if List.length probes < 2 then
                  fail "Index_intersect on %s needs >= 2 probes" table
                else
                  List.fold_left
                    (fun acc p ->
                      match acc with
                      | Error _ as e -> e
                      | Ok () -> check_index table p.column (fun () -> Ok ()))
                    (Ok ()) probes
            | Index_order { column; descending = _ } ->
                check_index table column (fun () -> Ok ())))
    | Hash_join { build; probe; build_key; probe_key } -> (
        match (go build, go probe) with
        | Ok (), Ok () ->
            check_column (schema_of catalog build) build_key (fun () ->
                check_column (schema_of catalog probe) probe_key (fun () -> Ok ()))
        | (Error _ as e), _ | _, (Error _ as e) -> e)
    | Merge_join { left; right; left_key; right_key } -> (
        match (go left, go right) with
        | Ok (), Ok () ->
            check_column (schema_of catalog left) left_key (fun () ->
                check_column (schema_of catalog right) right_key (fun () -> Ok ()))
        | (Error _ as e), _ | _, (Error _ as e) -> e)
    | Indexed_nl_join { outer; outer_key; inner_table; inner_key; inner_pred = _ } -> (
        match go outer with
        | Error _ as e -> e
        | Ok () ->
            check_column (schema_of catalog outer) outer_key (fun () ->
                match Catalog.find_table_opt catalog inner_table with
                | None -> fail "unknown table %s" inner_table
                | Some _ -> check_index inner_table inner_key (fun () -> Ok ())))
    | Star_semijoin { fact; fact_pred = _; dims } -> (
        match Catalog.find_table_opt catalog fact with
        | None -> fail "unknown fact table %s" fact
        | Some _ ->
            if dims = [] then fail "Star_semijoin needs at least one dimension"
            else
              List.fold_left
                (fun acc { dim_table; fact_fk; _ } ->
                  match acc with
                  | Error _ as e -> e
                  | Ok () -> (
                      match Catalog.fk_edge catalog ~from_table:fact ~to_table:dim_table with
                      | None -> fail "no FK edge %s -> %s" fact dim_table
                      | Some fk when not (String.equal fk.from_column fact_fk) ->
                          fail "FK %s -> %s is on %s, plan says %s" fact dim_table
                            fk.from_column fact_fk
                      | Some _ -> check_index fact fact_fk (fun () -> Ok ())))
                (Ok ()) dims)
    | Filter (input, pred) -> (
        match go input with
        | Error _ as e -> e
        | Ok () ->
            let schema = schema_of catalog input in
            List.fold_left
              (fun acc c ->
                match acc with Error _ as e -> e | Ok () -> check_column schema c (fun () -> Ok ()))
              (Ok ()) (Pred.columns pred))
    | Project (input, cols) -> (
        match go input with
        | Error _ as e -> e
        | Ok () ->
            let schema = schema_of catalog input in
            List.fold_left
              (fun acc c ->
                match acc with Error _ as e -> e | Ok () -> check_column schema c (fun () -> Ok ()))
              (Ok ()) cols)
    | Sort { input; keys } -> (
        match go input with
        | Error _ as e -> e
        | Ok () ->
            let schema = schema_of catalog input in
            List.fold_left
              (fun acc { sort_column; _ } ->
                match acc with
                | Error _ as e -> e
                | Ok () -> check_column schema sort_column (fun () -> Ok ()))
              (Ok ()) keys)
    | Limit (input, n) ->
        if n < 0 then fail "LIMIT must be non-negative" else go input
    | Aggregate { input; group_by; aggs } -> (
        match go input with
        | Error _ as e -> e
        | Ok () ->
            let schema = schema_of catalog input in
            let agg_columns { fn; _ } =
              match fn with
              | Count_star -> []
              | Count e | Sum e | Avg e | Min e | Max e -> Expr.columns e
            in
            let needed = group_by @ List.concat_map agg_columns aggs in
            List.fold_left
              (fun acc c ->
                match acc with Error _ as e -> e | Ok () -> check_column schema c (fun () -> Ok ()))
              (Ok ()) needed)
    | Guard { input; expected_rows; max_q_error; label = _ } ->
        if max_q_error < 1.0 then fail "guard max_q_error must be >= 1.0"
        else if expected_rows < 0.0 then fail "guard expected_rows must be >= 0"
        else go input
    | Materialized { schema; cols; n_rows; _ } ->
        if Array.length cols <> Schema.arity schema then
          fail "materialized columns do not match schema width"
        else if Array.exists (fun col -> Array.length col <> n_rows) cols then
          fail "materialized column lengths do not match its %d rows" n_rows
        else Ok ()
    | Scan_resume { table; pred = _; from_rid } -> (
        match Catalog.find_table_opt catalog table with
        | None -> fail "unknown table %s" table
        | Some _ -> if from_rid < 0 then fail "Scan_resume from_rid must be >= 0" else Ok ())
    | Append parts -> (
        match parts with
        | [] -> fail "Append needs at least one input"
        | first :: rest -> (
            match
              List.fold_left
                (fun acc p -> match acc with Error _ as e -> e | Ok () -> go p)
                (Ok ()) parts
            with
            | Error _ as e -> e
            | Ok () ->
                let names p =
                  List.map (fun (c : Schema.column) -> c.Schema.name)
                    (Schema.columns (schema_of catalog p))
                in
                let expected = names first in
                if List.for_all (fun p -> names p = expected) rest then Ok ()
                else fail "Append inputs have mismatched schemas"))
  in
  go plan

let pp_probe fmt { column; lo; hi } =
  let pp_bound fmt = function
    | Some v -> Value.pp fmt v
    | None -> Format.pp_print_string fmt "-inf"
  in
  Format.fprintf fmt "%a <= %s <= %a" pp_bound lo column
    (fun fmt -> function Some v -> Value.pp fmt v | None -> Format.pp_print_string fmt "+inf")
    hi

let pp_access fmt = function
  | Seq_scan -> Format.pp_print_string fmt "SeqScan"
  | Index_range p -> Format.fprintf fmt "IndexRange[%a]" pp_probe p
  | Index_intersect ps ->
      Format.fprintf fmt "IndexIntersect[%a]"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ") pp_probe)
        ps
  | Index_order { column; descending } ->
      Format.fprintf fmt "IndexOrder[%s %s]" column (if descending then "DESC" else "ASC")

let pp_agg fmt { fn; output_name } =
  (match fn with
  | Count_star -> Format.pp_print_string fmt "COUNT(*)"
  | Count e -> Format.fprintf fmt "COUNT(%a)" Expr.pp e
  | Sum e -> Format.fprintf fmt "SUM(%a)" Expr.pp e
  | Avg e -> Format.fprintf fmt "AVG(%a)" Expr.pp e
  | Min e -> Format.fprintf fmt "MIN(%a)" Expr.pp e
  | Max e -> Format.fprintf fmt "MAX(%a)" Expr.pp e);
  Format.fprintf fmt " AS %s" output_name

let rec pp_indented fmt depth plan =
  let indent fmt depth =
    for _ = 1 to depth do
      Format.pp_print_string fmt "  "
    done
  in
  indent fmt depth;
  match plan with
  | Scan { table; access; pred } ->
      Format.fprintf fmt "%a(%s) filter: %a@." pp_access access table Pred.pp pred
  | Hash_join { build; probe; build_key; probe_key } ->
      Format.fprintf fmt "HashJoin(%s = %s)@." build_key probe_key;
      pp_indented fmt (depth + 1) build;
      pp_indented fmt (depth + 1) probe
  | Merge_join { left; right; left_key; right_key } ->
      Format.fprintf fmt "MergeJoin(%s = %s)@." left_key right_key;
      pp_indented fmt (depth + 1) left;
      pp_indented fmt (depth + 1) right
  | Indexed_nl_join { outer; outer_key; inner_table; inner_key; inner_pred } ->
      Format.fprintf fmt "IndexedNLJoin(%s = %s.%s) inner filter: %a@." outer_key
        inner_table inner_key Pred.pp inner_pred;
      pp_indented fmt (depth + 1) outer
  | Star_semijoin { fact; fact_pred; dims } ->
      Format.fprintf fmt "StarSemijoin(%s) filter: %a@." fact Pred.pp fact_pred;
      List.iter
        (fun { dim_table; dim_pred; fact_fk } ->
          indent fmt (depth + 1);
          Format.fprintf fmt "dim %s via %s.%s filter: %a@." dim_table fact fact_fk
            Pred.pp dim_pred)
        dims
  | Filter (input, pred) ->
      Format.fprintf fmt "Filter: %a@." Pred.pp pred;
      pp_indented fmt (depth + 1) input
  | Project (input, cols) ->
      Format.fprintf fmt "Project: %s@." (String.concat ", " cols);
      pp_indented fmt (depth + 1) input
  | Aggregate { input; group_by; aggs } ->
      Format.fprintf fmt "Aggregate group by [%s]: %a@."
        (String.concat ", " group_by)
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_agg)
        aggs;
      pp_indented fmt (depth + 1) input
  | Sort { input; keys } ->
      Format.fprintf fmt "Sort: %s@."
        (String.concat ", "
           (List.map
              (fun { sort_column; descending } ->
                sort_column ^ if descending then " DESC" else " ASC")
              keys));
      pp_indented fmt (depth + 1) input
  | Limit (input, n) ->
      Format.fprintf fmt "Limit %d@." n;
      pp_indented fmt (depth + 1) input
  | Guard { input; expected_rows; max_q_error; label = _ } ->
      Format.fprintf fmt "Guard expect ~%.1f rows, max q-error %.1f@." expected_rows
        max_q_error;
      pp_indented fmt (depth + 1) input
  | Materialized { name; n_rows; _ } ->
      Format.fprintf fmt "Materialized(%s: %d rows)@." name n_rows
  | Scan_resume { table; pred; from_rid } ->
      Format.fprintf fmt "ResumeScan(%s from rid %d) filter: %a@." table from_rid Pred.pp pred
  | Append parts ->
      Format.fprintf fmt "Append@.";
      List.iter (pp_indented fmt (depth + 1)) parts

let pp fmt plan = pp_indented fmt 0 plan

(* Symmetric relative error with 0.5 floors so empty results stay finite.
   The single definition shared by the executor's guards and EXPLAIN
   ANALYZE — both must agree on exactly when a checkpoint fires. *)
let q_error ~expected ~actual =
  let est = Float.max expected 0.5 and act = Float.max (float_of_int actual) 0.5 in
  Float.max (est /. act) (act /. est)

let node_label = function
  | Scan { table; access; _ } -> (
      match access with
      | Seq_scan -> Printf.sprintf "SeqScan(%s)" table
      | Index_range p -> Printf.sprintf "IndexRange(%s.%s)" table p.column
      | Index_intersect ps ->
          Printf.sprintf "IndexIntersect(%s: %s)" table
            (String.concat "," (List.map (fun p -> p.column) ps))
      | Index_order { column; descending } ->
          Printf.sprintf "IndexOrder(%s.%s%s)" table column
            (if descending then " desc" else ""))
  | Hash_join { build_key; probe_key; _ } ->
      Printf.sprintf "HashJoin(%s = %s)" build_key probe_key
  | Merge_join { left_key; right_key; _ } ->
      Printf.sprintf "MergeJoin(%s = %s)" left_key right_key
  | Indexed_nl_join { outer_key; inner_table; inner_key; _ } ->
      Printf.sprintf "IndexedNLJoin(%s = %s.%s)" outer_key inner_table inner_key
  | Star_semijoin { fact; dims; _ } ->
      Printf.sprintf "StarSemijoin(%s; %s)" fact
        (String.concat "," (List.map (fun d -> d.dim_table) dims))
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Sort _ -> "Sort"
  | Limit (_, n) -> Printf.sprintf "Limit(%d)" n
  | Aggregate _ -> "Aggregate"
  | Guard { max_q_error; _ } -> Printf.sprintf "Guard(max q-error %.1f)" max_q_error
  | Materialized { name; _ } -> Printf.sprintf "Materialized(%s)" name
  | Scan_resume { table; from_rid; _ } -> Printf.sprintf "ResumeScan(%s@%d)" table from_rid
  | Append _ -> "Append"

let rec describe = function
  | Scan { table; access; _ } -> (
      match access with
      | Seq_scan -> Printf.sprintf "Scan(%s)" table
      | Index_range _ -> Printf.sprintf "IdxRange(%s)" table
      | Index_intersect _ -> Printf.sprintf "IdxIsect(%s)" table
      | Index_order _ -> Printf.sprintf "IdxOrder(%s)" table)
  | Hash_join { build; probe; _ } ->
      Printf.sprintf "Hash(%s,%s)" (describe build) (describe probe)
  | Merge_join { left; right; _ } ->
      Printf.sprintf "Merge(%s,%s)" (describe left) (describe right)
  | Indexed_nl_join { outer; inner_table; _ } ->
      Printf.sprintf "INL(%s,%s)" (describe outer) inner_table
  | Star_semijoin { fact; dims; _ } ->
      Printf.sprintf "Semijoin(%s;%s)" fact
        (String.concat "," (List.map (fun d -> d.dim_table) dims))
  | Filter (input, _) -> describe input
  | Project (input, _) -> describe input
  | Sort { input; _ } -> describe input
  | Limit (input, _) -> describe input
  | Aggregate { input; _ } -> describe input
  | Guard { input; _ } -> describe input
  | Materialized { name; _ } -> Printf.sprintf "Mat(%s)" name
  | Scan_resume { table; _ } -> Printf.sprintf "Resume(%s)" table
  | Append parts ->
      Printf.sprintf "Append(%s)" (String.concat "," (List.map describe parts))

(* Remove every guard, keeping the guarded subplans: the plan that would
   have run had the optimizer not asked for runtime validation. *)
let rec strip_guards = function
  | Scan _ as p -> p
  | Hash_join { build; probe; build_key; probe_key } ->
      Hash_join
        { build = strip_guards build; probe = strip_guards probe; build_key; probe_key }
  | Merge_join { left; right; left_key; right_key } ->
      Merge_join { left = strip_guards left; right = strip_guards right; left_key; right_key }
  | Indexed_nl_join j -> Indexed_nl_join { j with outer = strip_guards j.outer }
  | Star_semijoin _ as p -> p
  | Filter (input, pred) -> Filter (strip_guards input, pred)
  | Project (input, cols) -> Project (strip_guards input, cols)
  | Aggregate { input; group_by; aggs } ->
      Aggregate { input = strip_guards input; group_by; aggs }
  | Sort { input; keys } -> Sort { input = strip_guards input; keys }
  | Limit (input, n) -> Limit (strip_guards input, n)
  | Guard { input; _ } -> strip_guards input
  | Materialized _ as p -> p
  | Scan_resume _ as p -> p
  | Append parts -> Append (List.map strip_guards parts)

let children = function
  | Scan _ | Scan_resume _ | Star_semijoin _ | Materialized _ -> []
  | Append parts -> parts
  | Hash_join { build; probe; _ } -> [ build; probe ]
  | Merge_join { left; right; _ } -> [ left; right ]
  | Indexed_nl_join { outer; _ } -> [ outer ]
  | Filter (input, _) | Project (input, _) | Limit (input, _) -> [ input ]
  | Aggregate { input; _ } | Sort { input; _ } | Guard { input; _ } -> [ input ]

let rec guard_count plan =
  List.fold_left
    (fun acc child -> acc + guard_count child)
    (match plan with Guard _ -> 1 | _ -> 0)
    (children plan)
