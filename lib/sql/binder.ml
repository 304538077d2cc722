open Rq_storage
open Rq_exec
open Rq_optimizer

type bound = { query : Logical.t; confidence_hint : Rq_core.Confidence.t option }

exception Bind_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt

let column_type catalog table column =
  let schema = Relation.schema (Catalog.find_table catalog table) in
  match Schema.find schema column with
  | Some { Schema.ty; _ } -> ty
  | None -> fail "column %s.%s does not exist" table column

(* Resolve an AST column to its owning table. *)
let resolve_column catalog tables { Ast.table; name } =
  match table with
  | Some t ->
      if not (List.mem t tables) then fail "table %s is not in FROM" t;
      ignore (column_type catalog t name);
      (t, name)
  | None -> (
      let owners =
        List.filter
          (fun t ->
            Schema.mem (Relation.schema (Catalog.find_table catalog t)) name)
          tables
      in
      match owners with
      | [ t ] -> (t, name)
      | [] -> fail "column %s not found in any FROM table" name
      | _ -> fail "column %s is ambiguous" name)

let date_value s =
  match Parser.parse_date_string s with
  | Some (year, month, day) -> Some (Value.date_of_ymd ~year ~month ~day)
  | None -> None

(* A string-typed operand: a string column, or a string literal that is
   not a date.  Arithmetic, SUM and AVG reject one here, so the executor
   never has to turn a string into a number. *)
let is_string catalog tables = function
  | Ast.Column c ->
      let t, name = resolve_column catalog tables c in
      column_type catalog t name = Value.T_string
  | Ast.String_lit s -> date_value s = None
  | _ -> false

(* Whether an AST expression's column side is a date column: drives
   coercion of the opposite side. *)
let rec expr_is_date catalog tables = function
  | Ast.Column c ->
      let t, name = resolve_column catalog tables c in
      column_type catalog t name = Value.T_date
  | Ast.Date_lit _ -> true
  | Ast.Binop ((Ast.Add | Ast.Sub), a, b) ->
      expr_is_date catalog tables a || expr_is_date catalog tables b
  | Ast.String_lit s -> date_value s <> None
  | _ -> false

(* Convert an AST expression to an executable expression over qualified
   column names.  [want_date] requests date coercion of string literals and
   turns integer addition/subtraction into day arithmetic. *)
let rec convert_expr catalog tables ~want_date expr =
  match expr with
  | Ast.Column c ->
      let t, name = resolve_column catalog tables c in
      Expr.col (t ^ "." ^ name)
  | Ast.Int_lit i -> Expr.int i
  | Ast.Float_lit f -> Expr.float f
  | Ast.String_lit s -> (
      if want_date then
        match date_value s with
        | Some v -> Expr.Const v
        | None -> fail "expected a date literal, got '%s'" s
      else
        match date_value s with
        | Some v -> Expr.Const v  (* dates are never useful as raw strings *)
        | None -> Expr.str s)
  | Ast.Date_lit (year, month, day) -> Expr.date ~year ~month ~day
  | Ast.Binop (op, a, b) -> (
      if is_string catalog tables a || is_string catalog tables b then
        fail "arithmetic '%s' needs numeric operands, not a string" (Ast.binop_symbol op);
      (* Day arithmetic shifts a date: the other operand must be one. *)
      let days_from e days =
        if not (expr_is_date catalog tables e) then
          fail "date arithmetic '%s' needs a date operand" (Ast.binop_symbol op);
        Expr.Add_days (convert_expr catalog tables ~want_date:true e, days)
      in
      match (op, want_date) with
      | Ast.Add, true -> (
          match (a, b) with
          | e, Ast.Int_lit days | Ast.Int_lit days, e -> days_from e days
          | _ -> fail "date arithmetic must add an integer number of days")
      | Ast.Sub, true -> (
          match b with
          | Ast.Int_lit days -> days_from a (-days)
          | _ -> fail "date arithmetic must subtract an integer number of days")
      | _ ->
          let f = convert_expr catalog tables ~want_date:false in
          let a = f a and b = f b in
          (match op with
          | Ast.Add -> Expr.Add (a, b)
          | Ast.Sub -> Expr.Sub (a, b)
          | Ast.Mul -> Expr.Mul (a, b)
          | Ast.Div -> Expr.Div (a, b)))

let convert_cmp = function
  | Ast.Eq -> Pred.Eq
  | Ast.Ne -> Pred.Ne
  | Ast.Lt -> Pred.Lt
  | Ast.Le -> Pred.Le
  | Ast.Gt -> Pred.Gt
  | Ast.Ge -> Pred.Ge

(* LIKE with leading/trailing % becomes a substring match; other patterns
   with % or _ in the middle are not supported. *)
let convert_like catalog tables e pattern =
  let stripped =
    let s = pattern in
    let s = if String.length s > 0 && s.[0] = '%' then String.sub s 1 (String.length s - 1) else s in
    if String.length s > 0 && s.[String.length s - 1] = '%' then String.sub s 0 (String.length s - 1)
    else s
  in
  if String.contains stripped '%' || String.contains stripped '_' then
    fail "only substring LIKE patterns ('%%text%%') are supported";
  let had_wildcards = not (String.equal stripped pattern) in
  let converted = convert_expr catalog tables ~want_date:false e in
  if had_wildcards then Pred.Contains (converted, stripped)
  else Pred.eq converted (Expr.str stripped)

let rec convert_condition catalog tables = function
  | Ast.Cmp (op, a, b) ->
      let want_date = expr_is_date catalog tables a || expr_is_date catalog tables b in
      Pred.Cmp
        ( convert_cmp op,
          convert_expr catalog tables ~want_date a,
          convert_expr catalog tables ~want_date b )
  | Ast.Between (e, lo, hi) ->
      let want_date = expr_is_date catalog tables e in
      Pred.Between
        ( convert_expr catalog tables ~want_date e,
          convert_expr catalog tables ~want_date lo,
          convert_expr catalog tables ~want_date hi )
  | Ast.Like (e, pattern) -> convert_like catalog tables e pattern
  | Ast.And cs -> Pred.conj (List.map (convert_condition catalog tables) cs)
  | Ast.Or cs -> Pred.Or (List.map (convert_condition catalog tables) cs)
  | Ast.Not c -> Pred.Not (convert_condition catalog tables c)
  | Ast.In_subquery _ | Ast.Exists _ | Ast.Cmp_scalar _ ->
      fail "subqueries are only supported as top-level WHERE conjuncts"

let owner_of_qualified c =
  match String.index_opt c '.' with
  | Some i -> String.sub c 0 i
  | None -> fail "internal: unqualified column %s escaped binding" c

let strip_qualifier table c =
  let prefix = table ^ "." in
  if String.length c > String.length prefix && String.sub c 0 (String.length prefix) = prefix
  then String.sub c (String.length prefix) (String.length c - String.length prefix)
  else c

(* Single-table conjuncts attach to their table (unqualified); anything
   spanning several tables — explicit FK join equalities included — lands
   in the residual, where the rewrite layer absorbs FK equalities and
   pushes down whatever later simplification makes single-table. *)
let split_where tables pred =
  let per_table = Hashtbl.create 8 in
  let residual = ref [] in
  List.iter (fun t -> Hashtbl.replace per_table t []) tables;
  List.iter
    (fun conjunct ->
      let owners =
        List.sort_uniq String.compare (List.map owner_of_qualified (Pred.columns conjunct))
      in
      match owners with
      | [] ->
          (* Constant conjunct: attach to the first table. *)
          let t = List.hd tables in
          Hashtbl.replace per_table t (conjunct :: Hashtbl.find per_table t)
      | [ t ] ->
          let local = Pred.rename_columns (strip_qualifier t) conjunct in
          Hashtbl.replace per_table t (local :: Hashtbl.find per_table t)
      | _ -> residual := conjunct :: !residual)
    (Pred.conjuncts pred);
  let refs =
    List.map
      (fun t -> { Logical.table = t; pred = Pred.conj (List.rev (Hashtbl.find per_table t)) })
      tables
  in
  (refs, Pred.conj (List.rev !residual))

(* ------------------------------------------------------------------ *)
(* Subquery binding                                                    *)
(* ------------------------------------------------------------------ *)

let rec top_conjuncts = function
  | Ast.And cs -> List.concat_map top_conjuncts cs
  | c -> [ c ]

let require_table catalog name =
  if Catalog.find_table_opt catalog name = None then fail "unknown table %s" name

let bind_inner_pred catalog sub_from sub_where =
  match sub_where with
  | None -> Pred.True
  | Some c ->
      Pred.rename_columns (strip_qualifier sub_from)
        (convert_condition catalog [ sub_from ] c)

let bind_in_subquery catalog tables lhs (sub : Ast.subquery) =
  require_table catalog sub.Ast.sub_from;
  let outer_key =
    match lhs with
    | Ast.Column c ->
        let t, n = resolve_column catalog tables c in
        t ^ "." ^ n
    | _ -> fail "IN requires a plain column on the left"
  in
  let inner_key =
    match sub.Ast.sub_item with
    | Ast.Sub_column { Ast.table; name } ->
        (match table with
        | Some t when not (String.equal t sub.Ast.sub_from) ->
            fail "subquery selects a column of %s, not its FROM table" t
        | _ -> ());
        ignore (column_type catalog sub.Ast.sub_from name);
        name
    | _ -> fail "IN subquery must select a single column"
  in
  {
    Logical.outer_key;
    inner =
      {
        Logical.table = sub.Ast.sub_from;
        pred = bind_inner_pred catalog sub.Ast.sub_from sub.Ast.sub_where;
      };
    inner_key;
  }

(* EXISTS correlates through exactly one equality conjunct between the
   subquery table and an outer column; the remaining conjuncts must be
   local to the subquery table.  The result is the same semijoin IN
   produces — the two spellings are deliberately indistinguishable
   downstream. *)
let bind_exists catalog tables (sub : Ast.subquery) =
  (match sub.Ast.sub_item with
  | Ast.Sub_star -> ()
  | _ -> fail "EXISTS subquery must select *");
  require_table catalog sub.Ast.sub_from;
  let inner = sub.Ast.sub_from in
  let classify c =
    match c with
    | Ast.Cmp (Ast.Eq, Ast.Column a, Ast.Column b) -> (
        let ta, na = resolve_column catalog (inner :: tables) a in
        let tb, nb = resolve_column catalog (inner :: tables) b in
        if String.equal ta inner && List.mem tb tables then Either.Left (tb ^ "." ^ nb, na)
        else if String.equal tb inner && List.mem ta tables then
          Either.Left (ta ^ "." ^ na, nb)
        else Either.Right c)
    | c -> Either.Right c
  in
  let correlations, local =
    List.partition_map classify
      (match sub.Ast.sub_where with None -> [] | Some c -> top_conjuncts c)
  in
  match correlations with
  | [ (outer_key, inner_key) ] ->
      let pred_ast = match local with [] -> None | cs -> Some (Ast.And cs) in
      {
        Logical.outer_key;
        inner = { Logical.table = inner; pred = bind_inner_pred catalog inner pred_ast };
        inner_key;
      }
  | [] -> fail "EXISTS subquery must correlate with an outer column (%s.k = outer.k)" inner
  | _ -> fail "EXISTS supports exactly one correlation equality"

(* SUM and AVG add their argument up: a string one is rejected. *)
let numeric_argument catalog tables kind arg =
  match (kind, arg) with
  | (Ast.Sum | Ast.Avg), Some e when is_string catalog tables e ->
      fail "%s needs a numeric argument, not a string" (Ast.agg_name kind)
  | _ -> ()

let bind_scalar catalog tables op lhs (sub : Ast.subquery) =
  require_table catalog sub.Ast.sub_from;
  let kind, arg =
    match sub.Ast.sub_item with
    | Ast.Sub_agg (k, a) -> (k, a)
    | _ -> fail "a comparison subquery must select a single aggregate"
  in
  let conv_inner e = convert_expr catalog [ sub.Ast.sub_from ] ~want_date:false e in
  numeric_argument catalog [ sub.Ast.sub_from ] kind arg;
  let s_agg =
    match (kind, arg) with
    | Ast.Count_star, None -> Rq_exec.Plan.Count_star
    | Ast.Count_star, Some e -> Rq_exec.Plan.Count (conv_inner e)
    | Ast.Sum, Some e -> Rq_exec.Plan.Sum (conv_inner e)
    | Ast.Avg, Some e -> Rq_exec.Plan.Avg (conv_inner e)
    | Ast.Min, Some e -> Rq_exec.Plan.Min (conv_inner e)
    | Ast.Max, Some e -> Rq_exec.Plan.Max (conv_inner e)
    | _, None -> fail "aggregate requires an argument"
  in
  let want_date = expr_is_date catalog tables lhs in
  {
    Logical.s_expr = convert_expr catalog tables ~want_date lhs;
    s_cmp = convert_cmp op;
    s_agg;
    s_table = sub.Ast.sub_from;
    s_pred = bind_inner_pred catalog sub.Ast.sub_from sub.Ast.sub_where;
  }

let convert_agg catalog tables index (kind, arg, alias) =
  let output_name =
    match alias with
    | Some a -> a
    | None -> Printf.sprintf "agg_%d" index
  in
  let conv e = convert_expr catalog tables ~want_date:false e in
  numeric_argument catalog tables kind arg;
  let fn =
    match (kind, arg) with
    | Ast.Count_star, None -> Rq_exec.Plan.Count_star
    | Ast.Count_star, Some e -> Rq_exec.Plan.Count (conv e)
    | Ast.Sum, Some e -> Rq_exec.Plan.Sum (conv e)
    | Ast.Avg, Some e -> Rq_exec.Plan.Avg (conv e)
    | Ast.Min, Some e -> Rq_exec.Plan.Min (conv e)
    | Ast.Max, Some e -> Rq_exec.Plan.Max (conv e)
    | _, None -> fail "aggregate requires an argument"
  in
  { Rq_exec.Plan.fn; output_name }

let bind catalog (statement : Ast.statement) =
  try
    let tables = statement.Ast.from in
    List.iter
      (fun t ->
        if Catalog.find_table_opt catalog t = None then fail "unknown table %s" t)
      tables;
    let plain, semijoins, scalars =
      let conjuncts =
        match statement.Ast.where with None -> [] | Some c -> top_conjuncts c
      in
      List.fold_left
        (fun (plain, sjs, scs) c ->
          match c with
          | Ast.In_subquery (lhs, sub) ->
              (plain, bind_in_subquery catalog tables lhs sub :: sjs, scs)
          | Ast.Exists sub -> (plain, bind_exists catalog tables sub :: sjs, scs)
          | Ast.Cmp_scalar (op, lhs, sub) ->
              (plain, sjs, bind_scalar catalog tables op lhs sub :: scs)
          | Ast.Not (Ast.In_subquery _ | Ast.Exists _) ->
              fail "NOT IN / NOT EXISTS (antijoins) are not supported"
          | c -> (c :: plain, sjs, scs))
        ([], [], []) conjuncts
    in
    let semijoins = List.rev semijoins and scalars = List.rev scalars in
    let where =
      Pred.conj (List.rev_map (convert_condition catalog tables) plain)
    in
    let refs, residual = split_where tables where in
    let group_by =
      List.map
        (fun c ->
          let t, name = resolve_column catalog tables c in
          t ^ "." ^ name)
        statement.Ast.group_by
    in
    let aggs, projection =
      let agg_items =
        List.filter_map
          (function Ast.Agg_item (k, e, a) -> Some (k, e, a) | _ -> None)
          statement.Ast.select
      in
      let plain_columns =
        List.filter_map
          (function
            | Ast.Expr_item (Ast.Column c, _) ->
                let t, name = resolve_column catalog tables c in
                Some (t ^ "." ^ name)
            | Ast.Expr_item _ -> fail "non-column, non-aggregate SELECT items are not supported"
            | _ -> None)
          statement.Ast.select
      in
      if agg_items <> [] then begin
        List.iter
          (fun c ->
            if not (List.mem c group_by) then
              fail "SELECT column %s must appear in GROUP BY alongside aggregates" c)
          plain_columns;
        (List.mapi (fun i item -> convert_agg catalog tables i item) agg_items, None)
      end
      else if group_by <> [] then fail "GROUP BY without aggregates is not supported"
      else if List.mem Ast.Star statement.Ast.select then ([], None)
      else ([], Some plain_columns)
    in
    let output_columns =
      (* Names ORDER BY may reference: aggregate aliases, grouping columns,
         and (without aggregation) any qualified column of the join. *)
      match aggs with
      | [] -> None (* resolve against base tables *)
      | _ -> Some (group_by @ List.map (fun a -> a.Rq_exec.Plan.output_name) aggs)
    in
    let order_by =
      List.map
        (fun { Ast.order_column; desc } ->
          let sort_column =
            match output_columns with
            | None ->
                let t, name = resolve_column catalog tables order_column in
                t ^ "." ^ name
            | Some available -> (
                let bare = order_column.Ast.name in
                let qualified =
                  match order_column.Ast.table with
                  | Some t -> t ^ "." ^ bare
                  | None -> bare
                in
                if List.mem qualified available then qualified
                else
                  (* A grouping column may be referenced unqualified. *)
                  match
                    List.find_opt
                      (fun c ->
                        match String.index_opt c '.' with
                        | Some i ->
                            String.sub c (i + 1) (String.length c - i - 1) = bare
                        | None -> String.equal c bare)
                      available
                  with
                  | Some c -> c
                  | None -> fail "ORDER BY column %s is not in the output" qualified)
          in
          { Rq_exec.Plan.sort_column; descending = desc })
        statement.Ast.order_by
    in
    (match statement.Ast.limit with
    | Some n when n < 0 -> fail "LIMIT must be non-negative"
    | _ -> ());
    let query =
      Logical.query ~residual ~semijoins ~scalars ~group_by ~aggs ?projection ~order_by
        ?limit:statement.Ast.limit refs
    in
    (match Logical.validate catalog query with
    | Ok () -> ()
    | Error msg -> fail "%s" msg);
    let confidence_hint =
      match
        Hint.resolve ~hints:statement.Ast.hints
          ~setting:{ Rq_core.Confidence.system_default = Rq_core.Confidence.median }
      with
      | Ok _ -> (
          (* resolve validated the hints; recover the raw override *)
          let rec last acc = function
            | [] -> acc
            | h :: rest -> (
                match Hint.parse h with
                | Ok (Some c) -> last (Some c) rest
                | _ -> last acc rest)
          in
          last None statement.Ast.hints)
      | Error msg -> fail "%s" msg
    in
    Ok { query; confidence_hint }
  with Bind_error msg -> Error msg

let compile catalog input =
  match Parser.parse input with
  | Error _ as e -> e
  | Ok statement -> bind catalog statement
