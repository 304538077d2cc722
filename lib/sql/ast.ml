type column = { table : string option; name : string }

type expr =
  | Column of column
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Date_lit of int * int * int
  | Binop of binop * expr * expr

and binop = Add | Sub | Mul | Div

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type agg_kind = Count_star | Sum | Avg | Min | Max

type condition =
  | Cmp of cmp * expr * expr
  | Between of expr * expr * expr
  | Like of expr * string
  | And of condition list
  | Or of condition list
  | Not of condition
  | In_subquery of expr * subquery
      (* expr IN (SELECT col FROM t [WHERE ...]); the subquery item must
         be a single column *)
  | Exists of subquery
      (* EXISTS (SELECT * FROM t [WHERE ...]); the correlation equality
         lives inside the subquery's WHERE *)
  | Cmp_scalar of cmp * expr * subquery
      (* expr op (SELECT AGG(e) FROM t [WHERE ...]); the subquery item
         must be an aggregate *)

and subquery = { sub_item : sub_item; sub_from : string; sub_where : condition option }

and sub_item =
  | Sub_star                          (* SELECT * — EXISTS only *)
  | Sub_column of column              (* SELECT col — IN only *)
  | Sub_agg of agg_kind * expr option (* SELECT AGG(e) — scalar comparison only *)

type select_item =
  | Star
  | Expr_item of expr * string option
  | Agg_item of agg_kind * expr option * string option

type order_item = { order_column : column; desc : bool }

type statement = {
  select : select_item list;
  from : string list;
  where : condition option;
  group_by : column list;
  order_by : order_item list;
  limit : int option;
  hints : string list;
}

let pp_column fmt { table; name } =
  match table with
  | Some t -> Format.fprintf fmt "%s.%s" t name
  | None -> Format.pp_print_string fmt name

(* The shortest exponent-free decimal that reads back as [f]: the lexer
   takes digits '.' digits, with no exponent. *)
let float_literal f =
  if not (Float.is_finite f) then invalid_arg "Ast.to_sql: non-finite float literal";
  let rec go prec =
    let s = Printf.sprintf "%.*f" prec f in
    if float_of_string s = f then s else go (prec + 1)
  in
  go 1

let quote s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let binop_symbol = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec pp_expr fmt = function
  | Column c -> pp_column fmt c
  | Int_lit i -> Format.pp_print_int fmt i
  | Float_lit f -> Format.pp_print_string fmt (float_literal f)
  | String_lit s -> Format.pp_print_string fmt (quote s)
  | Date_lit (y, m, d) -> Format.fprintf fmt "DATE '%04d-%02d-%02d'" y m d
  | Binop (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_symbol op) pp_expr b

let cmp_symbol = function Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let pp_list sep pp = Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt sep) pp

let agg_name = function
  | Count_star -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let pp_agg fmt (kind, arg) =
  let name = agg_name kind in
  match arg with
  | None -> Format.fprintf fmt "%s(*)" name
  | Some e -> Format.fprintf fmt "%s(%a)" name pp_expr e

let rec pp_condition fmt = function
  | Cmp (op, a, b) -> Format.fprintf fmt "%a %s %a" pp_expr a (cmp_symbol op) pp_expr b
  | Between (e, lo, hi) ->
      Format.fprintf fmt "%a BETWEEN %a AND %a" pp_expr e pp_expr lo pp_expr hi
  | Like (e, pattern) -> Format.fprintf fmt "%a LIKE %s" pp_expr e (quote pattern)
  | And cs -> Format.fprintf fmt "(%a)" (pp_list " AND " pp_condition) cs
  | Or cs -> Format.fprintf fmt "(%a)" (pp_list " OR " pp_condition) cs
  | Not c -> Format.fprintf fmt "NOT %a" pp_condition c
  | In_subquery (e, sub) -> Format.fprintf fmt "%a IN %a" pp_expr e pp_subquery sub
  | Exists sub -> Format.fprintf fmt "EXISTS %a" pp_subquery sub
  | Cmp_scalar (op, e, sub) ->
      Format.fprintf fmt "%a %s %a" pp_expr e (cmp_symbol op) pp_subquery sub

and pp_subquery fmt { sub_item; sub_from; sub_where } =
  (match sub_item with
  | Sub_star -> Format.pp_print_string fmt "(SELECT *"
  | Sub_column c -> Format.fprintf fmt "(SELECT %a" pp_column c
  | Sub_agg (kind, arg) -> Format.fprintf fmt "(SELECT %a" pp_agg (kind, arg));
  Format.fprintf fmt " FROM %s" sub_from;
  Option.iter (Format.fprintf fmt " WHERE %a" pp_condition) sub_where;
  Format.pp_print_string fmt ")"

let pp_alias fmt = Option.iter (Format.fprintf fmt " AS %s")

let pp_select_item fmt = function
  | Star -> Format.pp_print_string fmt "*"
  | Expr_item (e, alias) -> Format.fprintf fmt "%a%a" pp_expr e pp_alias alias
  | Agg_item (kind, arg, alias) -> Format.fprintf fmt "%a%a" pp_agg (kind, arg) pp_alias alias

let pp_order_item fmt { order_column; desc } =
  Format.fprintf fmt "%a%s" pp_column order_column (if desc then " DESC" else "")

let to_sql s =
  let sprintf = Format.asprintf in
  String.concat ""
    [
      "SELECT ";
      String.concat "" (List.map (fun h -> "/*+" ^ h ^ "*/ ") s.hints);
      sprintf "%a" (pp_list ", " pp_select_item) s.select;
      " FROM ";
      String.concat ", " s.from;
      (* the top-level conjunction needs no parentheses *)
      (match s.where with
      | None -> ""
      | Some (And cs) -> sprintf " WHERE %a" (pp_list " AND " pp_condition) cs
      | Some c -> sprintf " WHERE %a" pp_condition c);
      (if s.group_by = [] then "" else sprintf " GROUP BY %a" (pp_list ", " pp_column) s.group_by);
      (if s.order_by = [] then "" else sprintf " ORDER BY %a" (pp_list ", " pp_order_item) s.order_by);
      (match s.limit with None -> "" | Some n -> Printf.sprintf " LIMIT %d" n);
    ]
