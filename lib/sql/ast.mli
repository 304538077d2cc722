(** Abstract syntax for the supported SQL subset: single-block
    SELECT-FROM-WHERE-GROUP BY with aggregates, conjunctive/disjunctive
    predicates, BETWEEN, LIKE, arithmetic, date literals, ORDER BY/LIMIT,
    IN/EXISTS semijoin subqueries, scalar aggregate subqueries, and
    optimizer hints. *)

type column = { table : string option; name : string }

type expr =
  | Column of column
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Date_lit of int * int * int  (** year, month, day *)
  | Binop of binop * expr * expr

and binop = Add | Sub | Mul | Div

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type agg_kind = Count_star | Sum | Avg | Min | Max

type condition =
  | Cmp of cmp * expr * expr
  | Between of expr * expr * expr
  | Like of expr * string  (** pattern with optional leading/trailing %% *)
  | And of condition list
  | Or of condition list
  | Not of condition
  | In_subquery of expr * subquery
      (** [expr IN (SELECT col FROM t [WHERE ...])]; item must be
          {!Sub_column} *)
  | Exists of subquery
      (** [EXISTS (SELECT * FROM t [WHERE ...])]; the correlation
          equality lives inside the subquery's WHERE *)
  | Cmp_scalar of cmp * expr * subquery
      (** [expr op (SELECT AGG(e) FROM t [WHERE ...])]; item must be
          {!Sub_agg} *)

and subquery = { sub_item : sub_item; sub_from : string; sub_where : condition option }

and sub_item =
  | Sub_star
  | Sub_column of column
  | Sub_agg of agg_kind * expr option

type select_item =
  | Star
  | Expr_item of expr * string option          (** expression, alias *)
  | Agg_item of agg_kind * expr option * string option

type order_item = { order_column : column; desc : bool }

type statement = {
  select : select_item list;
  from : string list;
  where : condition option;
  group_by : column list;
  order_by : order_item list;
  limit : int option;
  hints : string list;  (** raw hint comment bodies, in source order *)
}

val to_sql : statement -> string
(** The statement as one line of SQL that {!Parser.parse} reads back to an
    equal statement.  Float literals print as the shortest exponent-free
    decimal that reads back to the same float. *)

val binop_symbol : binop -> string
(** The operator as SQL spells it: ["+"], ["-"], ["*"] or ["/"]. *)

val agg_name : agg_kind -> string
(** The aggregate's SQL name, e.g. ["SUM"]. *)
