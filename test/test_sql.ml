(* Tests for rq_sql: lexer, parser, hints, and the binder (including date
   coercion, FK-join absorption, and end-to-end equivalence with direct
   logical-query construction). *)

open Rq_storage
open Rq_exec
open Rq_sql

(* Every statement this suite parses also passes the printing law:
   [Ast.to_sql] prints SQL that parses back to the same statement. *)
module Parser = struct
  include Parser

  let parse input =
    let result = parse input in
    (match result with
    | Error _ -> ()
    | Ok s -> (
        let printed = Ast.to_sql s in
        match parse printed with
        | Ok s' when s' = s -> ()
        | Ok _ -> Alcotest.failf "%S prints as %S, which parses to another statement" input printed
        | Error e -> Alcotest.failf "%S prints as %S, which does not parse: %s" input printed e));
    result
end

module Binder = struct
  include Binder

  let compile catalog input = Result.bind (Parser.parse input) (bind catalog)
end

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tokens_of input =
  match Lexer.tokenize input with
  | Ok tokens -> tokens
  | Error msg -> Alcotest.failf "lex error: %s" msg

let test_lexer_basics () =
  let tokens = tokens_of "SELECT a, b2 FROM t WHERE a >= 1.5" in
  check_int "token count" 11 (List.length tokens);
  check_bool "keyword recognized (case-insensitively)" true
    (Token.is_keyword (List.hd tokens) "select");
  check_bool "float literal" true (List.mem (Token.Float_lit 1.5) tokens);
  check_bool ">= is one token" true (List.mem (Token.Symbol ">=") tokens)

let test_lexer_strings () =
  let tokens = tokens_of "'it''s' 'plain'" in
  check_bool "escaped quote" true (List.mem (Token.String_lit "it's") tokens);
  check_bool "plain string" true (List.mem (Token.String_lit "plain") tokens)

let test_lexer_comments_and_hints () =
  let tokens = tokens_of "SELECT /* block */ a -- line\nFROM t /*+ CONFIDENCE(80) */" in
  check_bool "block comment dropped" false
    (List.exists (function Token.Ident "block" -> true | _ -> false) tokens);
  check_bool "hint preserved" true (List.mem (Token.Hint " CONFIDENCE(80) ") tokens)

let test_lexer_errors () =
  check_bool "unterminated string" true (Result.is_error (Lexer.tokenize "SELECT 'oops"));
  check_bool "unterminated comment" true (Result.is_error (Lexer.tokenize "SELECT /* oops"));
  check_bool "bad character" true (Result.is_error (Lexer.tokenize "SELECT @"))

let test_lexer_not_equal_spellings () =
  check_bool "!= normalized to <>" true (List.mem (Token.Symbol "<>") (tokens_of "a != b"))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse_ok input =
  match Parser.parse input with
  | Ok statement -> statement
  | Error msg -> Alcotest.failf "parse error on %S: %s" input msg

let test_parser_template () =
  let stmt =
    parse_ok
      "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN '07/01/97' AND \
       '09/30/97' AND l_receiptdate BETWEEN '07/01/97' + 30 AND '09/30/97' + 30"
  in
  check_int "one select item" 1 (List.length stmt.Ast.select);
  Alcotest.(check (list string)) "from" [ "lineitem" ] stmt.Ast.from;
  match stmt.Ast.where with
  | Some (Ast.And [ Ast.Between _; Ast.Between _ ]) -> ()
  | _ -> Alcotest.fail "expected two BETWEENs under AND"

let test_parser_between_and_binding () =
  (* The AND inside BETWEEN must not be confused with a conjunction. *)
  let stmt = parse_ok "SELECT * FROM t WHERE a BETWEEN 1 AND 2 AND b = 3" in
  match stmt.Ast.where with
  | Some (Ast.And [ Ast.Between _; Ast.Cmp (Ast.Eq, _, _) ]) -> ()
  | _ -> Alcotest.fail "BETWEEN bound its own AND"

let test_parser_precedence () =
  let stmt = parse_ok "SELECT * FROM t WHERE a = 1 + 2 * 3" in
  match stmt.Ast.where with
  | Some (Ast.Cmp (Ast.Eq, _, Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Binop (Ast.Mul, _, _)))) -> ()
  | _ -> Alcotest.fail "multiplication must bind tighter than addition"

let test_parser_or_and_not () =
  let stmt = parse_ok "SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT c = 3" in
  match stmt.Ast.where with
  | Some (Ast.Or [ Ast.Cmp _; Ast.And [ Ast.Cmp _; Ast.Not (Ast.Cmp _) ] ]) -> ()
  | _ -> Alcotest.fail "OR must bind looser than AND"

let test_parser_aggregates () =
  let stmt = parse_ok "SELECT COUNT(*), SUM(x) AS total, AVG(y) FROM t GROUP BY g, h" in
  check_int "three aggregates" 3 (List.length stmt.Ast.select);
  (match List.nth stmt.Ast.select 1 with
  | Ast.Agg_item (Ast.Sum, Some (Ast.Column { Ast.name = "x"; _ }), Some "total") -> ()
  | _ -> Alcotest.fail "SUM with alias");
  check_int "group-by columns" 2 (List.length stmt.Ast.group_by)

let test_parser_dates () =
  let stmt = parse_ok "SELECT * FROM t WHERE d = DATE '1997-07-01'" in
  (match stmt.Ast.where with
  | Some (Ast.Cmp (Ast.Eq, _, Ast.Date_lit (1997, 7, 1))) -> ()
  | _ -> Alcotest.fail "ISO date literal");
  check_bool "US short year" true
    (match Parser.parse_date_string "07/01/97" with Some (1997, 7, 1) -> true | _ -> false);
  check_bool "two-digit pivot" true
    (match Parser.parse_date_string "01/15/05" with Some (2005, 1, 15) -> true | _ -> false)

let test_parser_hints_collected () =
  let stmt = parse_ok "/*+ CONFIDENCE(95) */ SELECT * FROM t" in
  check_int "hint count" 1 (List.length stmt.Ast.hints)

let test_parser_qualified_columns () =
  let stmt = parse_ok "SELECT t.a FROM t WHERE t.b = u.c" in
  match stmt.Ast.select with
  | [ Ast.Expr_item (Ast.Column { Ast.table = Some "t"; name = "a" }, None) ] -> ()
  | _ -> Alcotest.fail "qualified column in SELECT"

let test_parser_errors () =
  List.iter
    (fun sql -> check_bool sql true (Result.is_error (Parser.parse sql)))
    [
      "FROM t";                          (* missing SELECT *)
      "SELECT FROM t";                   (* empty select list *)
      "SELECT * FROM";                   (* missing table *)
      "SELECT * FROM t WHERE";           (* missing condition *)
      "SELECT * FROM t WHERE a BETWEEN 1";  (* incomplete BETWEEN *)
      "SELECT * FROM t GROUP";           (* GROUP without BY *)
      "SELECT * FROM t extra";           (* trailing garbage *)
      "SELECT SUM(*) FROM t";            (* * only for COUNT *)
    ]

let test_parser_order_limit () =
  let stmt = parse_ok "SELECT * FROM t ORDER BY a DESC, t.b LIMIT 10" in
  (match stmt.Ast.order_by with
  | [ { Ast.order_column = { Ast.table = None; name = "a" }; desc = true };
      { Ast.order_column = { Ast.table = Some "t"; name = "b" }; desc = false } ] -> ()
  | _ -> Alcotest.fail "order items");
  Alcotest.(check (option int)) "limit" (Some 10) stmt.Ast.limit;
  check_bool "negative limit rejected" true
    (Result.is_error (Parser.parse "SELECT * FROM t LIMIT -1"));
  check_bool "limit needs an integer" true
    (Result.is_error (Parser.parse "SELECT * FROM t LIMIT many"))

let test_parser_trailing_semicolon () =
  check_bool "semicolon accepted" true (Result.is_ok (Parser.parse "SELECT * FROM t;"))

(* One statement holding every constructor to_sql prints; the law itself
   runs inside [Parser.parse] above. *)
let test_to_sql_every_constructor () =
  List.iter
    (fun sql -> ignore (parse_ok sql))
    [
      "SELECT * FROM t";
      "/*+ CONFIDENCE(90) */ SELECT t.g, (a + 2) * -3 AS x, COUNT(*), COUNT(b) AS nb, SUM(c), \
       AVG(d / 2.5), MIN(e - -1.25), MAX(f) AS top FROM t, u WHERE (a = 1 OR NOT b <> 2) AND c \
       BETWEEN -4 AND 4 AND d LIKE '%it''s%' AND e >= DATE '1997-07-01' AND f < 'x''y' AND g IN \
       (SELECT k FROM v WHERE v.w > 0.1) AND EXISTS (SELECT * FROM v WHERE v.k = t.k AND (v.w \
       <= 1 OR v.w > 2)) AND h > (SELECT AVG(w) FROM v) AND i = (SELECT COUNT(*) FROM v) GROUP \
       BY t.g, h ORDER BY x DESC, t.g LIMIT 0";
    ]

(* Floats print as the shortest exponent-free decimal that reads back to
   the same float (the lexer reads no exponent). *)
let test_to_sql_floats () =
  List.iter
    (fun f ->
      let stmt =
        {
          Ast.select = [ Ast.Star ];
          from = [ "t" ];
          where = Some (Ast.Cmp (Ast.Eq, Ast.Column { Ast.table = None; name = "x" }, Ast.Float_lit f));
          group_by = [];
          order_by = [];
          limit = None;
          hints = [];
        }
      in
      let sql = Ast.to_sql stmt in
      match Parser.parse sql with
      | Ok { Ast.where = Some (Ast.Cmp (_, _, Ast.Float_lit f')); _ } ->
          check_bool (Printf.sprintf "%h reads back from %s" f sql) true (Float.equal f f')
      | _ -> Alcotest.failf "%s does not read back a float" sql)
    [ 0.0; 0.1; 1.5e3; 1234567.891; 1e22; 1e-7; -2.5; 5e-324; Float.max_float; 119_999.99999999999 ];
  check_bool "1500.0 prints without an exponent" true
    (Ast.to_sql (parse_ok "SELECT * FROM t WHERE x = 1500.0") = "SELECT * FROM t WHERE x = 1500.0")

(* ------------------------------------------------------------------ *)
(* Hints                                                               *)
(* ------------------------------------------------------------------ *)

let test_hint_parse () =
  (match Hint.parse " CONFIDENCE(80) " with
  | Ok (Some c) ->
      Alcotest.(check (float 1e-9)) "confidence" 80.0 (Rq_core.Confidence.to_percent c)
  | _ -> Alcotest.fail "CONFIDENCE(80)");
  (match Hint.parse "ROBUSTNESS(conservative)" with
  | Ok (Some c) -> Alcotest.(check (float 1e-9)) "policy" 95.0 (Rq_core.Confidence.to_percent c)
  | _ -> Alcotest.fail "ROBUSTNESS");
  check_bool "unknown directive ignored" true (Hint.parse "USE_INDEX(foo)" = Ok None);
  check_bool "bad percentage" true (Result.is_error (Hint.parse "CONFIDENCE(150)"));
  check_bool "non-numeric" true (Result.is_error (Hint.parse "CONFIDENCE(lots)"))

let test_hint_resolution () =
  let setting = { Rq_core.Confidence.system_default = Rq_core.Confidence.of_percent 80.0 } in
  (match Hint.resolve ~hints:[] ~setting with
  | Ok c -> Alcotest.(check (float 1e-9)) "default" 80.0 (Rq_core.Confidence.to_percent c)
  | Error e -> Alcotest.fail e);
  (match Hint.resolve ~hints:[ "CONFIDENCE(20)"; "CONFIDENCE(60)" ] ~setting with
  | Ok c -> Alcotest.(check (float 1e-9)) "last hint wins" 60.0 (Rq_core.Confidence.to_percent c)
  | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* Binder                                                              *)
(* ------------------------------------------------------------------ *)

let sql_catalog () =
  let rng = Rq_math.Rng.create 90 in
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~primary_key:"d_id"
    (Relation.create ~name:"dept"
       ~schema:
         (Schema.create
            [ { Schema.name = "d_id"; ty = Value.T_int }; { Schema.name = "d_name"; ty = Value.T_string } ])
       (Array.init 5 (fun i -> [| Value.Int i; Value.String (Printf.sprintf "dept%d" i) |])));
  Catalog.add_table catalog ~primary_key:"e_id"
    (Relation.create ~name:"emp"
       ~schema:
         (Schema.create
            [
              { Schema.name = "e_id"; ty = Value.T_int };
              { Schema.name = "e_dept"; ty = Value.T_int };
              { Schema.name = "salary"; ty = Value.T_int };
              { Schema.name = "hired"; ty = Value.T_date };
            ])
       (Array.init 200 (fun i ->
            [|
              Value.Int i;
              Value.Int (i mod 5);
              Value.Int (30_000 + (137 * i mod 70_000));
              Value.Date (10_000 + Rq_math.Rng.int rng 2000);
            |])));
  Catalog.add_foreign_key catalog
    { from_table = "emp"; from_column = "e_dept"; to_table = "dept"; to_column = "d_id" };
  Catalog.build_index catalog ~table:"emp" ~column:"salary";
  catalog

let bind_ok catalog sql =
  match Binder.compile catalog sql with
  | Ok bound -> bound
  | Error msg -> Alcotest.failf "bind error on %S: %s" sql msg

let bind_err catalog sql =
  match Binder.compile catalog sql with
  | Ok _ -> Alcotest.failf "expected bind error for %S" sql
  | Error msg -> msg

let test_binder_single_table () =
  let catalog = sql_catalog () in
  let bound = bind_ok catalog "SELECT COUNT(*) FROM emp WHERE salary >= 50000" in
  let q = bound.Binder.query in
  check_int "one table" 1 (List.length q.Rq_optimizer.Logical.tables);
  (* The bound predicate must agree with a hand-built one on every row. *)
  let expected = Pred.ge (Expr.col "salary") (Expr.int 50_000) in
  let rel = Catalog.find_table catalog "emp" in
  let bound_pred = (List.hd q.Rq_optimizer.Logical.tables).Rq_optimizer.Logical.pred in
  let schema = Relation.schema rel in
  Relation.iter
    (fun _ tup ->
      check_bool "same predicate semantics" (Pred.eval schema expected tup)
        (Pred.eval schema bound_pred tup))
    rel

let test_binder_fk_join_absorbed () =
  let catalog = sql_catalog () in
  let bound =
    bind_ok catalog "SELECT COUNT(*) FROM emp, dept WHERE e_dept = d_id AND d_name = 'dept2'"
  in
  let q = bound.Binder.query in
  check_int "two tables" 2 (List.length q.Rq_optimizer.Logical.tables);
  (* The join conjunct is absorbed; only dept keeps a residual predicate. *)
  let pred_of t =
    (List.find (fun (r : Rq_optimizer.Logical.table_ref) -> r.Rq_optimizer.Logical.table = t)
       q.Rq_optimizer.Logical.tables)
      .Rq_optimizer.Logical.pred
  in
  check_bool "emp predicate empty" true (pred_of "emp" = Pred.True);
  check_bool "dept predicate retained" true (pred_of "dept" <> Pred.True)

let test_binder_non_fk_conjunct_residual () =
  (* A cross-table conjunct that is not an FK equality is kept as a
     residual filter above the (FK-implied) join instead of being
     rejected. *)
  let catalog = sql_catalog () in
  let bound = bind_ok catalog "SELECT COUNT(*) FROM emp, dept WHERE salary = d_id" in
  let q = bound.Binder.query in
  check_int "two tables" 2 (List.length q.Rq_optimizer.Logical.tables);
  check_bool "residual retained" true (q.Rq_optimizer.Logical.residual <> Pred.True);
  List.iter
    (fun (r : Rq_optimizer.Logical.table_ref) ->
      check_bool "per-table predicates untouched" true (r.Rq_optimizer.Logical.pred = Pred.True))
    q.Rq_optimizer.Logical.tables;
  (* But a conjunct over a table absent from FROM still fails. *)
  let msg = bind_err catalog "SELECT COUNT(*) FROM emp WHERE salary = d_id" in
  check_bool "explains the failure" true (String.length msg > 0)

let test_binder_date_coercion () =
  let catalog = sql_catalog () in
  (* '1997-05-19' is day 10000. *)
  let bound = bind_ok catalog "SELECT COUNT(*) FROM emp WHERE hired = '1997-05-19'" in
  let pred = (List.hd bound.Binder.query.Rq_optimizer.Logical.tables).Rq_optimizer.Logical.pred in
  match pred with
  | Pred.Cmp (Pred.Eq, _, Expr.Const (Value.Date 10000)) -> ()
  | _ -> Alcotest.failf "expected date coercion, got %s" (Format.asprintf "%a" Pred.pp pred)

let test_binder_date_arithmetic () =
  let catalog = sql_catalog () in
  let bound =
    bind_ok catalog
      "SELECT COUNT(*) FROM emp WHERE hired BETWEEN '1997-05-19' + 10 AND '1997-05-19' + 20"
  in
  let pred = (List.hd bound.Binder.query.Rq_optimizer.Logical.tables).Rq_optimizer.Logical.pred in
  match pred with
  | Pred.Between (_, lo, hi) ->
      check_bool "lo folds to day 10010" true (Expr.const_value lo = Some (Value.Date 10010));
      check_bool "hi folds to day 10020" true (Expr.const_value hi = Some (Value.Date 10020))
  | _ -> Alcotest.fail "expected BETWEEN"

let test_binder_like () =
  let catalog = sql_catalog () in
  let bound = bind_ok catalog "SELECT COUNT(*) FROM dept WHERE d_name LIKE '%ept2%'" in
  let pred = (List.hd bound.Binder.query.Rq_optimizer.Logical.tables).Rq_optimizer.Logical.pred in
  (match pred with
  | Pred.Contains (_, "ept2") -> ()
  | _ -> Alcotest.fail "expected Contains");
  check_bool "mid-pattern wildcard rejected" true
    (Result.is_error (Binder.compile catalog "SELECT * FROM dept WHERE d_name LIKE 'a%b'"))

let test_binder_group_by () =
  let catalog = sql_catalog () in
  let bound =
    bind_ok catalog
      "SELECT d_name, COUNT(*) AS staff FROM emp, dept WHERE e_dept = d_id GROUP BY d_name"
  in
  let q = bound.Binder.query in
  Alcotest.(check (list string)) "qualified group-by" [ "dept.d_name" ] q.Rq_optimizer.Logical.group_by;
  check_int "one aggregate" 1 (List.length q.Rq_optimizer.Logical.aggs);
  check_bool "select column outside GROUP BY rejected" true
    (Result.is_error
       (Binder.compile catalog "SELECT salary, COUNT(*) FROM emp GROUP BY e_dept"))

let test_binder_errors () =
  let catalog = sql_catalog () in
  List.iter
    (fun sql -> check_bool sql true (Result.is_error (Binder.compile catalog sql)))
    [ "SELECT * FROM nowhere"; "SELECT bogus FROM emp" ];
  (* Arithmetic, SUM and AVG over a string, and day arithmetic on a
     non-date, are bind errors, not a crash in the executor; MIN, MAX,
     COUNT and LIKE over strings stay valid. *)
  List.iter
    (fun sql -> check_bool sql true (Result.is_error (Binder.compile catalog sql)))
    [
      "SELECT COUNT(*) FROM emp WHERE salary + 'a' > 1";
      "SELECT COUNT(*) FROM dept WHERE d_name - d_name = 0";
      "SELECT COUNT(*) FROM dept WHERE d_id * d_name > 0";
      "SELECT SUM(d_name) FROM dept";
      "SELECT AVG(d_name) FROM dept";
      "SELECT COUNT(*) FROM emp WHERE salary > (SELECT AVG(d_name) FROM dept)";
      "SELECT COUNT(*) FROM emp, dept WHERE e_dept = d_id AND hired > d_name + 1";
      "SELECT COUNT(*) FROM emp WHERE hired > salary - 3";
      "SELECT COUNT(*) FROM emp WHERE hired > 1 + 2";
    ];
  List.iter
    (fun sql -> check_bool sql true (Result.is_ok (Binder.compile catalog sql)))
    [
      "SELECT MIN(d_name), MAX(d_name), COUNT(d_name) FROM dept";
      "SELECT COUNT(*) FROM dept WHERE d_name LIKE '%ept%'";
      "SELECT COUNT(*) FROM emp WHERE hired + 1 > '1999-01-01'";
      "SELECT COUNT(*) FROM emp WHERE 1 + hired > '1999-01-01'";
      "SELECT COUNT(*) FROM emp WHERE hired - 3 < '1999-01-01'";
      "SELECT SUM(salary), AVG(salary) FROM emp";
    ];
  (* A WHERE-less FK join is valid: the join is implied by the FK edge. *)
  check_bool "implicit FK join accepted" true
    (Result.is_ok (Binder.compile catalog "SELECT d_id FROM emp, dept"))

let test_binder_order_limit () =
  let catalog = sql_catalog () in
  let bound = bind_ok catalog "SELECT salary FROM emp ORDER BY salary DESC LIMIT 5" in
  let q = bound.Binder.query in
  (match q.Rq_optimizer.Logical.order_by with
  | [ { Rq_exec.Plan.sort_column = "emp.salary"; descending = true } ] -> ()
  | _ -> Alcotest.fail "qualified sort key");
  Alcotest.(check (option int)) "limit" (Some 5) q.Rq_optimizer.Logical.limit;
  (* ORDER BY an aggregate alias. *)
  let agg = bind_ok catalog "SELECT e_dept, COUNT(*) AS n FROM emp GROUP BY e_dept ORDER BY n DESC" in
  (match agg.Binder.query.Rq_optimizer.Logical.order_by with
  | [ { Rq_exec.Plan.sort_column = "n"; descending = true } ] -> ()
  | _ -> Alcotest.fail "alias sort key");
  check_bool "unknown order column rejected" true
    (Result.is_error
       (Binder.compile catalog "SELECT e_dept, COUNT(*) AS n FROM emp GROUP BY e_dept ORDER BY zz"))

let test_binder_count_expr () =
  let catalog = sql_catalog () in
  let bound = bind_ok catalog "SELECT COUNT(salary) AS paid FROM emp" in
  match bound.Binder.query.Rq_optimizer.Logical.aggs with
  | [ { Rq_exec.Plan.fn = Rq_exec.Plan.Count _; output_name = "paid" } ] -> ()
  | _ -> Alcotest.fail "expected COUNT(expr) aggregate"

let test_binder_hint_flows_through () =
  let catalog = sql_catalog () in
  let bound = bind_ok catalog "/*+ CONFIDENCE(33) */ SELECT COUNT(*) FROM emp" in
  match bound.Binder.confidence_hint with
  | Some c -> Alcotest.(check (float 1e-9)) "hint" 33.0 (Rq_core.Confidence.to_percent c)
  | None -> Alcotest.fail "hint lost"

(* ORDER BY may name a column the SELECT list drops: the plan must sort
   (and limit) below its projection.  Checked end to end against the
   Naive oracle, rows in order. *)
let test_order_by_unselected_column () =
  let check catalog sql =
    let q = (bind_ok catalog sql).Binder.query in
    let stats = Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create 5) catalog in
    let opt = Rq_optimizer.Optimizer.robust stats in
    let d = Rq_optimizer.Optimizer.optimize_exn opt q in
    let result, _ = Executor.run_timed catalog d.Rq_optimizer.Optimizer.plan in
    let naive = Rq_optimizer.Naive.evaluate_query catalog q in
    check_int (sql ^ ": rows") 5 (Array.length result.Executor.tuples);
    check_bool (sql ^ ": naive's rows, in order") true
      (result.Executor.tuples = naive.Executor.tuples)
  in
  check (sql_catalog ())
    "SELECT e_id FROM emp WHERE salary > 40000 ORDER BY hired DESC, e_id LIMIT 5";
  check
    (Rq_workload.Tpch.generate (Rq_math.Rng.create 3)
       ~params:{ Rq_workload.Tpch.default_params with scale_factor = 0.002 }
       ())
    "SELECT l_orderkey FROM lineitem WHERE l_quantity > 10 ORDER BY l_extendedprice LIMIT 5"

let test_binder_projection () =
  let catalog = sql_catalog () in
  let bound = bind_ok catalog "SELECT salary, e_id FROM emp" in
  Alcotest.(check (option (list string))) "projection"
    (Some [ "emp.salary"; "emp.e_id" ])
    bound.Binder.query.Rq_optimizer.Logical.projection;
  let star = bind_ok catalog "SELECT * FROM emp" in
  check_bool "star keeps everything" true
    (star.Binder.query.Rq_optimizer.Logical.projection = None)


(* ------------------------------------------------------------------ *)
(* DDL and loader                                                      *)
(* ------------------------------------------------------------------ *)

let ddl_script = {sql|
CREATE TABLE dept (
  d_id INT PRIMARY KEY,
  d_name TEXT
);
CREATE TABLE emp (
  e_id INT PRIMARY KEY,
  e_dept INT,
  salary FLOAT,
  hired DATE,
  active BOOL,
  FOREIGN KEY (e_dept) REFERENCES dept (d_id)
) CLUSTERED BY (e_dept);
CREATE INDEX ON emp (salary);
|sql}

let test_ddl_parse () =
  match Ddl.parse_script ddl_script with
  | Error e -> Alcotest.fail e
  | Ok [ Ddl.Create_table dept; Ddl.Create_table emp; Ddl.Create_index idx ] ->
      Alcotest.(check string) "dept name" "dept" dept.Ddl.table_name;
      check_int "dept columns" 2 (List.length dept.Ddl.columns);
      check_bool "pk flagged" true (List.hd dept.Ddl.columns).Ddl.primary_key;
      Alcotest.(check (option string)) "clustering" (Some "e_dept") emp.Ddl.clustered_by;
      (match emp.Ddl.foreign_keys with
      | [ ("e_dept", "dept", "d_id") ] -> ()
      | _ -> Alcotest.fail "fk parsed");
      Alcotest.(check string) "index table" "emp" idx.table;
      Alcotest.(check string) "index column" "salary" idx.column
  | Ok _ -> Alcotest.fail "statement shapes"

let test_ddl_errors () =
  List.iter
    (fun script -> check_bool script true (Result.is_error (Ddl.parse_script script)))
    [
      "CREATE TABLE t ()";                          (* no columns *)
      "CREATE TABLE t (a WIBBLE)";                  (* unknown type *)
      "CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)";  (* two pks *)
      "CREATE VIEW v";                              (* unsupported *)
      "ALTER TABLE t";                              (* unsupported *)
    ]

let test_loader_roundtrip () =
  (* Generate a small workload, export it, reload it, and compare. *)
  let tmp = Filename.temp_file "rq_loader" "" in
  Sys.remove tmp;
  Sys.mkdir tmp 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
      Sys.rmdir tmp)
    (fun () ->
      let params = { Rq_workload.Tpch.default_params with scale_factor = 0.001 } in
      let original = Rq_workload.Tpch.generate (Rq_math.Rng.create 55) ~params () in
      (match Loader.export_directory original tmp with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      match Loader.load_directory tmp with
      | Error e -> Alcotest.fail e
      | Ok reloaded ->
          Alcotest.(check (list string)) "tables" (Catalog.table_names original)
            (Catalog.table_names reloaded);
          List.iter
            (fun table ->
              let a = Catalog.find_table original table in
              let b = Catalog.find_table reloaded table in
              check_int (table ^ " rows") (Relation.row_count a) (Relation.row_count b);
              (* Spot-check full tuple equality on a few rows. *)
              List.iter
                (fun rid ->
                  Alcotest.(check (array string))
                    (Printf.sprintf "%s row %d" table rid)
                    (Array.map Value.to_string (Relation.get a rid))
                    (Array.map Value.to_string (Relation.get b rid)))
                [ 0; Relation.row_count a / 2; Relation.row_count a - 1 ];
              Alcotest.(check (option string)) (table ^ " pk") (Catalog.primary_key original table)
                (Catalog.primary_key reloaded table);
              Alcotest.(check (option string)) (table ^ " clustering")
                (Catalog.clustered_by original table)
                (Catalog.clustered_by reloaded table);
              check_int (table ^ " indexes")
                (List.length (Catalog.indexes_on original table))
                (List.length (Catalog.indexes_on reloaded table)))
            (Catalog.table_names original);
          check_int "foreign keys"
            (List.length (Catalog.all_foreign_keys original))
            (List.length (Catalog.all_foreign_keys reloaded));
          (* And the reloaded catalog answers queries identically. *)
          let q = Rq_workload.Tpch.exp1_query ~offset:60 in
          check_int "query results agree"
            (Array.length (Rq_optimizer.Naive.evaluate_query original q).Rq_exec.Executor.tuples)
            (Array.length (Rq_optimizer.Naive.evaluate_query reloaded q).Rq_exec.Executor.tuples))

let test_loader_bad_data () =
  let tmp = Filename.temp_file "rq_loader_bad" "" in
  Sys.remove tmp;
  Sys.mkdir tmp 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
      Sys.rmdir tmp)
    (fun () ->
      let write name contents =
        let oc = open_out (Filename.concat tmp name) in
        output_string oc contents;
        close_out oc
      in
      write "schema.sql" "CREATE TABLE t (a INT PRIMARY KEY, b TEXT);";
      (* Missing CSV. *)
      check_bool "missing csv" true (Result.is_error (Loader.load_directory tmp));
      (* Wrong header. *)
      write "t.csv" "a,c\n1,x\n";
      check_bool "wrong header" true (Result.is_error (Loader.load_directory tmp));
      (* Type error, with row number in the message. *)
      write "t.csv" "a,b\n1,x\noops,y\n";
      (match Loader.load_directory tmp with
      | Error msg -> check_bool "row number reported" true (String.length msg > 0)
      | Ok _ -> Alcotest.fail "expected type error");
      (* Clean load. *)
      write "t.csv" "a,b\n1,x\n2,\n";
      match Loader.load_directory tmp with
      | Ok catalog ->
          let rel = Catalog.find_table catalog "t" in
          check_int "rows" 2 (Relation.row_count rel);
          check_bool "empty field is NULL" true (Value.is_null (Relation.get rel 1).(1))
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* Fingerprint properties                                              *)
(* ------------------------------------------------------------------ *)

open Rq_optimizer

let fp ?confidence q = Fingerprint.of_logical ~estimator:"robust-sampling" ?confidence q

(* Small random SPJ queries: 1-3 tables, each with a conjunction of
   integer comparisons.  (Fingerprinting never consults a catalog, so the
   table vocabulary is free-form.) *)
let gen_cmp =
  QCheck.Gen.(
    map3
      (fun op col lit ->
        let c = Expr.col col and v = Expr.int lit in
        match op with
        | 0 -> Pred.eq c v
        | 1 -> Pred.lt c v
        | 2 -> Pred.ge c v
        | _ -> Pred.Cmp (Pred.Ne, c, v))
      (int_bound 3)
      (oneofl [ "a"; "b"; "c" ])
      (int_bound 100))

let gen_query =
  QCheck.Gen.(
    let gen_pred = map (fun ps -> Pred.And ps) (list_size (int_range 1 3) gen_cmp) in
    let gen_ref = pair (oneofl [ "t1"; "t2"; "t3" ]) gen_pred in
    map2
      (fun refs limit ->
        (* one ref per table name: duplicate tables are not a valid query *)
        let dedup =
          List.fold_left
            (fun acc (t, p) -> if List.mem_assoc t acc then acc else (t, p) :: acc)
            [] refs
        in
        Logical.query ?limit
          (List.map (fun (t, p) -> Logical.scan ~pred:p t) dedup))
      (list_size (int_range 1 3) gen_ref)
      (opt (int_bound 50)))

let arb_query =
  QCheck.make ~print:(fun q -> Fingerprint.to_key (fp q)) gen_query

(* Reverse table order, reverse every conjunction, swap =/<> operands:
   everything the fingerprint promises to normalize away. *)
let rec commute_pred = function
  | Pred.And ps -> Pred.And (List.rev_map commute_pred ps)
  | Pred.Or ps -> Pred.Or (List.rev_map commute_pred ps)
  | Pred.Cmp (Pred.Eq, a, b) -> Pred.Cmp (Pred.Eq, b, a)
  | Pred.Cmp (Pred.Ne, a, b) -> Pred.Cmp (Pred.Ne, b, a)
  | Pred.Not p -> Pred.Not (commute_pred p)
  | p -> p

let commute_query (q : Logical.t) =
  {
    q with
    Logical.tables =
      List.rev_map
        (fun (r : Logical.table_ref) -> { r with Logical.pred = commute_pred r.Logical.pred })
        q.Logical.tables;
  }

let prop_fingerprint_commutation =
  QCheck.Test.make ~name:"fingerprint: invariant under commutation" ~count:300 arb_query
    (fun q -> Fingerprint.equal (fp q) (fp (commute_query q)))

let prop_fingerprint_pure =
  QCheck.Test.make ~name:"fingerprint: pure (same input, same key and hash)" ~count:300
    arb_query (fun q ->
      let a = fp q and b = fp q in
      Fingerprint.equal a b
      && Fingerprint.hash a = Fingerprint.hash b
      && Fingerprint.compare a b = 0)

let bump_first_literal = function
  | Pred.And (Pred.Cmp (op, a, Expr.Const (Value.Int n)) :: rest) ->
      Some (Pred.And (Pred.Cmp (op, a, Expr.Const (Value.Int (n + 1))) :: rest))
  | Pred.Cmp (op, a, Expr.Const (Value.Int n)) ->
      Some (Pred.Cmp (op, a, Expr.Const (Value.Int (n + 1))))
  | _ -> None

let prop_fingerprint_literal_distinct =
  QCheck.Test.make ~name:"fingerprint: literals are distinguishing" ~count:300 arb_query
    (fun q ->
      match q.Logical.tables with
      | ({ Logical.pred; _ } as r) :: rest -> (
          match bump_first_literal pred with
          | None -> QCheck.assume_fail ()
          | Some pred' ->
              let q' = { q with Logical.tables = { r with Logical.pred = pred' } :: rest } in
              not (Fingerprint.equal (fp q) (fp q')))
      | [] -> QCheck.assume_fail ())

let prop_fingerprint_confidence_distinct =
  QCheck.Test.make ~name:"fingerprint: confidence is distinguishing" ~count:100
    QCheck.(pair (int_range 1 99) (int_range 1 99))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let q = Logical.query [ Logical.scan "t" ] in
      let key p = fp ~confidence:(Rq_core.Confidence.of_percent (float_of_int p)) q in
      not (Fingerprint.equal (key a) (key b)))

let () =
  Alcotest.run "rq_sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "strings" `Quick test_lexer_strings;
          Alcotest.test_case "comments and hints" `Quick test_lexer_comments_and_hints;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "<> spellings" `Quick test_lexer_not_equal_spellings;
        ] );
      ( "parser",
        [
          Alcotest.test_case "experiment template" `Quick test_parser_template;
          Alcotest.test_case "BETWEEN/AND binding" `Quick test_parser_between_and_binding;
          Alcotest.test_case "arithmetic precedence" `Quick test_parser_precedence;
          Alcotest.test_case "OR/AND/NOT" `Quick test_parser_or_and_not;
          Alcotest.test_case "aggregates" `Quick test_parser_aggregates;
          Alcotest.test_case "dates" `Quick test_parser_dates;
          Alcotest.test_case "hints collected" `Quick test_parser_hints_collected;
          Alcotest.test_case "qualified columns" `Quick test_parser_qualified_columns;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "ORDER BY and LIMIT" `Quick test_parser_order_limit;
          Alcotest.test_case "trailing semicolon" `Quick test_parser_trailing_semicolon;
          Alcotest.test_case "to_sql prints every constructor" `Quick test_to_sql_every_constructor;
          Alcotest.test_case "to_sql prints floats exactly" `Quick test_to_sql_floats;
        ] );
      ( "hint",
        [
          Alcotest.test_case "parse" `Quick test_hint_parse;
          Alcotest.test_case "resolution" `Quick test_hint_resolution;
        ] );
      ( "binder",
        [
          Alcotest.test_case "single table" `Quick test_binder_single_table;
          Alcotest.test_case "FK join absorbed" `Quick test_binder_fk_join_absorbed;
          Alcotest.test_case "non-FK conjunct residual" `Quick
            test_binder_non_fk_conjunct_residual;
          Alcotest.test_case "date coercion" `Quick test_binder_date_coercion;
          Alcotest.test_case "date arithmetic" `Quick test_binder_date_arithmetic;
          Alcotest.test_case "LIKE handling" `Quick test_binder_like;
          Alcotest.test_case "GROUP BY" `Quick test_binder_group_by;
          Alcotest.test_case "errors" `Quick test_binder_errors;
          Alcotest.test_case "ORDER BY / LIMIT binding" `Quick test_binder_order_limit;
          Alcotest.test_case "COUNT(expr)" `Quick test_binder_count_expr;
          Alcotest.test_case "hint flows through" `Quick test_binder_hint_flows_through;
          Alcotest.test_case "projection" `Quick test_binder_projection;
          Alcotest.test_case "ORDER BY a column the SELECT list drops" `Quick
            test_order_by_unselected_column;
        ] );
      ( "ddl+loader",
        [
          Alcotest.test_case "DDL parsing" `Quick test_ddl_parse;
          Alcotest.test_case "DDL errors" `Quick test_ddl_errors;
          Alcotest.test_case "export/load roundtrip" `Quick test_loader_roundtrip;
          Alcotest.test_case "loader error handling" `Quick test_loader_bad_data;
        ] );
      ( "fingerprint",
        [
          QCheck_alcotest.to_alcotest prop_fingerprint_commutation;
          QCheck_alcotest.to_alcotest prop_fingerprint_pure;
          QCheck_alcotest.to_alcotest prop_fingerprint_literal_distinct;
          QCheck_alcotest.to_alcotest prop_fingerprint_confidence_distinct;
        ] );
    ]
