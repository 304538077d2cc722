(* The logical rewrite layer: a fixed, ordered list of OptimizerRule-style
   passes over {!Logical.t}, driven to a fixpoint between binding and DP
   enumeration.  Every rule is semantics-preserving (each has a qcheck
   equivalence law in [test_rewrite]); the driver emits one typed
   {!Rq_obs.Trace.Rewrite_applied} event per application and enforces a
   per-rule application budget so a cyclic pair of rules cannot hang the
   optimizer. *)

open Rq_storage
open Rq_exec

(* ------------------------------------------------------------------ *)
(* Predicate transforms shared by the pure rules                       *)
(* ------------------------------------------------------------------ *)

let rec fold_expr e =
  match e with
  | Expr.Const _ | Expr.Col _ -> e
  | _ -> (
      match Expr.const_value e with
      | Some v -> Expr.Const v
      | None -> (
          match e with
          | Expr.Add (a, b) -> Expr.Add (fold_expr a, fold_expr b)
          | Expr.Sub (a, b) -> Expr.Sub (fold_expr a, fold_expr b)
          | Expr.Mul (a, b) -> Expr.Mul (fold_expr a, fold_expr b)
          | Expr.Div (a, b) -> Expr.Div (fold_expr a, fold_expr b)
          | Expr.Add_days (a, d) -> Expr.Add_days (fold_expr a, d)
          | (Expr.Const _ | Expr.Col _) as e -> e))

let cmp_holds op c =
  match op with
  | Pred.Eq -> c = 0
  | Pred.Ne -> c <> 0
  | Pred.Lt -> c < 0
  | Pred.Le -> c <= 0
  | Pred.Gt -> c > 0
  | Pred.Ge -> c >= 0

(* Comparisons are null-safe (any NULL operand makes the predicate false,
   never unknown-propagating), so a constant NULL side decides the whole
   conjunct regardless of the other one. *)
let rec fold_pred p =
  match p with
  | Pred.True | Pred.False -> p
  | Pred.Cmp (op, a, b) -> (
      let a = fold_expr a and b = fold_expr b in
      match (a, b) with
      | Expr.Const Value.Null, _ | _, Expr.Const Value.Null -> Pred.False
      | Expr.Const va, Expr.Const vb ->
          if cmp_holds op (Value.compare va vb) then Pred.True else Pred.False
      | _ -> Pred.Cmp (op, a, b))
  | Pred.Between (e, lo, hi) -> (
      let e = fold_expr e and lo = fold_expr lo and hi = fold_expr hi in
      match (e, lo, hi) with
      | Expr.Const Value.Null, _, _ | _, Expr.Const Value.Null, _ | _, _, Expr.Const Value.Null
        ->
          Pred.False
      | _, Expr.Const l, Expr.Const h when Value.compare l h > 0 -> Pred.False
      | Expr.Const v, Expr.Const l, Expr.Const h ->
          if Value.compare l v <= 0 && Value.compare v h <= 0 then Pred.True else Pred.False
      | _ -> Pred.Between (e, lo, hi))
  | Pred.Contains (e, s) -> Pred.Contains (fold_expr e, s)
  | Pred.And ps -> Pred.And (List.map fold_pred ps)
  | Pred.Or ps -> Pred.Or (List.map fold_pred ps)
  | Pred.Not p -> Pred.Not (fold_pred p)

let dedupe_by_render ps =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun p ->
      let key = Pred.render p in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    ps

let rec simplify_pred p =
  match p with
  | Pred.True | Pred.False | Pred.Cmp _ | Pred.Between _ | Pred.Contains _ -> p
  | Pred.Not q -> (
      match simplify_pred q with
      | Pred.True -> Pred.False
      | Pred.False -> Pred.True
      | Pred.Not r -> r
      | q -> Pred.Not q)
  | Pred.And ps -> (
      let flat =
        List.concat_map
          (fun q -> match simplify_pred q with Pred.And qs -> qs | q -> [ q ])
          ps
      in
      let flat = List.filter (fun q -> q <> Pred.True) flat in
      if List.mem Pred.False flat then Pred.False
      else
        match dedupe_by_render flat with
        | [] -> Pred.True
        | [ q ] -> q
        | qs -> Pred.And qs)
  | Pred.Or ps -> (
      let flat =
        List.concat_map
          (fun q -> match simplify_pred q with Pred.Or qs -> qs | q -> [ q ])
          ps
      in
      let flat = List.filter (fun q -> q <> Pred.False) flat in
      if List.mem Pred.True flat then Pred.True
      else
        match dedupe_by_render flat with
        | [] -> Pred.False
        | [ q ] -> q
        | qs -> Pred.Or qs)

let map_preds f (q : Logical.t) =
  {
    q with
    Logical.tables =
      List.map (fun (r : Logical.table_ref) -> { r with Logical.pred = f r.Logical.pred }) q.Logical.tables;
    residual = f q.Logical.residual;
    semijoins =
      List.map
        (fun (sj : Logical.semijoin) ->
          { sj with Logical.inner = { sj.Logical.inner with Logical.pred = f sj.Logical.inner.Logical.pred } })
        q.Logical.semijoins;
    scalars =
      List.map (fun (s : Logical.scalar) -> { s with Logical.s_pred = f s.Logical.s_pred }) q.Logical.scalars;
  }

let owner_of column =
  match String.index_opt column '.' with
  | Some i -> Some (String.sub column 0 i, String.sub column (i + 1) (String.length column - i - 1))
  | None -> None

let strip_owner table column =
  let prefix = table ^ "." in
  let pl = String.length prefix in
  if String.length column > pl && String.sub column 0 pl = prefix then
    String.sub column pl (String.length column - pl)
  else column

(* ------------------------------------------------------------------ *)
(* The rules                                                           *)
(* ------------------------------------------------------------------ *)

(* Every rule maps a query to [Some (rewritten, detail)] when it fires and
   [None] at its own fixpoint.  Pure rules never look at the catalog; they
   double as the catalog-free canonicalization {!canonical} that
   [Rq_sql.Fingerprint] keys the plan cache with. *)

let r_const_fold q =
  let q' =
    let q' = map_preds fold_pred q in
    { q' with Logical.scalars = List.map (fun (s : Logical.scalar) -> { s with Logical.s_expr = fold_expr s.Logical.s_expr }) q'.Logical.scalars }
  in
  if q' = q then None else Some (q', "folded constant subexpressions")

let r_simplify q =
  let q' = map_preds simplify_pred q in
  if q' = q then None else Some (q', "simplified predicates")

let r_filter_pushdown q =
  let names = Logical.table_names q in
  let push (moved, residual) conjunct =
    match List.filter_map owner_of (Pred.columns conjunct) with
    | (owner, _) :: rest
      when List.mem owner names && List.for_all (fun (o, _) -> String.equal o owner) rest ->
        ((owner, Pred.rename_columns (strip_owner owner) conjunct) :: moved, residual)
    | _ -> (moved, conjunct :: residual)
  in
  match q.Logical.residual with
  | Pred.True -> None
  | residual -> (
      let conjuncts = Pred.conjuncts residual in
      let moved, kept = List.fold_left push ([], []) conjuncts in
      match moved with
      | [] -> None
      | _ ->
          let tables =
            List.map
              (fun (r : Logical.table_ref) ->
                let mine =
                  List.rev_map snd
                    (List.filter (fun (o, _) -> String.equal o r.Logical.table) moved)
                in
                if mine = [] then r
                else { r with Logical.pred = Pred.conj (r.Logical.pred :: mine) })
              q.Logical.tables
          in
          Some
            ( { q with Logical.tables; residual = Pred.conj (List.rev kept) },
              Printf.sprintf "pushed %d single-table conjunct(s) below the join"
                (List.length moved) ))

let qualified_columns catalog table =
  List.map
    (fun (c : Schema.column) -> table ^ "." ^ c.Schema.name)
    (Schema.columns (Relation.schema (Catalog.find_table catalog table)))

let r_project_prune catalog q =
  match q.Logical.projection with
  | None -> None
  | Some cols ->
      if q.Logical.aggs <> [] || q.Logical.group_by <> [] then
        Some
          ( { q with Logical.projection = None },
            "dropped projection shadowed by aggregation" )
      else
        let full =
          List.concat_map (fun (r : Logical.table_ref) -> qualified_columns catalog r.Logical.table) q.Logical.tables
        in
        if cols = full then
          Some ({ q with Logical.projection = None }, "projection covers the full schema")
        else None

(* A residual equality that coincides with an FK edge between two query
   tables is implied by the join itself (enumeration only ever joins along
   FK edges), so it is a redundant re-check of every joined row — and the
   reason the binder no longer rejects explicit join conditions. *)
let r_cross_product_avoid catalog q =
  let names = Logical.table_names q in
  let is_fk_equality conjunct =
    match conjunct with
    | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) -> (
        match (owner_of a, owner_of b) with
        | Some (ta, ca), Some (tb, cb) when List.mem ta names && List.mem tb names -> (
            let edge from_t from_c to_t to_c =
              match Catalog.fk_edge catalog ~from_table:from_t ~to_table:to_t with
              | Some fk -> fk.Catalog.from_column = from_c && fk.Catalog.to_column = to_c
              | None -> false
            in
            edge ta ca tb cb || edge tb cb ta ca)
        | _ -> false)
    | _ -> false
  in
  match q.Logical.residual with
  | Pred.True -> None
  | residual -> (
      let conjuncts = Pred.conjuncts residual in
      let dropped, kept = List.partition is_fk_equality conjuncts in
      match dropped with
      | [] -> None
      | _ ->
          Some
            ( { q with Logical.residual = Pred.conj kept },
              Printf.sprintf "dropped %d join conjunct(s) implied by FK edges"
                (List.length dropped) ))

(* IN/EXISTS decorrelation: when the semijoin key pair is exactly a
   declared FK edge (outer FK -> inner PK) and the inner table is not
   already joined, the semijoin *is* an FK join — PK uniqueness keeps
   multiplicity, and unmatched or NULL FKs drop the row under both forms.
   The merge widens the schema, so a missing projection is pinned to the
   outer columns first. *)
let r_decorrelate catalog q =
  let names = Logical.table_names q in
  let mergeable (sj : Logical.semijoin) =
    match owner_of sj.Logical.outer_key with
    | None -> false
    | Some (ot, oc) -> (
        (not (List.mem sj.Logical.inner.Logical.table names))
        &&
        match Catalog.fk_edge catalog ~from_table:ot ~to_table:sj.Logical.inner.Logical.table with
        | Some fk -> fk.Catalog.from_column = oc && fk.Catalog.to_column = sj.Logical.inner_key
        | None -> false)
  in
  match List.partition mergeable q.Logical.semijoins with
  | [], _ -> None
  | sj :: _, _ ->
      let remaining = List.filter (fun s -> s <> sj) q.Logical.semijoins in
      let projection =
        match q.Logical.projection with
        | Some _ as p -> p
        | None ->
            if q.Logical.aggs = [] && q.Logical.group_by = [] then
              Some
                (List.concat_map
                   (fun (r : Logical.table_ref) -> qualified_columns catalog r.Logical.table)
                   q.Logical.tables)
            else None
      in
      let q' =
        {
          q with
          Logical.tables = q.Logical.tables @ [ sj.Logical.inner ];
          semijoins = remaining;
          projection;
        }
      in
      (* Only fire if the merged join graph is still a valid query (it
         must stay connected with a unique root); otherwise leave the
         semijoin for plan-time lowering. *)
      (match Logical.validate catalog q' with
      | Ok () ->
          Some
            ( q',
              Printf.sprintf "merged semijoin on %s into the join graph"
                sj.Logical.inner.Logical.table )
      | Error _ -> None)

let r_sort_limit_pushdown catalog q =
  if q.Logical.index_order then None
  else
    match (q.Logical.tables, q.Logical.order_by) with
    | [ { Logical.table; _ } ], [ { Plan.sort_column; descending = _ } ]
      when q.Logical.aggs = [] && q.Logical.group_by = [] && q.Logical.semijoins = [] ->
        let column = strip_owner table sort_column in
        if
          (not (String.equal column sort_column))
          && Catalog.find_index catalog ~table ~column <> None
        then
          Some
            ( { q with Logical.index_order = true },
              Printf.sprintf "ORDER BY %s served by the index on %s.%s" sort_column table
                column )
        else None
    | _ -> None

(* Uncorrelated scalar subqueries fold to constants at rewrite time: the
   aggregate is executed once on a throwaway meter (optimization-time
   work, like sampling) and the comparison joins the residual, where
   filter pushdown can carry it into a table predicate. *)
let r_scalar_fold catalog q =
  match q.Logical.scalars with
  | [] -> None
  | ({ Logical.s_expr; s_cmp; s_agg; s_table; s_pred } as s) :: _ ->
      let plan =
        Plan.Aggregate
          {
            input = Plan.Scan { table = s_table; access = Plan.Seq_scan; pred = s_pred };
            group_by = [];
            aggs = [ { Plan.fn = s_agg; output_name = "scalar" } ];
          }
      in
      let meter = Cost.create () in
      let result = Executor.run catalog meter plan in
      let v =
        if Array.length result.Executor.tuples = 1 then result.Executor.tuples.(0).(0)
        else Value.Null
      in
      let conjunct =
        if Value.is_null v then Pred.False else Pred.Cmp (s_cmp, s_expr, Expr.Const v)
      in
      let q' =
        {
          q with
          Logical.scalars = List.filter (fun x -> x <> s) q.Logical.scalars;
          residual = Pred.conj [ q.Logical.residual; conjunct ];
        }
      in
      Some
        ( q',
          Printf.sprintf "folded scalar subquery over %s to %s" s_table (Value.to_string v) )

(* ------------------------------------------------------------------ *)
(* The pass list and fixpoint driver                                   *)
(* ------------------------------------------------------------------ *)

type rule = { name : string; apply : Catalog.t -> Logical.t -> (Logical.t * string) option }

let pure r = fun _catalog q -> r q

let rules =
  [
    { name = "const-fold"; apply = pure r_const_fold };
    { name = "simplify"; apply = pure r_simplify };
    { name = "scalar-fold"; apply = r_scalar_fold };
    { name = "filter-pushdown"; apply = pure r_filter_pushdown };
    { name = "decorrelate"; apply = r_decorrelate };
    { name = "cross-product-avoid"; apply = r_cross_product_avoid };
    { name = "project-prune"; apply = r_project_prune };
    { name = "sort-limit-pushdown"; apply = r_sort_limit_pushdown };
  ]

let rule_names = List.map (fun r -> r.name) rules

let apply_rule catalog name q =
  match List.find_opt (fun r -> r.name = name) rules with
  | None -> invalid_arg (Printf.sprintf "Rewrite.apply_rule: unknown rule %s" name)
  | Some r -> r.apply catalog q

type report = { applied : (string * int) list; fixpoint : bool }

(* Applications allowed per rule in one pass: a bound on any rule pair
   that could otherwise undo each other forever. *)
let max_applications_per_rule = 32

let rewrite ?obs catalog query =
  let counts = Hashtbl.create 8 in
  let count name = Option.value ~default:0 (Hashtbl.find_opt counts name) in
  (* One sweep: the first non-exhausted rule that fires wins; restarting
     from the head keeps cheap normalization (fold/simplify) ahead of the
     structural rules that feed on its output. *)
  let fire_one q =
    List.find_map
      (fun r ->
        if count r.name >= max_applications_per_rule then None
        else
          match r.apply catalog q with
          | None -> None
          | Some (q', detail) ->
              Hashtbl.replace counts r.name (count r.name + 1);
              Option.iter
                (fun o ->
                  Rq_obs.Recorder.record o (Rq_obs.Trace.Rewrite_applied { rule = r.name; detail }))
                obs;
              Some q')
      rules
  in
  let rec loop q =
    match fire_one q with Some q' -> loop q' | None -> q
  in
  let q = loop query in
  (* Fixpoint means no rule wants to fire — including any whose budget ran
     out mid-stream. *)
  let starving =
    List.exists
      (fun r -> count r.name >= max_applications_per_rule && r.apply catalog q <> None)
      rules
  in
  let applied =
    List.filter_map
      (fun r -> match count r.name with 0 -> None | n -> Some (r.name, n))
      rules
  in
  (q, { applied; fixpoint = not starving })

(* Catalog-free canonicalization for plan-cache fingerprints: the pure
   subset of the pass list (constant folding, predicate simplification,
   filter pushdown, aggregation-shadowed projection pruning) run to their
   own fixpoint.  Two spellings of the same query normalize to the same
   key; structural rules that need the catalog (decorrelation, ordered
   scans) never change fingerprint semantics because the cache keys
   queries *before* the optimizer rewrites them. *)
let canonical query =
  let drop_shadowed_projection q =
    match q.Logical.projection with
    | Some _ when q.Logical.aggs <> [] || q.Logical.group_by <> [] ->
        Some ({ q with Logical.projection = None }, "")
    | _ -> None
  in
  let steps = [ r_const_fold; r_simplify; r_filter_pushdown; drop_shadowed_projection ] in
  let rec loop q n =
    if n > 64 then q
    else
      match List.find_map (fun step -> step q) steps with
      | Some (q', _) -> loop q' (n + 1)
      | None -> q
  in
  loop query 0

(* Deliberately unsound: drops the first real filter it finds.  The
   fuzzer's --self-test mode plants this on the rewritten arm and
   must catch the divergence and shrink it — proving the equivalence
   harness would notice a genuinely broken rule. *)
let unsound_for_tests q =
  let drop_first_conjunct p =
    match Pred.conjuncts p with [] -> None | _ :: rest -> Some (Pred.conj rest)
  in
  let rec drop_table = function
    | [] -> None
    | (r : Logical.table_ref) :: rest -> (
        match drop_first_conjunct r.Logical.pred with
        | Some pred when pred <> r.Logical.pred ->
            Some ({ r with Logical.pred } :: rest)
        | _ -> Option.map (fun rest' -> r :: rest') (drop_table rest))
  in
  match drop_table q.Logical.tables with
  | Some tables -> { q with Logical.tables = tables }
  | None -> (
      match drop_first_conjunct q.Logical.residual with
      | Some residual when residual <> q.Logical.residual -> { q with Logical.residual = residual }
      | _ -> q)
