open Rq_exec
open Rq_optimizer

type t = { key : string; hash : int }

(* ------------------------------------------------------------------ *)
(* Canonical rendering                                                 *)
(* ------------------------------------------------------------------ *)

(* Canonical compact renderers: [Pred.pp]/[Expr.pp] are box-based pretty
   printers whose output depends on the formatter margin, which would make
   equal queries fingerprint differently at different lengths.
   [Expr.render]/[Pred.render] emit one unambiguous, normalized line, with
   float literals printed exactly. *)

let render_expr = Expr.render
let render_pred = Pred.render

let render_agg_fn = function
  | Plan.Count_star -> "count(*)"
  | Plan.Count e -> "count(" ^ render_expr e ^ ")"
  | Plan.Sum e -> "sum(" ^ render_expr e ^ ")"
  | Plan.Avg e -> "avg(" ^ render_expr e ^ ")"
  | Plan.Min e -> "min(" ^ render_expr e ^ ")"
  | Plan.Max e -> "max(" ^ render_expr e ^ ")"

let render_agg (a : Plan.agg) = render_agg_fn a.Plan.fn ^ " as " ^ a.Plan.output_name

let render_sort_key (k : Plan.sort_key) =
  k.Plan.sort_column ^ if k.Plan.descending then " desc" else " asc"

(* ------------------------------------------------------------------ *)
(* Fingerprinting                                                      *)
(* ------------------------------------------------------------------ *)

(* FNV-1a, folded to OCaml's 63-bit int.  The hash is a cheap bucket key;
   equality always compares full canonical keys, so collisions can never
   serve a wrong plan. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int (Int64.shift_right_logical !h 1)

let render_semijoin (sj : Logical.semijoin) =
  Printf.sprintf "%s in %s(%s)[%s]" sj.Logical.outer_key sj.Logical.inner.Logical.table
    sj.Logical.inner_key
    (render_pred sj.Logical.inner.Logical.pred)

let render_scalar (s : Logical.scalar) =
  let cmp =
    match s.Logical.s_cmp with
    | Pred.Eq -> "="
    | Pred.Ne -> "<>"
    | Pred.Lt -> "<"
    | Pred.Le -> "<="
    | Pred.Gt -> ">"
    | Pred.Ge -> ">="
  in
  Printf.sprintf "%s %s %s:%s[%s]" (render_expr s.Logical.s_expr) cmp
    (render_agg_fn s.Logical.s_agg) s.Logical.s_table
    (render_pred s.Logical.s_pred)

let of_logical ?(estimator = "") ?confidence (q : Logical.t) =
  (* Canonicalize first (the pure rewrite rules): differently spelled but
     identical queries — folded constants, pushed-down filters, shadowed
     projections — share one cache key.  [index_order] is deliberately NOT
     part of the key: it is a physical-plan knob the rewrite layer sets,
     not query semantics, and cache keys are computed before the optimizer
     rewrites anyway. *)
  let q = Rewrite.canonical q in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Join structure is determined by the table *set* (the catalog's FK
     edges are fixed), so table order is normalized away. *)
  let tables =
    List.sort
      (fun (a : Logical.table_ref) b -> String.compare a.Logical.table b.Logical.table)
      q.Logical.tables
  in
  List.iter
    (fun (r : Logical.table_ref) ->
      add "t:%s[%s];" r.Logical.table (render_pred r.Logical.pred))
    tables;
  add "r:%s;" (render_pred q.Logical.residual);
  (* Semijoin order is irrelevant (they conjoin); scalar order is not
     normalized — scalar comparisons land in the residual after rewriting,
     and the canonicalizer cannot execute them, so identity stays
     spelling-faithful. *)
  add "s:%s;"
    (String.concat "," (List.sort String.compare (List.map render_semijoin q.Logical.semijoins)));
  add "q:%s;" (String.concat "," (List.map render_scalar q.Logical.scalars));
  (* Grouping/projection/order shape the output schema, so they stay
     verbatim (order significant). *)
  add "g:%s;" (String.concat "," q.Logical.group_by);
  add "a:%s;" (String.concat "," (List.map render_agg q.Logical.aggs));
  (match q.Logical.projection with
  | None -> add "p:*;"
  | Some cols -> add "p:%s;" (String.concat "," cols));
  add "o:%s;" (String.concat "," (List.map render_sort_key q.Logical.order_by));
  (match q.Logical.limit with None -> add "l:;" | Some n -> add "l:%d;" n);
  (* The estimator's identity: the same logical query optimized under a
     different estimator or confidence threshold is a different cache
     entry — their chosen plans legitimately differ. *)
  add "e:%s;" estimator;
  (match confidence with
  | None -> add "T:;"
  | Some c -> add "T:%.6g;" (Rq_core.Confidence.to_percent c));
  let key = Buffer.contents buf in
  { key; hash = fnv1a key }

let to_key t = t.key
let hash t = t.hash
let equal a b = String.equal a.key b.key
let compare a b = String.compare a.key b.key
let pp fmt t = Format.pp_print_string fmt t.key
