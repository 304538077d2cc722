(* The differential plan-correctness harness: one query, every candidate
   answer, each compared with Naive.  See differential.mli. *)

open Rq_storage
open Rq_exec
open Rq_optimizer
module Recorder = Rq_obs.Recorder

type env = {
  catalog : Catalog.t;
  scale : float;
  stats : Rq_stats.Stats_store.t;
  faulted : (string * Rq_stats.Stats_store.t) list;
  pools : Parallel.t list;
}

type pass = Estimators | Rewrites | Cache | Degraded | Cert

let all_passes = [ Estimators; Rewrites; Cache; Degraded; Cert ]

type sabotage = Unsound_rewrite

type divergence = { pass : string; detail : string }

type probe = { coverage : string * string; divergence : divergence option }

let fresh_estimator () =
  Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.(resolve default_setting) ()

let estimators_with ~oracle stats =
  [
    ("oracle", oracle);
    ("robust-sampling", Cardinality.robust stats (fresh_estimator ()));
    ("histogram-avi", Cardinality.histogram_avi stats);
    ("sample-avi", Cardinality.sample_avi stats (fresh_estimator ()));
    ("sample-ml", Cardinality.sample_ml stats);
  ]

let estimators catalog stats = estimators_with ~oracle:(Cardinality.oracle catalog) stats

(* ------------------------------------------------------------------ *)
(* Comparing one answer with the reference                             *)
(* ------------------------------------------------------------------ *)

let render_rows r =
  let rows = Exp_common.canonical_rows r in
  let n = Array.length rows in
  let shown = Array.to_list (Array.sub rows 0 (min 3 n)) in
  Printf.sprintf "%d rows [%s%s]" n (String.concat " | " shown) (if n > 3 then " ..." else "")

(* The ORDER BY columns present in the output, row by row. *)
let sort_key_rows (q : Logical.t) (r : Executor.result) =
  let schema = r.Executor.schema in
  let positions =
    List.filter_map
      (fun { Plan.sort_column; _ } ->
        if Schema.mem schema sort_column then Some (Schema.index_of schema sort_column) else None)
      q.Logical.order_by
  in
  Array.map (fun tup -> List.map (fun p -> tup.(p)) positions) r.Executor.tuples

let answer_mismatch (q : Logical.t) ~reference candidate =
  if not (Exp_common.results_equal reference candidate) then
    Some (Printf.sprintf "reference %s vs candidate %s" (render_rows reference) (render_rows candidate))
  else
    let expected = sort_key_rows q reference and got = sort_key_rows q candidate in
    let same a b = List.for_all2 (Exp_common.values_close ~tol:1e-6) a b in
    let render keys = String.concat ", " (List.map Value.to_string keys) in
    Seq.zip (Array.to_seq expected) (Array.to_seq got)
    |> Seq.zip (Seq.ints 0)
    |> Seq.find_map (fun (i, (a, b)) ->
           if same a b then None
           else
             Some
               (Printf.sprintf "same rows, but ORDER BY columns differ at row %d: reference [%s], \
                                candidate [%s]"
                  i (render a) (render b)))

(* ------------------------------------------------------------------ *)
(* CERT: an added conjunct never raises an estimate                     *)
(* ------------------------------------------------------------------ *)

let cert_violation (c : Cardinality.t) (q : Logical.t) =
  let refs = q.Logical.tables in
  let check (r : Logical.table_ref) conjuncts j added =
    let fewer = Pred.conj (List.filteri (fun k _ -> k <> j) conjuncts) in
    let without =
      List.map
        (fun (r' : Logical.table_ref) ->
          if r'.Logical.table = r.Logical.table then { r' with Logical.pred = fewer } else r')
        refs
    in
    let raised what before after =
      (* slack for float association only *)
      if after > before +. (1e-9 *. Float.max 1.0 (Float.abs before)) then
        Some
          (Printf.sprintf "adding %s to %s raised %s from %g to %g" (Pred.render added)
             r.Logical.table what before after)
      else None
    in
    match
      raised "expression_cardinality" (c.Cardinality.expression_cardinality without)
        (c.Cardinality.expression_cardinality refs)
    with
    | Some _ as v -> v
    | None ->
        raised "table_selectivity"
          (c.Cardinality.table_selectivity ~table:r.Logical.table fewer)
          (c.Cardinality.table_selectivity ~table:r.Logical.table r.Logical.pred)
  in
  List.find_map
    (fun (r : Logical.table_ref) ->
      let conjuncts = List.filter (fun p -> p <> Pred.True) (Pred.conjuncts r.Logical.pred) in
      List.to_seq conjuncts |> Seq.mapi (check r conjuncts) |> Seq.find_map Fun.id)
    refs

(* ------------------------------------------------------------------ *)
(* One query through the passes                                        *)
(* ------------------------------------------------------------------ *)

(* One query's run through the passes: the first divergence wins, and a
   pass is skipped once one is recorded. *)
type ctx = {
  env : env;
  query : Logical.t;
  reference : Executor.result;  (* Naive's answer *)
  estimators : unit -> (string * Cardinality.t) list;
  rewritten : (string * (Optimizer.decision, string) result) list Lazy.t;
      (* each estimator's rewrite-on decision: the rewrite pass's plans and
         the coverage key *)
  mutable divergence : divergence option;
  mutable degraded : (Plan.t * string) list;  (* final plan, tier digest; newest first *)
}

let fail ctx pass detail = if ctx.divergence = None then ctx.divergence <- Some { pass; detail }

let guarded ctx pass f =
  if ctx.divergence = None then
    try f () with exn -> fail ctx ("crash:" ^ pass) (Printexc.to_string exn)

let against ctx pass result =
  Option.iter (fail ctx pass) (answer_mismatch ctx.query ~reference:ctx.reference result)

let decided ctx pass = function
  | Ok d -> Some d
  | Error e ->
      fail ctx pass ("rejected: " ^ e);
      None

let execute ctx plan = Executor.run ctx.env.catalog (Cost.create ~scale:ctx.env.scale ()) plan

(* The synopsis evidence k for the query's combined predicate: the
   kernel's count must equal a row scan of the sample under
   [Pred.compile]. *)
let evidence_check ctx =
  guarded ctx "evidence" (fun () ->
      match Rq_stats.Stats_store.synopsis_for ctx.env.stats (Logical.table_names ctx.query) with
      | None -> ()
      | Some syn ->
          let pred = Logical.combined_predicate ctx.query in
          let rows = Rq_stats.Sample.rows (Rq_stats.Join_synopsis.sample syn) in
          let sk = Relation.filter_count rows (Pred.compile (Relation.schema rows) pred) in
          let sn = Relation.row_count rows in
          let k, n = Rq_stats.Join_synopsis.evidence syn pred in
          if (k, n) <> (sk, sn) then
            fail ctx "evidence"
              (Printf.sprintf "kernel (%d, %d) <> row scan (%d, %d) on %s" k n sk sn
                 (Pred.render pred)))

let estimators_pass ctx =
  evidence_check ctx;
  List.iter
    (fun (name, est) ->
      let pass = "estimator:" ^ name in
      guarded ctx pass (fun () ->
          Optimizer.optimize ~rewrite:false
            (Optimizer.create ~scale:ctx.env.scale ctx.env.stats est)
            ctx.query
          |> decided ctx pass
          |> Option.iter (fun d -> against ctx pass (execute ctx d.Optimizer.plan))))
    (ctx.estimators ())

(* Each estimator's rewritten plan, serially and on every pool, as pass
   "rewrite:<estimator>". *)
let rewrites_pass ctx =
  guarded ctx "rewrite" (fun () ->
      List.iter
        (fun (name, decision) ->
          let pass = "rewrite:" ^ name in
          guarded ctx pass (fun () ->
              decided ctx pass decision
              |> Option.iter (fun d ->
                     against ctx pass (execute ctx d.Optimizer.plan);
                     List.iter
                       (fun pool ->
                         let pass = Printf.sprintf "%s:morsel(%d)" pass (Parallel.domains pool) in
                         guarded ctx pass (fun () ->
                             against ctx pass
                               (Parallel.run pool ctx.env.catalog
                                  (Cost.create ~scale:ctx.env.scale ()) d.Optimizer.plan)))
                       ctx.env.pools)))
        (Lazy.force ctx.rewritten))

let cache_pass ctx =
  guarded ctx "cache" (fun () ->
      let opt = Optimizer.robust ~scale:ctx.env.scale ctx.env.stats in
      let cache = Plan_cache.create () in
      let fingerprint =
        Rq_sql.Fingerprint.to_key
          (Rq_sql.Fingerprint.of_logical ~estimator:(Optimizer.estimator opt).Cardinality.name
             ctx.query)
      in
      List.iter
        (fun (arm, expected) ->
          let pass = "cache:" ^ arm in
          match Plan_cache.find_or_optimize cache opt ~fingerprint ctx.query with
          | Error e -> fail ctx pass ("rejected: " ^ e)
          | Ok (d, outcome) ->
              let got = Plan_cache.outcome_to_string outcome in
              if got <> expected then
                fail ctx pass (Printf.sprintf "expected %s lookup, got %s" expected got)
              else against ctx pass (execute ctx d.Optimizer.plan))
        [ ("cold", "miss"); ("cached", "hit") ])

(* Bad statistics may cost time, never answers or unaccounted work. *)
let degraded_pass ctx =
  List.iter
    (fun (label, faulted) ->
      let pass = Printf.sprintf "degraded[%s]" label in
      guarded ctx pass (fun () ->
          let recorder = Recorder.create () in
          let estimator = Cardinality.degrading ~obs:recorder faulted (fresh_estimator ()) in
          let opt = Optimizer.create ~scale:ctx.env.scale faulted estimator in
          Optimizer.optimize opt ctx.query
          |> decided ctx pass
          |> Option.iter (fun d ->
                 let outcome = Reopt.execute_plan ~obs:recorder opt ctx.query d.Optimizer.plan in
                 against ctx pass outcome.Reopt.result;
                 if
                   not
                     (Rq_obs.Metrics.approx_equal ~tolerance:1e-9
                        (Recorder.sum_self (Recorder.roots recorder))
                        outcome.Reopt.snapshot)
                 then
                   fail ctx (pass ^ ":counter-reconciliation")
                     "observability spans do not sum to the cost-meter snapshot";
                 ctx.degraded <-
                   (outcome.Reopt.final_plan, Trace_digest.of_recorder recorder) :: ctx.degraded)))
    ctx.env.faulted

(* Six estimators on healthy statistics, and the degrading chain on each
   damaged store: a violation there is a finding too. *)
let cert_pass ctx =
  let healthy =
    ctx.estimators () @ [ ("degrading", Cardinality.degrading ctx.env.stats (fresh_estimator ())) ]
  in
  let faulted =
    List.map
      (fun (label, faulted) ->
        (Printf.sprintf "degrading[%s]" label, Cardinality.degrading faulted (fresh_estimator ())))
      ctx.env.faulted
  in
  List.iter
    (fun (name, est) ->
      let pass = "cert:" ^ name in
      guarded ctx pass (fun () -> Option.iter (fail ctx pass) (cert_violation est ctx.query)))
    (healthy @ faulted)

(* The coverage key: the rewritten plans under their historical labels
   ("o" for the oracle), each degraded pass's final plan, and the robust
   estimator's rewritten plan once more as "rw". *)
let coverage ctx =
  let rewritten =
    if not (Lazy.is_val ctx.rewritten) then []
    else
      List.filter_map
        (fun (name, decision) ->
          Result.to_option decision
          |> Option.map (fun d -> ((if name = "oracle" then "o" else name), d.Optimizer.plan)))
        (Lazy.force ctx.rewritten)
  in
  let labelled =
    rewritten
    @ List.rev_map (fun (plan, _) -> ("deg", plan)) ctx.degraded
    @ Option.fold ~none:[]
        ~some:(fun plan -> [ ("rw", plan) ])
        (List.assoc_opt "robust-sampling" rewritten)
  in
  ( String.concat ";" (List.map (fun (l, p) -> l ^ "=" ^ Plan.describe p) labelled),
    String.concat ";" (List.rev_map snd ctx.degraded) )

let check ?(passes = all_passes) ?sabotage env query =
  match Logical.validate env.catalog query with
  | Error e -> Error ("invalid query: " ^ e)
  | Ok () -> (
      match Naive.evaluate_query env.catalog query with
      | exception Invalid_argument e -> Error e
      | reference ->
          (* one oracle, and so one memo, serves every pass of this query *)
          let oracle = Cardinality.oracle env.catalog in
          let estimators () = estimators_with ~oracle env.stats in
          let rewritten =
            lazy
              (let q =
                 match sabotage with
                 | Some Unsound_rewrite -> Rewrite.unsound_for_tests query
                 | None -> query
               in
               List.map
                 (fun (name, est) ->
                   (name, Optimizer.optimize (Optimizer.create ~scale:env.scale env.stats est) q))
                 (estimators ()))
          in
          let ctx =
            { env; query; reference; estimators; rewritten; divergence = None; degraded = [] }
          in
          List.iter
            (function
              | Estimators -> estimators_pass ctx
              | Rewrites -> rewrites_pass ctx
              | Cache -> cache_pass ctx
              | Degraded -> degraded_pass ctx
              | Cert -> cert_pass ctx)
            passes;
          Ok { coverage = coverage ctx; divergence = ctx.divergence })
