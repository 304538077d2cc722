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

type pass = Estimators | Rewrites | Cache | Kernel | Degraded | Prune | Cert

let all_passes = [ Estimators; Rewrites; Cache; Kernel; Degraded; Prune; Cert ]

type sabotage = Perturbed_scan_arm | Unsound_rewrite

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

(* The [Perturbed_scan_arm] sabotage: inflated cardinalities and
   selectivities.  The answers stay correct — only plan choices drift, the
   class of bug the kernel pass's plan-digest check exists to catch. *)
let perturb (c : Cardinality.t) =
  {
    c with
    name = c.name ^ "+perturbed";
    expression_cardinality = (fun refs -> (5.0 *. c.expression_cardinality refs) +. 25.0);
    table_selectivity =
      (fun ~table pred -> Float.min 1.0 ((3.0 *. c.table_selectivity ~table pred) +. 0.05));
  }

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

(* A skipped chunk charges zero read pages and zero seconds, so the pruned
   run's read + skipped sequential pages equal the unpruned run's reads. *)
let prune_mismatch catalog ~scale plan =
  let run enabled =
    let saved = !Prune.enabled in
    Prune.enabled := enabled;
    Fun.protect
      ~finally:(fun () -> Prune.enabled := saved)
      (fun () ->
        let meter = Cost.create ~scale () in
        let res = Executor.run catalog meter plan in
        (res, Cost.snapshot meter))
  in
  let pres, psnap = run true in
  let fres, fsnap = run false in
  if pres.Executor.tuples <> fres.Executor.tuples then
    Some (Printf.sprintf "pruned %s vs unpruned %s" (render_rows pres) (render_rows fres))
  else if fsnap.Cost.pages_skipped <> 0 then
    Some (Printf.sprintf "unpruned run reported %d skipped pages" fsnap.Cost.pages_skipped)
  else if psnap.Cost.seq_pages + psnap.Cost.pages_skipped <> fsnap.Cost.seq_pages then
    Some
      (Printf.sprintf "page accounting broke: pruned read %d + skipped %d <> unpruned read %d"
         psnap.Cost.seq_pages psnap.Cost.pages_skipped fsnap.Cost.seq_pages)
  else None

(* One query's run through the passes: the first divergence wins, and a
   pass is skipped once one is recorded. *)
type ctx = {
  env : env;
  query : Logical.t;
  reference : Executor.result;  (* Naive's answer *)
  sabotage : sabotage option;
  estimators : unit -> (string * Cardinality.t) list;
  rewritten : (string * (Optimizer.decision, string) result) list Lazy.t;
      (* each estimator's rewrite-on decision, shared by three passes *)
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

let optimizer ctx est = Optimizer.create ~scale:ctx.env.scale ctx.env.stats est

let estimators_pass ctx =
  List.iter
    (fun (name, est) ->
      let pass = "estimator:" ^ name in
      guarded ctx pass (fun () ->
          Optimizer.optimize ~rewrite:false (optimizer ctx est) ctx.query
          |> decided ctx pass
          |> Option.iter (fun d -> against ctx pass (execute ctx d.Optimizer.plan))))
    (ctx.estimators ())

(* [f pass decision] for each estimator's rewritten plan, as pass
   "<prefix>:<estimator>". *)
let each_rewritten ctx prefix f =
  guarded ctx prefix (fun () ->
      List.iter
        (fun (name, decision) ->
          let pass = prefix ^ ":" ^ name in
          guarded ctx pass (fun () -> decided ctx pass decision |> Option.iter (f pass)))
        (Lazy.force ctx.rewritten))

let rewrites_pass ctx =
  each_rewritten ctx "rewrite" (fun pass d ->
      against ctx pass (execute ctx d.Optimizer.plan);
      List.iter
        (fun pool ->
          let pass = Printf.sprintf "%s:morsel(%d)" pass (Parallel.domains pool) in
          guarded ctx pass (fun () ->
              against ctx pass
                (Parallel.run pool ctx.env.catalog (Cost.create ~scale:ctx.env.scale ())
                   d.Optimizer.plan)))
        ctx.env.pools)

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

let kernel_pass ctx =
  guarded ctx "kernel" (fun () ->
      let stats = ctx.env.stats in
      (match Rq_stats.Stats_store.synopsis_for stats (Logical.table_names ctx.query) with
      | None -> ()
      | Some syn ->
          let pred = Logical.combined_predicate ctx.query in
          let kk, kn = Rq_stats.Join_synopsis.evidence syn pred in
          let sk, sn = Rq_stats.Join_synopsis.evidence_scan syn pred in
          if (kk, kn) <> (sk, sn) then
            fail ctx "kernel:evidence"
              (Printf.sprintf "kernel (%d, %d) <> scan (%d, %d) on %s" kk kn sk sn
                 (Pred.render pred)));
      let scan = Cardinality.robust ~kernel:false stats (fresh_estimator ()) in
      let scan = if ctx.sabotage = Some Perturbed_scan_arm then perturb scan else scan in
      let optimize est = Optimizer.optimize (optimizer ctx est) ctx.query in
      if ctx.divergence = None then
        match (optimize (Cardinality.robust stats (fresh_estimator ())), optimize scan) with
        | Error e, _ -> fail ctx "kernel" ("kernel arm rejected: " ^ e)
        | _, Error e -> fail ctx "kernel" ("scan arm rejected: " ^ e)
        | Ok kd, Ok sd ->
            (* equal digests mean one plan: running the scan arm's copy
               again would test nothing new *)
            if Exp_common.plan_digest kd.Optimizer.plan <> Exp_common.plan_digest sd.Optimizer.plan
            then
              fail ctx "kernel:plan-mismatch"
                (Printf.sprintf "kernel chose %s, scan chose %s" (Plan.describe kd.Optimizer.plan)
                   (Plan.describe sd.Optimizer.plan))
            else against ctx "kernel" (execute ctx kd.Optimizer.plan))

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

let prune_pass ctx =
  each_rewritten ctx "prune" (fun pass d ->
      Option.iter (fail ctx pass)
        (prune_mismatch ctx.env.catalog ~scale:ctx.env.scale d.Optimizer.plan))

(* Seven estimators on healthy statistics, and the degrading chain on each
   damaged store: a violation there is a finding too. *)
let cert_pass ctx =
  let stats = ctx.env.stats in
  let healthy =
    ctx.estimators ()
    @ [
        ("robust-scan", Cardinality.robust ~kernel:false stats (fresh_estimator ()));
        ("degrading", Cardinality.degrading stats (fresh_estimator ()));
      ]
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
                 | Some Perturbed_scan_arm | None -> query
               in
               List.map
                 (fun (name, est) ->
                   (name, Optimizer.optimize (Optimizer.create ~scale:env.scale env.stats est) q))
                 (estimators ()))
          in
          let ctx =
            { env; query; reference; sabotage; estimators; rewritten; divergence = None; degraded = [] }
          in
          List.iter
            (function
              | Estimators -> estimators_pass ctx
              | Rewrites -> rewrites_pass ctx
              | Cache -> cache_pass ctx
              | Kernel -> kernel_pass ctx
              | Degraded -> degraded_pass ctx
              | Prune -> prune_pass ctx
              | Cert -> cert_pass ctx)
            passes;
          Ok { coverage = coverage ctx; divergence = ctx.divergence })
