open Rq_storage
open Rq_exec
open Rq_stats
open Rq_core

type t = {
  name : string;
  expression_cardinality : Logical.table_ref list -> float;
  table_selectivity : table:string -> Pred.t -> float;
  group_count : Logical.table_ref list -> string list -> float;
}

let names_of refs = List.map (fun (r : Logical.table_ref) -> r.Logical.table) refs

let root_of catalog refs =
  match names_of refs with
  | [ single ] -> Some single
  | names -> Stats_store.root_of_expression catalog names

let root_size catalog refs =
  match root_of catalog refs with
  | Some root -> float_of_int (Relation.row_count (Catalog.find_table catalog root))
  | None ->
      (* Disconnected or rootless expressions do not arise from validated
         queries; degrade to the largest table. *)
      List.fold_left
        (fun acc name ->
          Float.max acc (float_of_int (Relation.row_count (Catalog.find_table catalog name))))
        0.0 (names_of refs)

let expression_selectivity catalog t refs =
  let size = root_size catalog refs in
  if size <= 0.0 then 0.0 else t.expression_cardinality refs /. size

(* Attribute value independence + containment: the per-table
   selectivities multiplied, times the root's size (FK joins preserve the
   root's rows). *)
let avi_cardinality catalog table_selectivity refs =
  let sel =
    List.fold_left
      (fun acc (r : Logical.table_ref) ->
        acc *. table_selectivity ~table:r.Logical.table r.Logical.pred)
      1.0 refs
  in
  sel *. root_size catalog refs

let qualified_pred (r : Logical.table_ref) =
  Pred.rename_columns (fun c -> r.Logical.table ^ "." ^ c) r.Logical.pred

(* ------------------------------------------------------------------ *)
(* Robust (the paper's estimator)                                      *)
(* ------------------------------------------------------------------ *)

(* The robust estimator, plus its expression and group-count answers for
   a synopsis the caller has already resolved (and checked to cover the
   expression): [degrading] resolves it once, for its health check, and
   hands it over instead of resolving it again. *)
type robust_parts = {
  est : t;
  cardinality_on : Join_synopsis.t -> Logical.table_ref list -> float;
  groups_on : Join_synopsis.t -> Logical.table_ref list -> string list -> float;
}

(* Evidence is cached once, per atom, in the synopsis's own kernel
   ([Pred_index]): repeated asks — once per access path, once per DP
   subset visit — cost a bitwise combine and a popcount, so nothing here
   caches counts again.  Those bitmaps cannot go stale: a synopsis's
   sample never changes, and fault injection and maintenance refreshes
   build new synopses with new kernels.  What is left per estimator is
   the Beta-quantile inversion, memoized on (k, n). *)
let robust_parts stats estimator =
  let catalog = Stats_store.catalog stats in
  (* Quantile inversion costs microseconds; the distinct (k, n) pairs one
     estimator sees are few. *)
  let quantiles : (int * int, float) Hashtbl.t = Hashtbl.create 32 in
  let estimate (k, n) =
    match Hashtbl.find_opt quantiles (k, n) with
    | Some s -> s
    | None ->
        let s = Robust_estimator.estimate estimator ~successes:k ~trials:n in
        Hashtbl.replace quantiles (k, n) s;
        s
  in
  let table_selectivity ~table pred =
    match Stats_store.synopsis stats ~root:table with
    | Some syn ->
        estimate
          (Join_synopsis.evidence syn (Pred.rename_columns (fun c -> table ^ "." ^ c) pred))
    | None -> Robust_estimator.estimate_no_statistics estimator
  in
  let cardinality_on syn refs =
    estimate (Join_synopsis.evidence syn (Pred.conj (List.map qualified_pred refs)))
    *. float_of_int (Join_synopsis.root_size syn)
  in
  let groups_on syn refs group_by =
    let pred = Pred.conj (List.map qualified_pred refs) in
    let population_size = int_of_float (Float.max 1.0 (cardinality_on syn refs)) in
    let k, _ = Join_synopsis.evidence syn pred in
    if k = 0 then 1.0
    else
      (* Streamed off the kernel's bitmap, never materialized. *)
      Distinct.estimate_groups_seq
        ~schema:(Relation.schema (Sample.rows (Join_synopsis.sample syn)))
        ~columns:group_by ~population_size
        (Join_synopsis.matching_rows syn pred)
  in
  let expression_cardinality refs =
    match Stats_store.synopsis_for stats (names_of refs) with
    | Some syn -> cardinality_on syn refs
    | None ->
        (* Sec.-3.5 fallback: no covering synopsis.  Estimate each table's
           predicate from its own sample (robustly) and combine under AVI +
           containment; the error is confined to this expression. *)
        avi_cardinality catalog table_selectivity refs
  in
  let group_count refs group_by =
    match Stats_store.synopsis_for stats (names_of refs) with
    | Some syn -> groups_on syn refs group_by
    | None -> Float.max 1.0 (expression_cardinality refs *. 0.1)
  in
  {
    est = { name = "robust-sampling"; expression_cardinality; table_selectivity; group_count };
    cardinality_on;
    groups_on;
  }

let robust stats estimator = (robust_parts stats estimator).est

(* ------------------------------------------------------------------ *)
(* Histogram + AVI (the baseline)                                      *)
(* ------------------------------------------------------------------ *)

let histogram_avi stats =
  let catalog = Stats_store.catalog stats in
  let table_selectivity ~table pred = Stats_store.histogram_selectivity stats ~table pred in
  let expression_cardinality = avi_cardinality catalog table_selectivity in
  let group_count refs group_by =
    (* Product of per-column distinct counts, capped by the expression's
       own cardinality — the conventional estimate. *)
    let card = expression_cardinality refs in
    let distinct_product =
      List.fold_left
        (fun acc qualified_col ->
          match String.index_opt qualified_col '.' with
          | None -> acc
          | Some i ->
              let table = String.sub qualified_col 0 i in
              let column =
                String.sub qualified_col (i + 1) (String.length qualified_col - i - 1)
              in
              (match Stats_store.histogram stats ~table ~column with
              | Some h -> acc *. float_of_int (max 1 (Histogram.estimated_distinct h))
              | None -> acc *. 10.0))
        1.0 group_by
    in
    Float.max 1.0 (Float.min card distinct_product)
  in
  { name = "histogram-avi"; expression_cardinality; table_selectivity; group_count }

(* ------------------------------------------------------------------ *)
(* Graceful degradation: sample -> synopsis -> histogram -> magic      *)
(* ------------------------------------------------------------------ *)

let degrading ?(log = fun _ -> ()) ?obs stats estimator =
  let catalog = Stats_store.catalog stats in
  (* Health verdict per synopsis root, memoized: a broken synopsis is
     reported once per optimization, not once per cost_fn call. *)
  let health : (string, Join_synopsis.t option) Hashtbl.t = Hashtbl.create 8 in
  let logged : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let log_once (event : Fault.event) =
    let key = Fault.kind_to_string event.Fault.kind ^ "|" ^ event.Fault.subsystem in
    if not (Hashtbl.mem logged key) then begin
      Hashtbl.replace logged key ();
      log event;
      match obs with
      | None -> ()
      | Some r ->
          Rq_obs.Recorder.record r
            (Rq_obs.Trace.Degraded
               {
                 kind = Fault.kind_to_string event.Fault.kind;
                 subsystem = event.Fault.subsystem;
                 detail = event.Fault.detail;
               })
    end
  in
  let healthy_synopsis root =
    match Hashtbl.find_opt health root with
    | Some verdict -> verdict
    | None ->
        let verdict =
          match Stats_store.synopsis stats ~root with
          | None ->
              log_once
                {
                  Fault.kind = Fault.Missing;
                  subsystem = "synopsis:" ^ root;
                  detail = "no synopsis for root";
                };
              None
          | Some syn -> (
              match Fault.verify_synopsis catalog syn with
              | Ok () -> Some syn
              | Error event ->
                  log_once event;
                  None)
        in
        Hashtbl.replace health root verdict;
        verdict
  in
  (* Tier 1 is the robust estimator itself, handed the synopsis that
     passed the health check, so a healthy-stats request resolves its
     root once and costs what [robust]'s does plus one table lookup. *)
  let robust = robust_parts stats estimator in
  let hist_est = histogram_avi stats in
  (* Tier 3->4 boundary: histogram_selectivity silently substitutes magic
     constants for missing histograms; detect and report that so the chain's
     last hop is visible in the event log. *)
  let histogram_tier ~table pred =
    let missing =
      List.filter
        (fun column -> Stats_store.histogram stats ~table ~column = None)
        (List.sort_uniq String.compare (Pred.columns pred))
    in
    (match missing with
    | [] -> ()
    | cols ->
        log_once
          {
            Fault.kind = Fault.Missing;
            subsystem = "histogram:" ^ table;
            detail =
              Printf.sprintf "no histogram for %s; using magic constants"
                (String.concat ", " cols);
          });
    hist_est.table_selectivity ~table pred
  in
  let table_selectivity ~table pred =
    match healthy_synopsis table with
    | Some _ -> robust.est.table_selectivity ~table pred
    | None -> if pred = Pred.True then 1.0 else histogram_tier ~table pred
  in
  (* The healthy synopsis covering the expression, if any: the one
     [Stats_store.synopsis_for] would resolve for [robust]. *)
  let covering refs =
    match root_of catalog refs with
    | Some root -> (
        match healthy_synopsis root with
        | Some syn when Join_synopsis.covers syn (names_of refs) -> Some syn
        | _ -> None)
    | None -> None
  in
  let expression_cardinality refs =
    match covering refs with
    | Some syn -> robust.cardinality_on syn refs
    | None ->
        (* Tiers 2-4: per-table estimates (each table's own best tier)
           combined under AVI + containment. *)
        avi_cardinality catalog table_selectivity refs
  in
  let group_count refs group_by =
    match covering refs with
    | Some syn -> robust.groups_on syn refs group_by
    | None -> hist_est.group_count refs group_by
  in
  { name = "degrading-chain"; expression_cardinality; table_selectivity; group_count }

(* ------------------------------------------------------------------ *)
(* Ablation: robust per-table samples, AVI across tables               *)
(* ------------------------------------------------------------------ *)

let sample_avi stats estimator =
  let catalog = Stats_store.catalog stats in
  let robust_est = robust stats estimator in
  let table_selectivity = robust_est.table_selectivity in
  let expression_cardinality = avi_cardinality catalog table_selectivity in
  {
    name = "sample-avi";
    expression_cardinality;
    table_selectivity;
    group_count = robust_est.group_count;
  }

(* ------------------------------------------------------------------ *)
(* Ablation: join synopses with maximum-likelihood interpretation      *)
(* ------------------------------------------------------------------ *)

let sample_ml stats =
  let catalog = Stats_store.catalog stats in
  let ml_of_evidence (k, n) =
    if n <= 0 then Robust_estimator.magic_selectivity
    else Robust_estimator.maximum_likelihood_estimate ~successes:k ~trials:n
  in
  let table_selectivity ~table pred =
    match Stats_store.synopsis stats ~root:table with
    | Some syn ->
        ml_of_evidence
          (Join_synopsis.evidence syn (Pred.rename_columns (fun c -> table ^ "." ^ c) pred))
    | None -> Robust_estimator.magic_selectivity
  in
  let expression_cardinality refs =
    let names = names_of refs in
    match Stats_store.synopsis_for stats names with
    | Some syn ->
        let pred = Pred.conj (List.map qualified_pred refs) in
        ml_of_evidence (Join_synopsis.evidence syn pred)
        *. float_of_int (Join_synopsis.root_size syn)
    | None -> avi_cardinality catalog table_selectivity refs
  in
  let group_count refs _ = Float.max 1.0 (expression_cardinality refs *. 0.1) in
  { name = "sample-ml"; expression_cardinality; table_selectivity; group_count }

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let fixed_selectivity catalog sel =
  if sel < 0.0 || sel > 1.0 then invalid_arg "Cardinality.fixed_selectivity: outside [0,1]";
  let expression_cardinality refs =
    (* Unpredicated expressions keep their true size (FK joins preserve the
       root); the constant only stands in for predicate selectivity. *)
    let has_predicate =
      List.exists (fun (r : Logical.table_ref) -> r.Logical.pred <> Pred.True) refs
    in
    if has_predicate then sel *. root_size catalog refs else root_size catalog refs
  in
  {
    name = Printf.sprintf "fixed-selectivity(%g)" sel;
    expression_cardinality;
    table_selectivity = (fun ~table:_ pred -> if pred = Pred.True then 1.0 else sel);
    group_count = (fun refs _ -> Float.max 1.0 (0.1 *. expression_cardinality refs));
  }

(* Every answer is a Naive join, and one optimization asks the same
   expression once per DP subset visit, so each instance memoizes its
   answers.  The key is the refs themselves, compared structurally, so
   two predicates share an answer only when they are the same value.
   The memo never looks at the catalog again: an instance answers for
   the catalog contents it first saw. *)
let oracle catalog =
  let cards : (Logical.table_ref list, float) Hashtbl.t = Hashtbl.create 64 in
  let expression_cardinality refs =
    match Hashtbl.find_opt cards refs with
    | Some card -> card
    | None ->
        let card = float_of_int (Naive.cardinality catalog refs) in
        Hashtbl.add cards refs card;
        card
  in
  let table_selectivity ~table pred =
    let rel = Catalog.find_table catalog table in
    let rows = Relation.row_count rel in
    if rows = 0 then 0.0
    else
      float_of_int (Relation.filter_count rel (Pred.compile (Relation.schema rel) pred))
      /. float_of_int rows
  in
  let group_count refs group_by =
    let result = Naive.evaluate catalog refs in
    let positions = List.map (Schema.index_of result.Executor.schema) group_by in
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun tup -> Hashtbl.replace seen (List.map (fun p -> tup.(p)) positions) ())
      result.Executor.tuples;
    float_of_int (max 1 (Hashtbl.length seen))
  in
  { name = "oracle"; expression_cardinality; table_selectivity; group_count }
