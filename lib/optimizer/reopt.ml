open Rq_exec

type outcome = {
  result : Executor.result;
  snapshot : Cost.snapshot;
  initial_plan : Plan.t;
  final_plan : Plan.t;
  events : Rq_obs.Trace.event list;
  reoptimizations : int;
}

(* ------------------------------------------------------------------ *)
(* Guard placement                                                     *)
(* ------------------------------------------------------------------ *)

(* Guard every materialization checkpoint strictly below the top of the join
   tree: scans and join outputs.  The join-tree root itself is not guarded
   (nothing left to replan above it), and [Materialized] leaves are never
   guarded (their cardinality is a fact, not an estimate). *)
let instrument_with catalog est ~threshold plan =
  let guard sub =
    let expected = (Costing.estimate catalog est sub).Costing.card in
    Plan.Guard
      { input = sub; expected_rows = expected; max_q_error = threshold; label = Plan.describe sub }
  in
  let rec instr ~root plan =
    match plan with
    | Plan.Scan _ -> if root then plan else guard plan
    | Plan.Materialized _ -> plan
    (* Recovery leaves from an earlier mid-stream firing: the prefix's
       cardinality is a fact and the resumed tail is already feedback-sized,
       so neither gets a fresh guard. *)
    | Plan.Scan_resume _ -> plan
    | Plan.Append _ -> plan
    | Plan.Guard { input; _ } -> instr ~root input (* re-instrument from scratch *)
    | Plan.Hash_join { build; probe; build_key; probe_key } ->
        let node =
          Plan.Hash_join
            { build = instr ~root:false build; probe = instr ~root:false probe; build_key; probe_key }
        in
        if root then node else guard node
    | Plan.Merge_join { left; right; left_key; right_key } ->
        let node =
          Plan.Merge_join
            { left = instr ~root:false left; right = instr ~root:false right; left_key; right_key }
        in
        if root then node else guard node
    | Plan.Indexed_nl_join j ->
        let node = Plan.Indexed_nl_join { j with outer = instr ~root:false j.outer } in
        if root then node else guard node
    | Plan.Star_semijoin _ -> if root then plan else guard plan
    | Plan.Filter (input, pred) -> Plan.Filter (instr ~root input, pred)
    | Plan.Project (input, cols) -> Plan.Project (instr ~root input, cols)
    | Plan.Aggregate { input; group_by; aggs } ->
        Plan.Aggregate { input = instr ~root input; group_by; aggs }
    | Plan.Sort { input; keys } -> Plan.Sort { input = instr ~root input; keys }
    | Plan.Limit (input, n) -> Plan.Limit (instr ~root input, n)
  in
  instr ~root:true plan

let instrument ?estimator ~threshold opt plan =
  let catalog = Rq_stats.Stats_store.catalog (Optimizer.stats opt) in
  let est = Option.value estimator ~default:(Optimizer.estimator opt) in
  instrument_with catalog est ~threshold plan

(* ------------------------------------------------------------------ *)
(* Continuation planning                                                *)
(* ------------------------------------------------------------------ *)

(* Greedily joins the remaining tables onto the materialized intermediate,
   picking the cheapest (feedback-aware) candidate at each step.  Greedy
   rather than full DP: the intermediate is fixed as the left input, so the
   search space is the remaining-table order times the join operators — small
   enough that greedy matches DP on the experiment schemas and cheap enough
   to run mid-query. *)
let continuation catalog (query : Logical.t) ~cost_fn ~mat_plan ~covered =
  let remaining =
    List.filter
      (fun (r : Logical.table_ref) -> not (List.mem r.Logical.table covered))
      query.Logical.tables
  in
  let rec grow plan covered remaining =
    match remaining with
    | [] -> Some plan
    | _ -> (
        let candidates =
          List.concat_map
            (fun (r : Logical.table_ref) ->
              List.concat_map
                (fun right_plan ->
                  Enumerate.join_candidates catalog query ~left_tables:covered ~left_plan:plan
                    ~right_tables:[ r.Logical.table ] ~right_plan)
                (Enumerate.access_paths catalog r))
            remaining
        in
        match candidates with
        | [] -> None (* no crossing FK edge: disconnected remainder *)
        | first :: rest ->
            let best =
              List.fold_left (fun acc p -> if cost_fn p < cost_fn acc then p else acc) first rest
            in
            let covered' = Plan.base_tables best in
            grow best covered'
              (List.filter
                 (fun (r : Logical.table_ref) -> not (List.mem r.Logical.table covered'))
                 remaining))
  in
  grow mat_plan covered remaining

(* ------------------------------------------------------------------ *)
(* Execution loop                                                      *)
(* ------------------------------------------------------------------ *)

let execute_plan ?(threshold = 4.0) ?(max_reopts = 2) ?obs opt query start_plan =
  if threshold < 1.0 then invalid_arg "Reopt.execute_plan: threshold must be >= 1.0";
  let stats = Optimizer.stats opt in
  let catalog = Rq_stats.Stats_store.catalog stats in
  let constants = Optimizer.constants opt and scale = Optimizer.scale opt in
  (* One meter across every attempt: work wasted by an aborted pipeline
     stays on the bill, so re-optimization pays for itself only when the
     rescue genuinely beats the bad plan. *)
  let meter = Cost.create ~constants ~scale () in
  (* The outcome keeps the loop's own narration: each firing (the executor
     records its [Guard_fired] on [obs] itself) and the decisions taken on
     it, which go to [obs] too. *)
  let events = ref [] in
  let trace ev =
    events := ev :: !events;
    Option.iter (fun r -> Rq_obs.Recorder.record r ev) obs
  in
  (* Each attempt runs in its own root span, so span deltas attribute the
     cost of every aborted prefix to the attempt that wasted it. *)
  let run_attempt label plan =
    let run () = Executor.run ?obs catalog meter plan in
    match obs with
    | None -> run ()
    | Some r ->
        Rq_obs.Recorder.scope r (Rq_obs.Recorder.node ~label [])
          ~meter:(fun () -> Cost.snapshot meter)
          ~rows:(fun res -> Array.length res.Executor.tuples)
          run
  in
  let fb = Feedback.create () in
  let base_est = Optimizer.estimator opt in
  let initial = instrument_with catalog base_est ~threshold start_plan in
  let rec attempt plan reopts =
    match run_attempt (Printf.sprintf "attempt%d" (reopts + 1)) plan with
    | res -> (res, plan, reopts)
    | exception
        Executor.Guard_violation
          {
            label;
            expected_rows;
            actual_rows;
            q_error;
            columns;
            subplan;
            complete;
            progress;
            resume;
          } ->
        events :=
          Rq_obs.Trace.Guard_fired { label; expected_rows; actual_rows; q_error } :: !events;
        let sub_refs = Costing.refs_of subplan in
        let covered = List.map (fun (r : Logical.table_ref) -> r.Logical.table) sub_refs in
        (* A mid-stream overflow only saw part of the input: extrapolate the
           final count from the consumed fraction so the feedback cache holds
           the best guess at the true cardinality, not the truncated one. *)
        let observed =
          if complete || progress <= 0.0 then float_of_int actual_rows
          else Float.max (float_of_int actual_rows) (float_of_int actual_rows /. progress)
        in
        Feedback.record fb ~tables:covered observed;
        let finish_plain ~reason plan =
          trace (Rq_obs.Trace.Reopt_abandoned { attempt = reopts + 1; reason });
          let plain = Plan.strip_guards plan in
          (run_attempt (Printf.sprintf "attempt%d:final" (reopts + 1)) plain, plain, reopts)
        in
        (* A guard inside a semijoin (or scalar-subquery) build fires over a
           table that is not a FROM-list leaf.  Its checkpoint must not seed
           the join-tree continuation: re-joining the inner table would both
           change multiplicity (IN/EXISTS drops duplicates, a join keeps
           them) and duplicate the inner columns once [wrap_top] lowers the
           semijoin again on top.  The feedback observation is still
           recorded, so a full replan below re-costs the build accurately. *)
        let in_from t =
          List.exists
            (fun (r : Logical.table_ref) -> String.equal r.Logical.table t)
            query.Logical.tables
        in
        let checkpointable = covered <> [] && List.for_all in_from covered in
        if reopts >= max_reopts then
          finish_plain ~reason:"re-optimization budget exhausted" plan
        else begin
          trace (Rq_obs.Trace.Reopt_planned { attempt = reopts + 1; label });
          let fb_est = Feedback.with_feedback fb base_est in
          let cost_fn p = Costing.plan_cost catalog ~constants ~scale fb_est p in
          let adopt joined =
            let full = Enumerate.wrap_top catalog query joined in
            trace
              (Rq_obs.Trace.Reopt_adopted
                 { attempt = reopts + 1; plan = Plan.describe full });
            let guarded = instrument_with catalog fb_est ~threshold full in
            attempt guarded (reopts + 1)
          in
          let mat_leaf =
            Plan.Materialized
              {
                name = Printf.sprintf "checkpoint%d[%s]" (reopts + 1) label;
                schema = Plan.schema_of catalog subplan;
                cols = columns;
                n_rows = actual_rows;
                refs =
                  List.map
                    (fun (r : Logical.table_ref) -> (r.Logical.table, r.Logical.pred))
                    sub_refs;
              }
          in
          let replan_full () =
            match Enumerate.join_plans catalog ~cost_fn query with
            | [] -> finish_plain ~reason:"no full replan available" plan
            | first :: rest_plans ->
                let best =
                  List.fold_left
                    (fun acc p -> if cost_fn p < cost_fn acc then p else acc)
                    first rest_plans
                in
                adopt best
          in
          if not checkpointable then replan_full ()
          else
          match (complete, resume) with
          | true, _ -> (
              (* The whole subplan output is in hand: continue from it. *)
              match continuation catalog query ~cost_fn ~mat_plan:mat_leaf ~covered with
              | None ->
                  finish_plain ~reason:"no continuation (disconnected remainder)" plan
              | Some joined -> adopt joined)
          | false, Some rest -> (
              (* Mid-stream firing over a resumable scan: keep the partial
                 prefix (its pages are already paid for) and append the
                 resumed tail, then continue from their union. *)
              let mat_plan = Plan.Append [ mat_leaf; rest ] in
              match continuation catalog query ~cost_fn ~mat_plan ~covered with
              | None ->
                  finish_plain ~reason:"no continuation (disconnected remainder)" plan
              | Some joined -> adopt joined)
          | false, None ->
              (* Mid-stream firing with a non-resumable prefix (index fetch,
                 join output): the partial rows cannot be completed, so
                 replan the whole query under the corrected estimator. *)
              replan_full ()
        end
  in
  let result, final_plan, reoptimizations = attempt initial 0 in
  {
    result;
    snapshot = Cost.snapshot meter;
    initial_plan = start_plan;
    final_plan = Plan.strip_guards final_plan;
    events = List.rev !events;
    reoptimizations;
  }

let execute ?threshold ?max_reopts ?obs opt query =
  match Optimizer.optimize opt query with
  | Error _ as e -> e
  | Ok d -> Ok (execute_plan ?threshold ?max_reopts ?obs opt query d.Optimizer.plan)
