open Rq_exec

type node = {
  depth : int;
  label : string;
  estimated_rows : float;
  actual_rows : int;
  q_error : float;
}

type report = {
  nodes : node list;
  snapshot : Cost.snapshot;
  spans : Rq_obs.Recorder.span list;
}

let analyze catalog ?constants ?scale ?obs estimator plan =
  let recorder =
    match obs with Some r -> r | None -> Rq_obs.Recorder.create ()
  in
  let meter = Cost.create ?constants ?scale () in
  (* One instrumented, guard-free execution: the span tree supplies every
     node's actual row count and cost delta, so nothing re-runs per node and
     the report never aborts mid-analysis.  Whether each guard *would* fire
     is derived from the q-error below. *)
  ignore (Executor.run ~obs:recorder catalog meter (Plan.strip_guards plan));
  let root =
    match List.rev (Rq_obs.Recorder.roots recorder) with
    | span :: _ -> span
    | [] -> invalid_arg "Explain_analyze.analyze: execution produced no span"
  in
  let estimate plan =
    match plan with
    (* A guard's row of the report compares its *instrumentation-time*
       expectation against reality — that is the check it performs. *)
    | Plan.Guard { expected_rows; _ } -> expected_rows
    | _ -> (Costing.estimate catalog estimator plan).Costing.card
  in
  (* Walk the original plan and the span tree in parallel.  Guards are
     invisible to the stripped execution, so a guard row reuses its input's
     span; every other node's plan children pair positionally with its
     span's children (the executor spans children in [Plan.children]
     order). *)
  let rec walk depth plan (span : Rq_obs.Recorder.span) =
    let estimated = estimate plan in
    let actual = span.rows in
    let q = Plan.q_error ~expected:estimated ~actual in
    let label =
      match plan with
      | Plan.Guard { max_q_error; _ } when q > max_q_error ->
          Plan.node_label plan ^ " [FIRES]"
      | Plan.Guard _ -> Plan.node_label plan ^ " [pass]"
      | _ -> Plan.node_label plan
    in
    let node = { depth; label; estimated_rows = estimated; actual_rows = actual; q_error = q } in
    match plan with
    | Plan.Guard { input; _ } -> node :: walk (depth + 1) input span
    | _ ->
        node
        :: List.concat
             (List.map2 (walk (depth + 1)) (Plan.children plan) span.children)
  in
  {
    nodes = walk 0 plan root;
    snapshot = Cost.snapshot meter;
    spans = [ root ];
  }

let collect catalog ?constants ?scale estimator plan =
  (analyze catalog ?constants ?scale estimator plan).nodes

let render_report report =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-52s %12s %12s %8s\n" "operator" "est_rows" "actual_rows" "q_error");
  List.iter
    (fun n ->
      let indent = String.make (2 * n.depth) ' ' in
      Buffer.add_string buf
        (Printf.sprintf "%-52s %12.1f %12d %8.2f\n" (indent ^ n.label) n.estimated_rows
           n.actual_rows n.q_error))
    report.nodes;
  Buffer.add_string buf
    (Printf.sprintf "total simulated execution: %.3f s\n" report.snapshot.Cost.seconds);
  Buffer.contents buf

let render catalog ?constants ?scale estimator plan =
  render_report (analyze catalog ?constants ?scale estimator plan)
