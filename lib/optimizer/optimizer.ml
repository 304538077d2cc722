open Rq_exec

type t = {
  stats : Rq_stats.Stats_store.t;
  estimator : Cardinality.t;
  constants : Cost.constants;
  scale : float;
}

let create ?(constants = Cost.default_constants) ?(scale = 1.0) stats estimator =
  { stats; estimator; constants; scale }

let robust ?constants ?scale ?confidence ?prior stats =
  let confidence =
    match confidence with
    | Some c -> c
    | None -> Rq_core.Confidence.(resolve default_setting)
  in
  let est = Rq_core.Robust_estimator.create ?prior ~confidence () in
  create ?constants ?scale stats (Cardinality.robust stats est)

let baseline ?constants ?scale stats =
  create ?constants ?scale stats (Cardinality.histogram_avi stats)

let estimator t = t.estimator
let stats t = t.stats
let scale t = t.scale
let constants t = t.constants

type decision = {
  plan : Plan.t;
  estimated_cost : float;
  estimated_card : float;
  alternatives : (string * float) list;
  degraded : Rq_stats.Fault.event list;
  rewrites : (string * int) list;
}

(* Internal: unwound when the enumeration budget runs out. *)
exception Budget_hit

let optimize ?budget ?(rewrite = true) ?obs t query =
  let catalog = Rq_stats.Stats_store.catalog t.stats in
  match Logical.validate catalog query with
  | Error _ as e -> e
  | Ok () ->
      let query, rewrites =
        if rewrite then
          let q, report = Rewrite.rewrite ?obs catalog query in
          (q, report.Rewrite.applied)
        else (query, [])
      in
      if query.Logical.scalars <> [] then
        Error "scalar subqueries require the rewrite pass (rewrite:false given)"
      else
      let estimate plan = Costing.estimate catalog t.estimator plan in
      let price (e : Costing.estimate) = Cost.price t.constants ~scale:t.scale e.Costing.work in
      (* The budget is counted in cost_fn invocations — the unit of
         enumeration work (every candidate inspected costs exactly one). *)
      let calls = ref 0 in
      let cost_fn plan =
        incr calls;
        (match budget with Some b when !calls > b -> raise Budget_hit | _ -> ());
        price (estimate plan)
      in
      let degraded = ref [] in
      (* Candidates are complete join plans; aggregation cost is identical
         across them (same input cardinality), so ranking before or after
         wrapping agrees — we rank the wrapped plans to keep the invariant
         obvious. *)
      let wrapped =
        try
          List.map (Enumerate.wrap_top catalog query)
            (Enumerate.join_plans catalog ~cost_fn query)
        with Budget_hit -> (
          degraded :=
            [
              {
                Rq_stats.Fault.kind = Rq_stats.Fault.Budget_exceeded;
                subsystem = "optimizer";
                detail =
                  Printf.sprintf
                    "enumeration stopped after %d cost evaluations; using left-deep fallback"
                    (Option.value budget ~default:0);
              };
            ];
          match Enumerate.left_deep_plan catalog query with
          | Some p -> [ Enumerate.wrap_top catalog query p ]
          | None -> [])
      in
      (* Ranking is outside the budget: the fallback plan must still be
         costable after the budget is spent.  Each candidate is estimated
         once; ranking, [alternatives] and the decision share the
         figures. *)
      let costed =
        List.map
          (fun p ->
            let e = estimate p in
            (p, e, price e))
          wrapped
      in
      (match costed with
      | [] -> Error "no candidate plans (missing indexes or disconnected join graph?)"
      | first :: rest ->
          (* Strict [<]: the first of equally cheap plans wins. *)
          let best, best_estimate, best_cost =
            List.fold_left
              (fun ((_, _, best_cost) as acc) ((_, _, cost) as cand) ->
                if cost < best_cost then cand else acc)
              first rest
          in
          let alternatives =
            List.map (fun (p, _, cost) -> (Plan.describe p, cost)) costed
            |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
          in
          Ok
            {
              plan = best;
              estimated_cost = best_cost;
              estimated_card = best_estimate.Costing.card;
              alternatives;
              degraded = !degraded;
              rewrites;
            })

let optimize_exn ?budget ?rewrite ?obs t query =
  match optimize ?budget ?rewrite ?obs t query with
  | Ok d -> d
  | Error msg -> invalid_arg ("Optimizer.optimize_exn: " ^ msg)

let explain t query =
  match optimize t query with
  | Error _ as e -> e
  | Ok d ->
      let buf = Buffer.create 256 in
      let fmt = Format.formatter_of_buffer buf in
      Format.fprintf fmt "estimator: %s@." t.estimator.Cardinality.name;
      Format.fprintf fmt "estimated cost: %.3f s, estimated rows: %.1f@." d.estimated_cost
        d.estimated_card;
      Format.fprintf fmt "plan:@.%a" Plan.pp d.plan;
      Format.fprintf fmt "alternatives:@.";
      List.iter
        (fun (label, cost) -> Format.fprintf fmt "  %-40s %.3f s@." label cost)
        d.alternatives;
      Format.pp_print_flush fmt ();
      Ok (Buffer.contents buf)
