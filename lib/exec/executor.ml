open Rq_storage

type result = Exec_common.result = { schema : Schema.t; tuples : Relation.tuple array }

type violation = Exec_common.violation = {
  label : string;
  expected_rows : float;
  actual_rows : int;
  q_error : float;
  result : result;
  subplan : Plan.t;
  complete : bool;
  progress : float;
  resume : Plan.t option;
}

exception Guard_violation = Exec_common.Guard_violation

(* The guard's firing rule is Plan.q_error, the same definition EXPLAIN
   ANALYZE renders — re-exported so callers of the executor need not know. *)
let q_error = Plan.q_error

let run ?obs catalog meter plan = Stream_exec.run ?obs catalog meter plan

let run_timed catalog ?constants ?scale ?obs plan =
  let meter = Cost.create ?constants ?scale () in
  let res = run ?obs catalog meter plan in
  (res, Cost.snapshot meter)
