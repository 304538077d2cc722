open Rq_storage

type result = { schema : Schema.t; tuples : Relation.tuple array }

type violation = {
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

exception Guard_violation of violation

let qualified_schema catalog table =
  Schema.qualify table (Relation.schema (Catalog.find_table catalog table))

(* Pages of index leaf level touched when [entries] of [total] entries are
   read: the matching entries are contiguous in key order.  In floats, so
   the cost model can ask it of an estimated entry count. *)
let leaf_pages_touched idx entries =
  let total = Index.entry_count idx in
  if total = 0 || entries <= 0.0 then 0.0
  else
    let pages = Index.leaf_page_count idx in
    Float.max 1.0 (ceil (entries /. float_of_int total *. float_of_int pages))

let find_index_exn catalog ~table ~column =
  match Catalog.find_index catalog ~table ~column with
  | Some idx -> idx
  | None -> invalid_arg (Printf.sprintf "Executor: no index on %s.%s" table column)

let probe_index meter idx { Plan.column = _; lo; hi } =
  Cost.charge_index_probes meter 1;
  let count = Index.probe_range_count idx ~lo ~hi in
  Cost.charge_index_entries meter count;
  Cost.charge_seq_pages meter (int_of_float (leaf_pages_touched idx (float_of_int count)));
  Index.probe_range idx ~lo ~hi

(* The physical order a plan's output arrives in, if it is a clustered-key
   order the merge join can rely on.  Seq scans (resumed or not) emit heap
   order; index fetches emit RID order, which is also heap order. *)
let rec output_sorted_on catalog = function
  | Plan.Scan { table; _ } | Plan.Scan_resume { table; _ } -> (
      match Catalog.clustered_by catalog table with
      | Some col -> Some (table ^ "." ^ col)
      | None -> None)
  | Plan.Guard { input; _ } -> output_sorted_on catalog input
  | _ -> None

(* Page geometry of a scan resumed at [from]: the remainder re-reads the
   page the split point sits in (it was genuinely fetched twice), then the
   untouched tail.  [resume_pages rel ~from:0] equals [page_count rel]. *)
let resume_pages rel ~from =
  let rows = Relation.row_count rel in
  if from >= rows then 0
  else Relation.page_count rel - (from / Relation.rows_per_page rel)
