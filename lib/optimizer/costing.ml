open Rq_storage
open Rq_exec

type estimate = { work : Cost.work; card : float }

let pred_of_probe { Plan.column; lo; hi } =
  match (lo, hi) with
  | Some l, Some h -> Pred.between (Expr.col column) (Expr.Const l) (Expr.Const h)
  | Some l, None -> Pred.ge (Expr.col column) (Expr.Const l)
  | None, Some h -> Pred.le (Expr.col column) (Expr.Const h)
  | None, None -> Pred.True

(* Logical table refs covered by a subplan, for expression-cardinality
   queries.  Filter conjuncts that mention a single table are folded into
   that table's predicate. *)
let rec refs_of plan : Logical.table_ref list =
  match plan with
  | Plan.Scan { table; pred; _ } | Plan.Scan_resume { table; pred; _ } ->
      [ { Logical.table; pred } ]
  | Plan.Append parts -> (
      (* All parts cover the same logical tables (the prefix and its
         resumption); the first part's refs stand for the whole. *)
      match parts with [] -> [] | part :: _ -> refs_of part)
  | Plan.Hash_join { build; probe; _ } -> refs_of build @ refs_of probe
  | Plan.Merge_join { left; right; _ } -> refs_of left @ refs_of right
  | Plan.Indexed_nl_join { outer; inner_table; inner_pred; _ } ->
      refs_of outer @ [ { Logical.table = inner_table; pred = inner_pred } ]
  | Plan.Star_semijoin { fact; fact_pred; dims } ->
      { Logical.table = fact; pred = fact_pred }
      :: List.map
           (fun { Plan.dim_table; dim_pred; _ } -> { Logical.table = dim_table; pred = dim_pred })
           dims
  | Plan.Filter (input, pred) ->
      let refs = refs_of input in
      let strip_prefix table c =
        let prefix = table ^ "." in
        let pl = String.length prefix in
        if String.length c > pl && String.sub c 0 pl = prefix then
          String.sub c pl (String.length c - pl)
        else c
      in
      let merge_conjunct refs conjunct =
        let cols = Pred.columns conjunct in
        let owner_of c = match String.index_opt c '.' with
          | Some i -> Some (String.sub c 0 i)
          | None -> None
        in
        match (List.filter_map owner_of cols, refs) with
        | [], (r : Logical.table_ref) :: others when cols = [] ->
            (* A constant conjunct keeps all rows or none: any one table
               may carry it. *)
            { r with Logical.pred = Pred.conj [ r.Logical.pred; conjunct ] } :: others
        | owner :: rest, _ when List.for_all (String.equal owner) rest ->
            List.map
              (fun (r : Logical.table_ref) ->
                if String.equal r.Logical.table owner then
                  {
                    r with
                    Logical.pred =
                      Pred.conj
                        [ r.Logical.pred;
                          Pred.rename_columns (strip_prefix owner) conjunct ];
                  }
                else r)
              refs
        | _, _ -> refs
      in
      List.fold_left merge_conjunct refs (Pred.conjuncts pred)
  | Plan.Project (input, _) -> refs_of input
  | Plan.Sort { input; _ } | Plan.Limit (input, _) -> refs_of input
  | Plan.Aggregate { input; _ } -> refs_of input
  | Plan.Guard { input; _ } -> refs_of input
  | Plan.Materialized { refs; _ } ->
      List.map (fun (table, pred) -> { Logical.table; pred }) refs

(* Each case adds the counts the executor charges for the same operator
   (lib/exec/executor.ml), with estimated cardinalities in place of
   observed ones; [Cost.price] alone turns them into seconds.  [go] adds
   into one accumulator and returns the subplan's cardinality. *)
let estimate catalog est plan =
  let card_of refs = Float.max 0.0 (est.Cardinality.expression_cardinality refs) in
  let table_sel table pred =
    Float.max 0.0 (Float.min 1.0 (est.Cardinality.table_selectivity ~table pred))
  in
  let index_of table column = Executor.find_index_exn catalog ~table ~column in
  let rows_of table = float_of_int (Relation.row_count (Catalog.find_table catalog table)) in
  (* The task planner the engine scans with: skipped chunks cost nothing. *)
  let seq_scan (w : Cost.work) ?from rel pred =
    let pages, _skipped, rows = Chunk_scan.totals ?from rel pred in
    w.seq_pages <- w.seq_pages +. float_of_int pages;
    w.cpu_tuples <- w.cpu_tuples +. float_of_int rows
  in
  (* A heap fetch by RID: a random page and a cpu tuple per row. *)
  let fetch (w : Cost.work) rows =
    w.random_pages <- w.random_pages +. rows;
    w.cpu_tuples <- w.cpu_tuples +. rows
  in
  (* What the engine charges for an index probe; returns the entries it
     touches. *)
  let probe_index (w : Cost.work) table probe =
    let idx = index_of table probe.Plan.column in
    let entries = rows_of table *. table_sel table (pred_of_probe probe) in
    w.index_probes <- w.index_probes +. 1.0;
    w.index_entries <- w.index_entries +. entries;
    w.seq_pages <- w.seq_pages +. Executor.leaf_pages_touched idx entries;
    entries
  in
  let rec go (w : Cost.work) plan =
    match plan with
    | Plan.Scan { table; access; pred } ->
        let card = card_of [ { Logical.table; pred } ] in
        (match access with
        | Plan.Seq_scan -> seq_scan w (Catalog.find_table catalog table) pred
        | Plan.Index_range probe -> fetch w (probe_index w table probe)
        | Plan.Index_order { column; descending = _ } ->
            (* The whole leaf level, then every row in key order: a LIMIT
               above pays only its surfaced fraction (see below). *)
            let idx = index_of table column in
            w.index_probes <- w.index_probes +. 1.0;
            w.index_entries <- w.index_entries +. float_of_int (Index.entry_count idx);
            w.seq_pages <- w.seq_pages +. float_of_int (Index.leaf_page_count idx);
            fetch w (rows_of table)
        | Plan.Index_intersect probes ->
            let entries =
              List.fold_left (fun acc probe -> acc +. probe_index w table probe) 0.0 probes
            in
            w.cpu_tuples <- w.cpu_tuples +. entries;
            (* Joint selectivity of all probe conditions together: the
               estimate where AVI and sampling part ways. *)
            let joint = table_sel table (Pred.conj (List.map pred_of_probe probes)) in
            fetch w (rows_of table *. joint));
        card
    | Plan.Scan_resume { table; pred; from_rid } ->
        let rel = Catalog.find_table catalog table in
        let n = Relation.row_count rel in
        let from = min (max 0 from_rid) n in
        seq_scan w ~from rel pred;
        (* The full scan's estimate scaled by the unscanned fraction. *)
        card_of [ { Logical.table; pred } ]
        *. (float_of_int (n - from) /. float_of_int (max 1 n))
    | Plan.Append parts -> List.fold_left (fun acc part -> acc +. go w part) 0.0 parts
    | Plan.Hash_join { build; probe; _ } ->
        let b = go w build in
        let p = go w probe in
        let card = card_of (refs_of plan) in
        w.hash_build <- w.hash_build +. b;
        w.hash_probe <- w.hash_probe +. p;
        w.output_tuples <- w.output_tuples +. card;
        card
    | Plan.Merge_join { left; right; left_key; right_key } ->
        let l = go w left in
        let r = go w right in
        let card = card_of (refs_of plan) in
        let sort sub n key =
          if Executor.output_sorted_on catalog sub <> Some key then
            w.sort_units <- w.sort_units +. Cost.sort_units n
        in
        sort left l left_key;
        sort right r right_key;
        w.merge_tuples <- w.merge_tuples +. (l +. r);
        w.output_tuples <- w.output_tuples +. card;
        card
    | Plan.Indexed_nl_join { outer; inner_table; inner_pred; _ } ->
        let o = go w outer in
        let fetched =
          card_of (refs_of outer @ [ { Logical.table = inner_table; pred = Pred.True } ])
        in
        let card =
          card_of (refs_of outer @ [ { Logical.table = inner_table; pred = inner_pred } ])
        in
        w.index_probes <- w.index_probes +. o;
        w.index_entries <- w.index_entries +. fetched;
        fetch w fetched;
        w.output_tuples <- w.output_tuples +. card;
        card
    | Plan.Star_semijoin { fact; fact_pred = _; dims } ->
        List.iter
          (fun { Plan.dim_table; dim_pred; _ } ->
            let qualifying = rows_of dim_table *. table_sel dim_table dim_pred in
            (* Probe the fact FK index once per qualifying dimension key;
               the entries returned are fact >< dim_i. *)
            let semijoin_entries =
              card_of
                [ { Logical.table = fact; pred = Pred.True };
                  { Logical.table = dim_table; pred = dim_pred } ]
            in
            seq_scan w (Catalog.find_table catalog dim_table) dim_pred;
            w.hash_build <- w.hash_build +. qualifying;
            w.index_probes <- w.index_probes +. qualifying;
            w.index_entries <- w.index_entries +. semijoin_entries;
            w.cpu_tuples <- w.cpu_tuples +. semijoin_entries)
          dims;
        let fetched =
          card_of
            ({ Logical.table = fact; pred = Pred.True }
            :: List.map
                 (fun { Plan.dim_table; dim_pred; _ } ->
                   { Logical.table = dim_table; pred = dim_pred })
                 dims)
        in
        let card = card_of (refs_of plan) in
        fetch w fetched;
        w.hash_probe <- w.hash_probe +. (card *. float_of_int (List.length dims));
        w.output_tuples <- w.output_tuples +. card;
        card
    | Plan.Filter (input, _) ->
        let i = go w input in
        let card = card_of (refs_of plan) in
        w.cpu_tuples <- w.cpu_tuples +. i;
        card
    | Plan.Project (input, _) | Plan.Guard { input; _ } ->
        let i = go w input in
        w.cpu_tuples <- w.cpu_tuples +. i;
        i
    | Plan.Sort { input; _ } ->
        let i = go w input in
        w.sort_units <- w.sort_units +. Cost.sort_units i;
        i
    | Plan.Limit (input, n) ->
        (* A pipeline of order-preserving operators over an ordered index
           scan streams without blocking, so a satisfied LIMIT stops
           pulling: only the surfaced fraction of the input is paid for.
           Any other input (sorts, joins, aggregates block; plain scans
           are cheap anyway) keeps the conservative full count. *)
        let rec ordered_pipeline = function
          | Plan.Scan { access = Plan.Index_order _; _ } -> true
          | Plan.Filter (p, _) | Plan.Project (p, _) -> ordered_pipeline p
          | _ -> false
        in
        let i =
          if ordered_pipeline input then begin
            let sub = Cost.work () in
            let i = go sub input in
            Cost.add_scaled w (Float.min 1.0 (float_of_int n /. Float.max 1.0 i)) sub;
            i
          end
          else go w input
        in
        let card = Float.min i (float_of_int n) in
        w.cpu_tuples <- w.cpu_tuples +. card;
        card
    | Plan.Materialized { n_rows; _ } -> float_of_int n_rows
    | Plan.Aggregate { input; group_by; _ } ->
        let i = go w input in
        let groups =
          if group_by = [] then 1.0
          else Float.max 0.0 (est.Cardinality.group_count (refs_of input) group_by)
        in
        w.hash_build <- w.hash_build +. i;
        w.output_tuples <- w.output_tuples +. groups;
        groups
  in
  let work = Cost.work () in
  let card = go work plan in
  { work; card }

let plan_cost catalog ?(constants = Cost.default_constants) ?(scale = 1.0) est plan =
  Cost.price constants ~scale (estimate catalog est plan).work

let cost_curve catalog ?constants ?scale ~selectivities plan =
  List.map
    (fun sel ->
      (sel, plan_cost catalog ?constants ?scale (Cardinality.fixed_selectivity catalog sel) plan))
    selectivities

let crossover_points catalog ?constants ?scale ?(grid = 400) plan_a plan_b =
  let point i = float_of_int i /. float_of_int grid in
  let sign i =
    let sel = point i in
    let est = Cardinality.fixed_selectivity catalog sel in
    compare
      (plan_cost catalog ?constants ?scale est plan_a)
      (plan_cost catalog ?constants ?scale est plan_b)
  in
  let crossings = ref [] in
  let previous = ref (sign 0) in
  for i = 1 to grid do
    let s = sign i in
    if s <> 0 && !previous <> 0 && s <> !previous then crossings := point i :: !crossings;
    if s <> 0 then previous := s
  done;
  List.rev !crossings
