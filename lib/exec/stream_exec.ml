(* The pull-based streaming engine — the one executor.

   Every plan node compiles to a {!Stream.t} carrying {!Vbatch.t}s —
   column slices plus a selection bitset — between operators.  Pipelined
   operators (scans, RID fetches, joins' probe sides, filter/project/
   limit/guard) emit batches as they are pulled; true pipeline breakers
   (hash build side, sort, aggregate, merge-join inputs, the star
   semijoin's dimensions) drain their children on the first pull.  Every
   operator is column-native: RID fetches copy only the columns the plan
   keeps out of each pinned chunk and select by the predicate's bitmap
   over them, joins gather their output by row index, and sort,
   aggregate and materialized leaves hand out [batch_rows] slices of
   columns ({!slices}).  Tuples materialize only at the final output, in
   a fired guard's buffer, and when a materialized leaf transposes the
   violation result it replays.
   Every charge is attached to the physical action it pays for, made at
   the moment that action happens and denominated in logical (selected)
   rows, so early exit (a satisfied LIMIT, a mid-stream guard violation)
   simply stops pulling and leaves the unperformed work uncharged.

   With a recorder attached, each operator's pulls are measurement windows
   of its {!Rq_obs.Recorder.node}: successive pulls of one operator are
   not contiguous, but a child's pulls always sit inside its parent's, so
   the accumulated totals nest and self = total - children telescopes back
   to the meter. *)

open Rq_storage

let batch_rows = 1024

(* First heap-fetch chunk after an index probe.  Fetches ramp up
   geometrically to [batch_rows], so a LIMIT above an ordered index scan
   stops after a few small chunks instead of paying for a full batch of
   random pages — the early-exit discount the cost model applies to
   ordered pipelines under LIMIT.  A full drain charges the same total
   either way. *)
let fetch_ramp_rows = 64

type morsels = { pool : Domain_pool.t; mutable charged : float ref list }

type ctx = {
  catalog : Catalog.t;
  meter : Cost.t;
  obs : Rq_obs.Recorder.t option;
  morsels : morsels option;
}

let record ctx event =
  match ctx.obs with None -> () | Some r -> Rq_obs.Recorder.record r event

(* Each pull of a spanned operator is one measurement window of its node;
   rows are logical (selected) rows. *)
let spanned ctx node (op : Stream.t) =
  let meter () = Cost.snapshot ctx.meter in
  let rows = function Some vb -> Vbatch.selected vb | None -> 0 in
  let next_batch () = Rq_obs.Recorder.measure node ~meter ~rows op.Stream.next_batch in
  { op with Stream.next_batch }

(* ------------------------------------------------------------------ *)
(* Generic plumbing                                                    *)
(* ------------------------------------------------------------------ *)

(* Drain to tuples: the final output. *)
let drain_all (op : Stream.t) =
  let acc = ref [] in
  let rec go () =
    match op.Stream.next_batch () with
    | Some vb ->
        acc := Vbatch.to_tuples vb :: !acc;
        go ()
    | None -> ()
  in
  go ();
  Array.concat (List.rev !acc)

(* Append compacted batches column by column, in order: [n] rows in
   [cols.(c)].  A column every batch pruned stays pruned; where only some
   batches pruned it, their rows read [Null] (the rule of
   {!Vbatch.to_tuples}). *)
let concat_batches arity pieces =
  let n = List.fold_left (fun n vb -> n + vb.Vbatch.n_rows) 0 pieces in
  let column c =
    if List.for_all (fun vb -> Vbatch.pruned vb.Vbatch.cols.(c)) pieces then [||]
    else
      match pieces with
      | [ vb ] -> vb.Vbatch.cols.(c)
      | _ ->
          Array.concat
            (List.map
               (fun vb ->
                 let col = vb.Vbatch.cols.(c) in
                 if Vbatch.pruned col then Array.make vb.Vbatch.n_rows Value.Null else col)
               pieces)
  in
  (Array.init arity column, n)

(* Drain to columns: the breakers' input, rows in arrival order. *)
let drain_columns (op : Stream.t) =
  let pieces = ref [] in
  let rec go () =
    match op.Stream.next_batch () with
    | Some vb ->
        pieces := Vbatch.compact vb :: !pieces;
        go ()
    | None -> ()
  in
  go ();
  concat_batches (Schema.arity op.Stream.schema) (List.rev !pieces)

(* A drained column an operator reads itself (a join or sort key); a
   pruned one reads [Null], as it would from a tuple. *)
let key_column cols c n = if Vbatch.pruned cols.(c) then Array.make n Value.Null else cols.(c)

(* Hand out rows [order] of drained columns [batch_rows] at a time, each
   slice gathered into fresh columns: the output of sort, aggregate and
   materialized leaves. *)
let slices cols order =
  let pos = ref 0 in
  fun () ->
    let n = Array.length order in
    if !pos >= n then None
    else begin
      let k = min batch_rows (n - !pos) in
      let idx = Array.sub order !pos k in
      pos := !pos + k;
      Some
        {
          Vbatch.cols = Array.map (fun col -> Vbatch.gather col idx k) cols;
          n_rows = k;
          sel = Bitset.full k;
        }
    end

(* Fetching heap rows by RID from [table], whose qualified schema is
   [schema]: [fetch rids ~lo ~hi] copies
   the columns [keep_cols] accepts, and those [pred] reads, out of each
   pinned chunk for rows [rids.(lo..hi-1)] (a spilled chunk decodes only
   those).  It returns them with [pred]'s bitmap over them (run on a
   zero-copy {!Chunk.of_columns} view, as filters do), the other columns
   pruned. *)
let fetcher ctx table ~schema ~pred ~keep_cols =
  let rel = Catalog.find_table ctx.catalog table in
  let keep = Array.of_list (List.map keep_cols (Schema.columns schema)) in
  let reads = List.map (Schema.index_of (Relation.schema rel)) (Pred.columns pred) in
  let live =
    List.filter (fun c -> keep.(c) || List.mem c reads) (List.init (Array.length keep) Fun.id)
    |> Array.of_list
  in
  let bitmap = Chunk_scan.bitmap (Relation.schema rel) pred in
  fun rids ~lo ~hi ->
    let k = hi - lo in
    let cols = Array.make (Array.length keep) [||] in
    Array.iter (fun c -> cols.(c) <- Array.make k Value.Null) live;
    Relation.gather rel rids ~lo ~hi (fun i chunk r ->
        for j = 0 to Array.length live - 1 do
          let c = live.(j) in
          cols.(c).(i - lo) <- (Chunk.column chunk c).(r)
        done);
    let sel =
      match bitmap with None -> Bitset.full k | Some bm -> bm (Chunk.of_columns ~n_rows:k cols)
    in
    (Array.mapi (fun c col -> if keep.(c) then col else [||]) cols, sel)

(* ------------------------------------------------------------------ *)
(* Morsel prefetch                                                     *)
(* ------------------------------------------------------------------ *)

(* Under {!Parallel}, sequential scans read ahead on a domain pool.  The
   scan's remaining chunk tasks are grouped into morsels — row ranges on an
   absolute grid of [morsel_rows], a whole number of chunks (hence pages)
   of at least 4 x [batch_rows] — and the next [Domain_pool.size] morsels
   are handed to the pool together: each worker pins its morsel's read
   chunks and computes their predicate bitmaps.  The scan's serial loop
   then consumes those bitmaps in order and does everything else —
   charging, window slicing, selection, progress and resume — exactly as
   without a pool.  Workers never touch the cost meter, so counters, guard
   fire points and resume positions cannot depend on the pool.

   Each dispatched morsel gets a cell in [charged] (newest first) that the
   serial loop credits with the scan seconds it charges for the morsel's
   tasks: the per-morsel work {!Parallel.makespan} schedules. *)

let morsel_target_rows = 4 * batch_rows

let morsel_rows rel =
  let rpc = Relation.rows_per_chunk rel in
  rpc * max 1 ((morsel_target_rows + rpc - 1) / rpc)

(* Dispatch morsels [first, first + size pool) of the remaining [tasks]
   (clipped to the table), storing each read chunk's bitmap in [ready];
   returns the batch's charge cells. *)
let prefetch ms ~rel ~bitmap ~m ~first tasks ready =
  let n = Relation.row_count rel in
  let count = min (Domain_pool.size ms.pool) (((n - 1) / m) - first + 1) in
  let groups = Array.make count [] in
  let rec collect = function
    | (t : Chunk_scan.task) :: rest when (t.lo / m) - first < count ->
        if not t.skip then groups.((t.lo / m) - first) <- t :: groups.((t.lo / m) - first);
        collect rest
    | _ -> ()
  in
  collect tasks;
  let found =
    Domain_pool.run ms.pool count (fun k ->
        List.map
          (fun (t : Chunk_scan.task) ->
            ( t.ci,
              Relation.with_chunk ~seq:true rel t.ci (fun chunk ->
                  Option.map (fun bm -> bm chunk) bitmap) ))
          groups.(k))
  in
  Array.iter (List.iter (fun (ci, bits) -> Hashtbl.replace ready ci bits)) found;
  let cells = Array.init count (fun _ -> ref 0.0) in
  Array.iter (fun c -> ms.charged <- c :: ms.charged) cells;
  cells

(* ------------------------------------------------------------------ *)
(* Leaf operators                                                      *)
(* ------------------------------------------------------------------ *)

(* Sequential scan starting at [from] (0 for a whole-table scan), walking
   the shared chunk-task plan: a zone-map-skipped chunk charges
   pages_skipped (free) and is stepped over whole; a read chunk is pulled
   pinned from the buffer pool and sliced into (chunk ∩ [batch_rows]
   window) batches, charging CPU per source row and each heap page the
   first time a row on it is touched.  A full drain thus charges exactly
   the planner's read-page/read-row totals (= page_count/row_count when
   nothing prunes), and stopping early leaves the tail pages unread.

   A window's batch shares zero-copy the chunk's arrays of the columns
   [keep_cols] accepts (matched by qualified name) and prunes the rest, so
   a spilled chunk decodes only the columns the predicate bitmap or some
   operator above reads; its selection is the window ∧ the chunk's
   predicate bitmap, computed once per chunk (by the morsel pool when there
   is one).  Zero-match windows are charged but not emitted. *)
let seq_scan_stream ctx ~table ~pred ~from ~keep_cols =
  let rel = Catalog.find_table ctx.catalog table in
  let schema = Exec_common.qualified_schema ctx.catalog table in
  let keep = Array.of_list (List.map keep_cols (Schema.columns schema)) in
  let n = Relation.row_count rel in
  let from = min (max 0 from) n in
  let rpp = Relation.rows_per_page rel in
  let bitmap = Chunk_scan.bitmap (Relation.schema rel) pred in
  let tasks = ref (Chunk_scan.tasks ~from rel pred) in
  let pos = ref from in
  (* Absolute index of the next page to charge; starts at the page holding
     [from], so a resume re-reads the split page. *)
  let page_frontier = ref (from / rpp) in
  (* Bitmaps computed ahead by the morsel pool, by chunk index. *)
  let ready = Hashtbl.create 8 in
  let cell_of =
    match ctx.morsels with
    | None -> fun _ -> None
    | Some ms ->
        let m = morsel_rows rel in
        let first = ref 0 and cells = ref [||] in
        fun (t : Chunk_scan.task) ->
          let k = t.lo / m in
          if k >= !first + Array.length !cells then begin
            cells := prefetch ms ~rel ~bitmap ~m ~first:k !tasks ready;
            first := k
          end;
          Some !cells.(k - !first)
  in
  let cached_bits = ref (-1, None) in
  let bits_of (t : Chunk_scan.task) chunk =
    match !cached_bits with
    | ci, bits when ci = t.ci -> bits
    | _ ->
        let bits =
          match Hashtbl.find_opt ready t.ci with
          | Some bits ->
              Hashtbl.remove ready t.ci;
              bits
          | None -> Option.map (fun bm -> bm chunk) bitmap
        in
        cached_bits := (t.ci, bits);
        bits
  in
  let next_batch () =
    let out = ref None in
    while !out = None && !tasks <> [] do
      match !tasks with
      | [] -> ()
      | t :: rest ->
          if t.Chunk_scan.skip then begin
            Cost.charge_pages_skipped ctx.meter t.pages;
            page_frontier := Chunk_scan.pages_upto rpp t.hi;
            pos := t.hi;
            tasks := rest
          end
          else begin
            let stop = min t.hi (!pos + batch_rows) in
            let cell = cell_of t in
            let before = Cost.seconds ctx.meter in
            Cost.charge_cpu_tuples ctx.meter (stop - !pos);
            let pages_now = Chunk_scan.pages_upto rpp stop in
            if pages_now > !page_frontier then begin
              Cost.charge_seq_pages ctx.meter (pages_now - !page_frontier);
              page_frontier := pages_now
            end;
            Option.iter (fun c -> c := !c +. (Cost.seconds ctx.meter -. before)) cell;
            let base = Relation.chunk_start rel t.ci in
            Relation.with_chunk ~seq:true rel t.ci (fun chunk ->
                let lo = !pos - base and hi = stop - base in
                let sel =
                  match bits_of t chunk with
                  | None -> Bitset.window (Chunk.n_rows chunk) ~lo ~hi
                  | Some b -> Bitset.inter_window b ~lo ~hi
                in
                if Bitset.popcount sel > 0 then out := Some (Vbatch.of_chunk chunk ~keep ~sel));
            pos := stop;
            if stop >= t.hi then tasks := rest
          end
    done;
    !out
  in
  Stream.make ~schema
    ~progress:(fun () ->
      if n = from then 1.0 else float_of_int (!pos - from) /. float_of_int (n - from))
    ~resume:(fun () ->
      if !pos >= n then None else Some (Plan.Scan_resume { table; pred; from_rid = !pos }))
    next_batch

(* Index access paths probe up-front (the B-tree descent is one action),
   then fetch matching RIDs window by window ({!fetcher}); the predicate's
   bitmap over a window is its batch's selection.  Windows with no match
   are charged but not emitted. *)
let rid_fetch_stream ctx ~table ~pred ~keep_cols ~probe_rids =
  let schema = Exec_common.qualified_schema ctx.catalog table in
  let fetch = fetcher ctx table ~schema ~pred ~keep_cols in
  let rids = lazy (probe_rids ()) in
  let fpos = ref 0 in
  let chunk = ref fetch_ramp_rows in
  let next_batch () =
    let arr = Lazy.force rids in
    let total = Array.length arr in
    let out = ref None in
    while !out = None && !fpos < total do
      let stop = min total (!fpos + !chunk) in
      chunk := min batch_rows (2 * !chunk);
      let k = stop - !fpos in
      Cost.charge_random_pages ctx.meter k;
      Cost.charge_cpu_tuples ctx.meter k;
      let cols, sel = fetch arr ~lo:!fpos ~hi:stop in
      if Bitset.popcount sel > 0 then out := Some { Vbatch.cols; n_rows = k; sel };
      fpos := stop
    done;
    !out
  in
  Stream.make ~schema
    ~progress:(fun () ->
      if not (Lazy.is_val rids) then 0.0
      else
        let n = Array.length (Lazy.force rids) in
        if n = 0 then 1.0 else float_of_int !fpos /. float_of_int n)
    next_batch

let index_range_stream ctx ~table ~pred ~keep_cols ~probe =
  let idx = Exec_common.find_index_exn ctx.catalog ~table ~column:probe.Plan.column in
  rid_fetch_stream ctx ~table ~pred ~keep_cols ~probe_rids:(fun () ->
      Rid_set.to_array (Exec_common.probe_index ctx.meter idx probe))

(* Ordered scan: pay for the whole leaf level up-front (the index walk is
   one bulk action), then fetch rows lazily in key order — a LIMIT above
   stops pulling and the unfetched heap pages stay uncharged. *)
let index_order_stream ctx ~table ~pred ~keep_cols ~column ~descending =
  let idx = Exec_common.find_index_exn ctx.catalog ~table ~column in
  rid_fetch_stream ctx ~table ~pred ~keep_cols ~probe_rids:(fun () ->
      Cost.charge_index_probes ctx.meter 1;
      Cost.charge_index_entries ctx.meter (Index.entry_count idx);
      Cost.charge_seq_pages ctx.meter (Index.leaf_page_count idx);
      Index.ordered_rids idx ~descending)

let index_intersect_stream ctx ~table ~pred ~keep_cols ~probes =
  rid_fetch_stream ctx ~table ~pred ~keep_cols ~probe_rids:(fun () ->
      match probes with
      | [] | [ _ ] -> invalid_arg "Executor: Index_intersect needs >= 2 probes"
      | first :: rest ->
          let idx0 = Exec_common.find_index_exn ctx.catalog ~table ~column:first.Plan.column in
          let acc = ref (Exec_common.probe_index ctx.meter idx0 first) in
          List.iter
            (fun probe ->
              let idx =
                Exec_common.find_index_exn ctx.catalog ~table ~column:probe.Plan.column
              in
              let rids = Exec_common.probe_index ctx.meter idx probe in
              Cost.charge_cpu_tuples ctx.meter
                (Rid_set.cardinality !acc + Rid_set.cardinality rids);
              acc := Rid_set.inter !acc rids)
            rest;
          Rid_set.to_array !acc)

(* Already paid for when it was first produced; reading it back is free in
   the simulated model.  The violation result it replays is transposed to
   columns once. *)
let materialized_stream ~schema ~tuples =
  let n = Array.length tuples in
  let cols = Array.init (Schema.arity schema) (fun c -> Array.init n (fun r -> tuples.(r).(c))) in
  let emit = slices cols (Array.init n Fun.id) in
  let emitted = ref 0 in
  Stream.make ~schema
    ~progress:(fun () -> if n = 0 then 1.0 else float_of_int !emitted /. float_of_int n)
    (fun () ->
      let r = emit () in
      Option.iter (fun vb -> emitted := !emitted + vb.Vbatch.n_rows) r;
      r)

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

(* Build side materializes (a hash table is a breaker); probing reads the
   key column directly at each selected index and the output batch is
   assembled column-major.  One output batch per match-bearing probe batch,
   matches in probe order × build-input order. *)
let hash_join_stream ctx ~(bop : Stream.t) ~(pop : Stream.t) ~build_key ~probe_key =
  let schema = Schema.concat bop.Stream.schema pop.Stream.schema in
  let bpos = Schema.index_of bop.Stream.schema build_key in
  let ppos = Schema.index_of pop.Stream.schema probe_key in
  let barity = Schema.arity bop.Stream.schema in
  (* Buckets hold build row indices (in build-input order) so probing is
     one [find_opt] plus an allocation-free walk over an int array per
     probe row. *)
  let table =
    lazy
      (let bcols, n = drain_columns bop in
       let bkey = key_column bcols bpos n in
       let grouped = Hashtbl.create (max 16 n) in
       for r = 0 to n - 1 do
         let key = bkey.(r) in
         if not (Value.is_null key) then
           match Hashtbl.find_opt grouped key with
           | Some l -> Hashtbl.replace grouped key (r :: l)
           | None -> Hashtbl.replace grouped key [ r ]
       done;
       let buckets = Hashtbl.create (Hashtbl.length grouped) in
       Hashtbl.iter (fun key l -> Hashtbl.replace buckets key (Array.of_list (List.rev l))) grouped;
       Cost.charge_hash_build ctx.meter n;
       (bcols, buckets))
  in
  let drained = ref false in
  let next_batch () =
    let bcols, buckets = Lazy.force table in
    let result = ref None in
    while !result = None && not !drained do
      match pop.Stream.next_batch () with
      | None -> drained := true
      | Some vb ->
          let selected = Vbatch.selected vb in
          Cost.charge_hash_probe ctx.meter selected;
          let pcols = vb.Vbatch.cols in
          let pkey = pcols.(ppos) in
          (* Growable parallel index arrays (build row, probe row). *)
          let cap = ref (max 16 selected) and len = ref 0 in
          let bis = ref (Array.make !cap 0) and pis = ref (Array.make !cap 0) in
          let push r i =
            if !len = !cap then begin
              let cap' = 2 * !cap in
              let bis' = Array.make cap' 0 and pis' = Array.make cap' 0 in
              Array.blit !bis 0 bis' 0 !len;
              Array.blit !pis 0 pis' 0 !len;
              bis := bis';
              pis := pis';
              cap := cap'
            end;
            !bis.(!len) <- r;
            !pis.(!len) <- i;
            incr len
          in
          Bitset.iter_set
            (fun i ->
              let key = pkey.(i) in
              if not (Value.is_null key) then
                match Hashtbl.find_opt buckets key with
                | Some rows -> Array.iter (fun r -> push r i) rows
                | None -> ())
            vb.Vbatch.sel;
          let k = !len in
          if k > 0 then begin
            let bis = !bis and pis = !pis in
            (* Pruned columns stay pruned: nothing downstream reads them. *)
            let cols = Array.make (barity + Array.length pcols) [||] in
            Array.iteri (fun c src -> cols.(c) <- Vbatch.gather src bis k) bcols;
            Array.iteri (fun c src -> cols.(barity + c) <- Vbatch.gather src pis k) pcols;
            Cost.charge_output_tuples ctx.meter k;
            result := Some { Vbatch.cols; n_rows = k; sel = Bitset.full k }
          end
    done;
    !result
  in
  Stream.make ~schema ~progress:pop.Stream.progress next_batch

(* A drained merge input: its columns, its key in merge order, and the
   row index at each merge position ([None]: the input order). *)
type merge_side = { cols : Value.t array array; key : Value.t array; perm : int array option }

let merge_row side a = match side.perm with None -> a | Some perm -> perm.(a)

(* Both inputs drain to columns.  A side not already sorted on its key
   sorts a permutation of its row indices with the same heap sort and the
   same key comparisons a tuple sort would make, so equal keys keep the
   order a tuple sort gives them.  Each equal-key run's cross product is
   gathered into one output batch, left-major. *)
let merge_join_stream ctx ~left_plan ~right_plan ~(lop : Stream.t) ~(rop : Stream.t)
    ~left_key ~right_key =
  let schema = Schema.concat lop.Stream.schema rop.Stream.schema in
  let larity = Schema.arity lop.Stream.schema in
  (* Sorting after both drains keeps the charges in the order a tuple
     merge made them. *)
  let side (op : Stream.t) (cols, n) plan key_name =
    let key = key_column cols (Schema.index_of op.Stream.schema key_name) n in
    if Exec_common.output_sorted_on ctx.catalog plan = Some key_name then
      { cols; key; perm = None }
    else begin
      Cost.charge_sort ctx.meter n;
      let perm = Array.init n Fun.id in
      Array.sort (fun a b -> Value.compare key.(a) key.(b)) perm;
      { cols; key = Array.map (fun r -> key.(r)) perm; perm = Some perm }
    end
  in
  let state =
    lazy
      (let ldrained = drain_columns lop in
       let rdrained = drain_columns rop in
       let l = side lop ldrained left_plan left_key in
       let r = side rop rdrained right_plan right_key in
       Cost.charge_merge_tuples ctx.meter (Array.length l.key + Array.length r.key);
       (l, r))
  in
  let i = ref 0 and j = ref 0 in
  let next_batch () =
    let l, r = Lazy.force state in
    let nl = Array.length l.key and nr = Array.length r.key in
    let out = ref None in
    while !out = None && !i < nl && !j < nr do
      let kv = l.key.(!i) and rv = r.key.(!j) in
      if Value.is_null kv then incr i
      else if Value.is_null rv then incr j
      else
        let c = Value.compare kv rv in
        if c < 0 then incr i
        else if c > 0 then incr j
        else begin
          (* Emit the cross product of the equal-key runs as one batch. *)
          let i_end = ref !i in
          while !i_end < nl && Value.compare l.key.(!i_end) kv = 0 do
            incr i_end
          done;
          let j_end = ref !j in
          while !j_end < nr && Value.compare r.key.(!j_end) rv = 0 do
            incr j_end
          done;
          let ln = !i_end - !i and rn = !j_end - !j in
          let k = ln * rn in
          let lis = Array.make k 0 and ris = Array.make k 0 in
          for a = 0 to ln - 1 do
            for b = 0 to rn - 1 do
              lis.((a * rn) + b) <- merge_row l (!i + a);
              ris.((a * rn) + b) <- merge_row r (!j + b)
            done
          done;
          let cols = Array.make (Schema.arity schema) [||] in
          Array.iteri (fun c src -> cols.(c) <- Vbatch.gather src lis k) l.cols;
          Array.iteri (fun c src -> cols.(larity + c) <- Vbatch.gather src ris k) r.cols;
          Cost.charge_output_tuples ctx.meter k;
          out := Some { Vbatch.cols; n_rows = k; sel = Bitset.full k };
          i := !i_end;
          j := !j_end
        end
    done;
    !out
  in
  Stream.make ~schema
    ~progress:(fun () ->
      if not (Lazy.is_val state) then 0.0
      else
        let nl = Array.length (fst (Lazy.force state)).key in
        if nl = 0 then 1.0 else float_of_int !i /. float_of_int nl)
    next_batch

(* Per outer batch: one index probe per selected row with a non-NULL key,
   in row order, each charged as a fetch of its matches; then every match
   is fetched in one gather ({!fetcher}), [inner_pred]'s bitmap over them
   is the output's selection, and each match's outer row is gathered by
   row index. *)
let inl_join_stream ctx ~(oop : Stream.t) ~outer_key ~inner_table ~inner_key ~inner_pred
    ~keep_cols =
  let idx = Exec_common.find_index_exn ctx.catalog ~table:inner_table ~column:inner_key in
  let inner_schema = Exec_common.qualified_schema ctx.catalog inner_table in
  let fetch = fetcher ctx inner_table ~schema:inner_schema ~pred:inner_pred ~keep_cols in
  let schema = Schema.concat oop.Stream.schema inner_schema in
  let opos = Schema.index_of oop.Stream.schema outer_key in
  let drained = ref false in
  let next_batch () =
    let out = ref None in
    while !out = None && not !drained do
      match oop.Stream.next_batch () with
      | None -> drained := true
      | Some ob ->
          let runs = ref [] and outer_rows = ref [] and m = ref 0 in
          Bitset.iter_set
            (fun i ->
              let key = ob.Vbatch.cols.(opos).(i) in
              if not (Value.is_null key) then begin
                Cost.charge_index_probes ctx.meter 1;
                let rids = Index.probe_eq idx key in
                let count = Rid_set.cardinality rids in
                Cost.charge_index_entries ctx.meter count;
                Cost.charge_random_pages ctx.meter count;
                Cost.charge_cpu_tuples ctx.meter count;
                runs := Rid_set.to_array rids :: !runs;
                outer_rows := Array.make count i :: !outer_rows;
                m := !m + count
              end)
            ob.Vbatch.sel;
          let m = !m in
          if m > 0 then begin
            let inner, sel = fetch (Array.concat (List.rev !runs)) ~lo:0 ~hi:m in
            let k = Bitset.popcount sel in
            if k > 0 then begin
              Cost.charge_output_tuples ctx.meter k;
              let ois = Array.concat (List.rev !outer_rows) in
              let outer = Array.map (fun col -> Vbatch.gather col ois m) ob.Vbatch.cols in
              out := Some { Vbatch.cols = Array.append outer inner; n_rows = m; sel }
            end
          end
    done;
    !out
  in
  Stream.make ~schema ~progress:oop.Stream.progress next_batch

(* Phases 1 and 2 are bulk: each dimension's scan drains its matching rows
   to columns (each scan task charged whole, read or zone-map skipped),
   a lookup maps the dimension key to a row of them, and the fact FK
   index is probed per key, last match first (the float order of the
   charges, hence [sim_s], follows it); the RID sets intersect.
   Phase 3 streams the fact fetch ({!fetcher}, foreign keys kept): each
   fact row passing [fact_pred] probes every dimension, and the output
   gathers fact and dimension columns by row index. *)
let star_semijoin_stream ctx ~fact ~fact_pred ~dims ~keep_cols =
  let catalog = ctx.catalog and meter = ctx.meter in
  let fact_schema = Exec_common.qualified_schema catalog fact in
  let fks = List.map (fun { Plan.fact_fk; _ } -> fact ^ "." ^ fact_fk) dims in
  let fetch =
    fetcher ctx fact ~schema:fact_schema ~pred:fact_pred ~keep_cols:(fun col ->
        keep_cols col || List.mem col.Schema.name fks)
  in
  let fk_pos = Array.of_list (List.map (Schema.index_of fact_schema) fks) in
  let dim_schemas =
    List.map (fun { Plan.dim_table; _ } -> Exec_common.qualified_schema catalog dim_table) dims
  in
  let schema = List.fold_left Schema.concat fact_schema dim_schemas in
  let dimension ({ Plan.dim_table; dim_pred; fact_fk }, qualified) =
    let rel = Catalog.find_table catalog dim_table in
    let pk_pos =
      match Catalog.primary_key catalog dim_table with
      | Some pk -> Schema.index_of (Relation.schema rel) pk
      | None -> invalid_arg (Printf.sprintf "Executor: dim %s has no primary key" dim_table)
    in
    let keep =
      Array.of_list (List.mapi (fun c col -> c = pk_pos || keep_cols col) (Schema.columns qualified))
    in
    let bitmap = Chunk_scan.bitmap (Relation.schema rel) dim_pred in
    let pieces = ref [] in
    List.iter
      (fun (t : Chunk_scan.task) ->
        if t.skip then Cost.charge_pages_skipped meter t.pages
        else begin
          Cost.charge_seq_pages meter t.pages;
          Cost.charge_cpu_tuples meter (t.hi - t.lo);
          Relation.with_chunk ~seq:true rel t.ci (fun chunk ->
              let sel =
                match bitmap with None -> Bitset.full (Chunk.n_rows chunk) | Some bm -> bm chunk
              in
              if Bitset.popcount sel > 0 then
                pieces := Vbatch.compact (Vbatch.of_chunk chunk ~keep ~sel) :: !pieces)
        end)
      (Chunk_scan.tasks rel dim_pred);
    let cols, n = concat_batches (Array.length keep) (List.rev !pieces) in
    let key = key_column cols pk_pos n in
    let lookup = Hashtbl.create 64 in
    for r = 0 to n - 1 do
      Hashtbl.replace lookup key.(r) r
    done;
    Cost.charge_hash_build meter (Hashtbl.length lookup);
    let idx = Exec_common.find_index_exn catalog ~table:fact ~column:fact_fk in
    let rids = ref [] in
    for r = n - 1 downto 0 do
      Cost.charge_index_probes meter 1;
      let matches = Index.probe_eq idx key.(r) in
      Cost.charge_index_entries meter (Rid_set.cardinality matches);
      rids := Rid_set.to_array matches :: !rids
    done;
    ((lookup, cols), Rid_set.of_unsorted (Array.concat !rids))
  in
  let state =
    lazy
      (let dims = List.map dimension (List.combine dims dim_schemas) in
       let surviving =
         match dims with
         | [] -> invalid_arg "Executor: Star_semijoin with no dimensions"
         | (_, first) :: rest ->
             List.fold_left
               (fun acc (_, rids) ->
                 Cost.charge_cpu_tuples meter (Rid_set.cardinality acc + Rid_set.cardinality rids);
                 Rid_set.inter acc rids)
               first rest
       in
       (Rid_set.to_array surviving, Array.of_list (List.map fst dims)))
  in
  let nfk = Array.length fk_pos in
  let fpos = ref 0 in
  let next_batch () =
    let rids, dims = Lazy.force state in
    let total = Array.length rids in
    let out = ref None in
    while !out = None && !fpos < total do
      let stop = min total (!fpos + batch_rows) in
      let k = stop - !fpos in
      Cost.charge_random_pages meter k;
      Cost.charge_cpu_tuples meter k;
      let fcols, passing = fetch rids ~lo:!fpos ~hi:stop in
      let np = Bitset.popcount passing in
      let fis = Array.make np 0 and dis = Array.init nfk (fun _ -> Array.make np 0) in
      let kept = ref 0 in
      Bitset.iter_set
        (fun r ->
          Cost.charge_hash_probe meter nfk;
          let rec stitch d =
            d = nfk
            ||
            match Hashtbl.find_opt (fst dims.(d)) fcols.(fk_pos.(d)).(r) with
            | Some row ->
                dis.(d).(!kept) <- row;
                stitch (d + 1)
            | None -> false
          in
          if stitch 0 then begin
            fis.(!kept) <- r;
            incr kept
          end)
        passing;
      let kept = !kept in
      if kept > 0 then begin
        Cost.charge_output_tuples meter kept;
        let gathered cols idx = Array.map (fun col -> Vbatch.gather col idx kept) cols in
        let cols =
          Array.concat
            (gathered fcols fis
            :: Array.to_list (Array.mapi (fun d (_, dcols) -> gathered dcols dis.(d)) dims))
        in
        out := Some { Vbatch.cols; n_rows = kept; sel = Bitset.full kept }
      end;
      fpos := stop
    done;
    !out
  in
  Stream.make ~schema
    ~progress:(fun () ->
      if not (Lazy.is_val state) then 0.0
      else
        let n = Array.length (fst (Lazy.force state)) in
        if n = 0 then 1.0 else float_of_int !fpos /. float_of_int n)
    next_batch

(* ------------------------------------------------------------------ *)
(* Unary operators                                                     *)
(* ------------------------------------------------------------------ *)

(* Predicate atoms run as per-column bitmap kernels over the batch's
   physical rows; the result ANDs into the selection.  Rows already
   deselected are evaluated by the kernel but never observed — the charge
   is the arriving logical rows. *)
let filter_stream ctx ~(iop : Stream.t) ~pred =
  let bitmap = Chunk_scan.bitmap iop.Stream.schema pred in
  let drained = ref false in
  let next_batch () =
    let out = ref None in
    while !out = None && not !drained do
      match iop.Stream.next_batch () with
      | None -> drained := true
      | Some vb ->
          Cost.charge_cpu_tuples ctx.meter (Vbatch.selected vb);
          let sel =
            match bitmap with
            | None -> vb.Vbatch.sel
            | Some bm ->
                Bitset.logand vb.Vbatch.sel
                  (bm (Chunk.of_columns ~n_rows:vb.Vbatch.n_rows vb.Vbatch.cols))
          in
          if Bitset.popcount sel > 0 then out := Some { vb with Vbatch.sel }
    done;
    !out
  in
  Stream.make ~schema:iop.Stream.schema ~progress:iop.Stream.progress next_batch

(* Projection drops column references — no per-row work at all. *)
let project_stream ctx ~(iop : Stream.t) ~cols =
  let positions = Array.of_list (List.map (Schema.index_of iop.Stream.schema) cols) in
  let schema = Schema.project iop.Stream.schema cols in
  let next_batch () =
    match iop.Stream.next_batch () with
    | None -> None
    | Some vb ->
        Cost.charge_cpu_tuples ctx.meter (Vbatch.selected vb);
        Some (Vbatch.project vb positions)
  in
  Stream.make ~schema ~progress:iop.Stream.progress next_batch

(* The input drains to columns; a stable sort of row indices under the
   row comparison (ties keep input order, so the output is deterministic),
   then [batch_rows] slices gathered in sorted order. *)
let sort_stream ctx ~(iop : Stream.t) ~keys =
  let positions =
    List.map
      (fun { Plan.sort_column; descending } ->
        (Schema.index_of iop.Stream.schema sort_column, descending))
      keys
  in
  let emit =
    lazy
      (let cols, n = drain_columns iop in
       let keys = List.map (fun (p, descending) -> (key_column cols p n, descending)) positions in
       let compare_rows a b =
         let rec go = function
           | [] -> 0
           | (key, descending) :: rest ->
               let c = Value.compare key.(a) key.(b) in
               if c <> 0 then if descending then -c else c else go rest
         in
         go keys
       in
       Cost.charge_sort ctx.meter n;
       let perm = Array.init n Fun.id in
       Array.stable_sort compare_rows perm;
       slices cols perm)
  in
  Stream.make ~schema:iop.Stream.schema
    ~progress:(fun () -> if Lazy.is_val emit then 1.0 else 0.0)
    (fun () -> Lazy.force emit ())

let limit_stream ctx ~(iop : Stream.t) ~n =
  let remaining = ref (max 0 n) in
  let next_batch () =
    (* The whole point: once satisfied, never pull upstream again. *)
    if !remaining <= 0 then None
    else
      match iop.Stream.next_batch () with
      | None ->
          remaining := 0;
          None
      | Some vb ->
          let k = Vbatch.selected vb in
          let keep = min !remaining k in
          Cost.charge_cpu_tuples ctx.meter keep;
          remaining := !remaining - keep;
          Some (if keep = k then vb else Vbatch.take vb keep)
  in
  Stream.make ~schema:iop.Stream.schema ~progress:iop.Stream.progress next_batch

let aggregate_stream ctx ~plan ~(iop : Stream.t) ~group_by ~aggs =
  let emit =
    lazy
      (let agg = Agg.create iop.Stream.schema ~group_by ~aggs in
       let rec pull () =
         match iop.Stream.next_batch () with
         | Some vb ->
             Cost.charge_hash_build ctx.meter (Vbatch.selected vb);
             Agg.feed agg vb.Vbatch.cols vb.Vbatch.sel;
             pull ()
         | None -> ()
       in
       pull ();
       let cols, n = Agg.finalize agg in
       Cost.charge_output_tuples ctx.meter n;
       slices cols (Array.init n Fun.id))
  in
  Stream.make
    ~schema:(Plan.schema_of ctx.catalog plan)
    ~progress:(fun () -> if Lazy.is_val emit then 1.0 else 0.0)
    (fun () -> Lazy.force emit ())

(* The one guard rule.  Overflow becomes unrecoverable the moment
   actual > expected * max_q: the count only grows, so the drain-time
   two-sided check would fire too — the guard fires on the batch that
   crosses the bound, before handing it on, so a violated bound never
   leaks rows downstream.  Underflow can only be judged at drain. *)
let guard_stream ctx ~(iop : Stream.t) ~input_plan ~expected_rows ~max_q_error ~label =
  let count = ref 0 in
  let buffered = ref [] in
  let drained = ref false in
  let overflow_bound = max_q_error *. Float.max expected_rows 0.5 in
  let fire ~complete q =
    record ctx
      (Rq_obs.Trace.Guard_fired
         { label; expected_rows; actual_rows = !count; q_error = q });
    (* The carried partial result materializes only now, when the guard
       fires.  [buffered] is newest-first, so rev_map restores arrival
       order. *)
    let result =
      {
        Exec_common.schema = iop.Stream.schema;
        tuples = Array.concat (List.rev_map Vbatch.to_tuples !buffered);
      }
    in
    raise
      (Exec_common.Guard_violation
         {
           label;
           expected_rows;
           actual_rows = !count;
           q_error = q;
           result;
           subplan = input_plan;
           complete;
           progress = (if complete then 1.0 else iop.Stream.progress ());
           resume = (if complete then None else iop.Stream.resume ());
         })
  in
  let next_batch () =
    if !drained then None
    else
      match iop.Stream.next_batch () with
      | Some vb ->
          (* The guard inspects every row once (a counter pass). *)
          let k = Vbatch.selected vb in
          Cost.charge_cpu_tuples ctx.meter k;
          count := !count + k;
          buffered := vb :: !buffered;
          if float_of_int !count > overflow_bound then
            fire ~complete:false (Plan.q_error ~expected:expected_rows ~actual:!count)
          else Some vb
      | None ->
          drained := true;
          let q = Plan.q_error ~expected:expected_rows ~actual:!count in
          if q > max_q_error then fire ~complete:true q
          else begin
            record ctx
              (Rq_obs.Trace.Guard_ok
                 { label; expected_rows; actual_rows = !count; q_error = q });
            None
          end
  in
  Stream.make ~schema:iop.Stream.schema ~progress:iop.Stream.progress
    ~resume:iop.Stream.resume next_batch

let append_stream ~schema parts =
  let rem = ref parts in
  let done_parts = ref 0 in
  let total = List.length parts in
  let rec next_batch () =
    match !rem with
    | [] -> None
    | (op : Stream.t) :: rest -> (
        match op.Stream.next_batch () with
        | Some vb -> Some vb
        | None ->
            rem := rest;
            incr done_parts;
            next_batch ())
  in
  Stream.make ~schema
    ~progress:(fun () ->
      if total = 0 then 1.0 else float_of_int !done_parts /. float_of_int total)
    next_batch

(* ------------------------------------------------------------------ *)
(* Column requirements                                                 *)
(* ------------------------------------------------------------------ *)

(* The qualified columns an operator's consumers read, passed top-down
   through compilation so sequential scans prune the rest.  A need may
   over-approximate: one set flows into both join inputs, and a name an
   input lacks, or does not need, only keeps a column.  A missing name
   would feed [Null] to its reader. *)
module Names = Set.Make (String)

type need =
  | All  (* the root, and a guard's input: violation results are full-width *)
  | Cols of Names.t

let with_cols need cols =
  match need with
  | All -> All
  | Cols names -> Cols (List.fold_left (fun acc c -> Names.add c acc) names cols)

let only cols = Cols (Names.of_list cols)

let agg_columns aggs =
  List.concat_map
    (fun { Plan.fn; _ } ->
      match fn with
      | Plan.Count_star -> []
      | Plan.Count e | Plan.Sum e | Plan.Avg e | Plan.Min e | Plan.Max e -> Expr.columns e)
    aggs

let needed need { Schema.name; _ } =
  match need with All -> true | Cols names -> Names.mem name names

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* What a node's inputs must supply, given what its parent reads of its
   own output: the parent's set plus what the node reads itself.  Every
   input of one node gets the same set. *)
let input_need need = function
  | Plan.Hash_join { build_key; probe_key; _ } -> with_cols need [ build_key; probe_key ]
  | Plan.Merge_join { left_key; right_key; _ } -> with_cols need [ left_key; right_key ]
  | Plan.Indexed_nl_join { outer_key; _ } -> with_cols need [ outer_key ]
  | Plan.Filter (_, pred) -> with_cols need (Pred.columns pred)
  | Plan.Project (_, cols) -> only cols
  | Plan.Sort { keys; _ } -> with_cols need (List.map (fun k -> k.Plan.sort_column) keys)
  | Plan.Aggregate { group_by; aggs; _ } -> only (group_by @ agg_columns aggs)
  | Plan.Guard _ -> All
  | Plan.Limit _ | Plan.Append _ | Plan.Scan _ | Plan.Scan_resume _ | Plan.Materialized _
  | Plan.Star_semijoin _ ->
      need

(* Compile a plan to its operator tree, inputs in {!Plan.children} order.
   With a recorder attached, every operator's pulls are measured into a
   span node whose children are its inputs' nodes — so the span tree has
   the plan's shape, guards included. *)
let rec compile ctx need plan : Stream.t * Rq_obs.Recorder.node option =
  let inputs = List.map (compile ctx (input_need need plan)) (Plan.children plan) in
  let keep_cols = needed need in
  let op =
    match (plan, List.map fst inputs) with
    | Plan.Scan { table; access; pred }, [] -> (
        match access with
        | Plan.Seq_scan -> seq_scan_stream ctx ~table ~pred ~from:0 ~keep_cols
        | Plan.Index_range probe -> index_range_stream ctx ~table ~pred ~keep_cols ~probe
        | Plan.Index_intersect probes ->
            index_intersect_stream ctx ~table ~pred ~keep_cols ~probes
        | Plan.Index_order { column; descending } ->
            index_order_stream ctx ~table ~pred ~keep_cols ~column ~descending)
    | Plan.Scan_resume { table; pred; from_rid }, [] ->
        seq_scan_stream ctx ~table ~pred ~from:from_rid ~keep_cols
    | Plan.Materialized { schema; tuples; _ }, [] -> materialized_stream ~schema ~tuples
    | Plan.Hash_join { build_key; probe_key; _ }, [ bop; pop ] ->
        hash_join_stream ctx ~bop ~pop ~build_key ~probe_key
    | Plan.Merge_join { left; right; left_key; right_key }, [ lop; rop ] ->
        merge_join_stream ctx ~left_plan:left ~right_plan:right ~lop ~rop ~left_key ~right_key
    | Plan.Indexed_nl_join { outer_key; inner_table; inner_key; inner_pred; _ }, [ oop ] ->
        inl_join_stream ctx ~oop ~outer_key ~inner_table ~inner_key ~inner_pred ~keep_cols
    | Plan.Star_semijoin { fact; fact_pred; dims }, [] ->
        star_semijoin_stream ctx ~fact ~fact_pred ~dims ~keep_cols
    | Plan.Filter (_, pred), [ iop ] -> filter_stream ctx ~iop ~pred
    | Plan.Project (_, cols), [ iop ] -> project_stream ctx ~iop ~cols
    | Plan.Sort { keys; _ }, [ iop ] -> sort_stream ctx ~iop ~keys
    | Plan.Limit (_, n), [ iop ] -> limit_stream ctx ~iop ~n
    | Plan.Aggregate { group_by; aggs; _ }, [ iop ] ->
        aggregate_stream ctx ~plan ~iop ~group_by ~aggs
    | Plan.Guard { input; expected_rows; max_q_error; label }, [ iop ] ->
        guard_stream ctx ~iop ~input_plan:input ~expected_rows ~max_q_error ~label
    | Plan.Append _, (first :: _ as parts) -> append_stream ~schema:first.Stream.schema parts
    | Plan.Append _, [] -> invalid_arg "Executor: Append needs at least one input"
    | _ -> assert false (* [Plan.children] fixes each node's input count *)
  in
  match ctx.obs with
  | None -> (op, None)
  | Some _ ->
      let node =
        Rq_obs.Recorder.node ~label:(Plan.node_label plan) (List.filter_map snd inputs)
      in
      (spanned ctx node op, Some node)

let run ?obs ?morsels catalog meter plan =
  let ctx = { catalog; meter; obs; morsels } in
  let op, span = compile ctx All plan in
  let attach () =
    match (ctx.obs, span) with
    | Some r, Some node -> Rq_obs.Recorder.attach r node
    | _ -> ()
  in
  let tuples = Fun.protect ~finally:attach (fun () -> drain_all op) in
  { Exec_common.schema = op.Stream.schema; tuples }
