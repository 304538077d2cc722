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

   Sequential scans run as segments (see "Segments" below): the scan and
   the pipelined operators above it run one morsel at a time, on the
   domain pool when there is one, against a recording meter whose log the
   consumer replays in morsel order.

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

type morsels = {
  pool : Domain_pool.t;
  mutable charged : float ref list;
  mutable stages : string list list;
}

let morsels pool = { pool; charged = []; stages = [] }

(* What a pipeline running in a morsel does that the consumer must see, in
   order: its charges, its operators' measurement windows, and the batches
   it hands on with the scan position after each. *)
type event =
  | Charge of Cost.charge
  | Enter of Rq_obs.Recorder.node
  | Exit of Rq_obs.Recorder.node * int
  | Abort of Rq_obs.Recorder.node
  | Emit of Vbatch.t * int
  | Raise of exn * Printexc.raw_backtrace

type ctx = {
  catalog : Catalog.t;
  meter : Cost.t;  (* in a morsel: a recording meter *)
  obs : Rq_obs.Recorder.t option;
  morsels : morsels option;
  batch_rows : int;
  log : (event -> unit) option;  (* in a morsel: where its events go *)
}

let record ctx event =
  match ctx.obs with None -> () | Some r -> Rq_obs.Recorder.record r event

let rows_of = function Some vb -> Vbatch.selected vb | None -> 0

(* Each pull of a spanned operator is one measurement window of its node;
   rows are logical (selected) rows.  In a morsel the window is logged for
   the consumer to replay. *)
let spanned ctx node (op : Stream.t) =
  match (node, ctx.log) with
  | None, _ -> op
  | Some n, Some log ->
      let next_batch () =
        log (Enter n);
        match op.Stream.next_batch () with
        | r ->
            log (Exit (n, rows_of r));
            r
        | exception e ->
            log (Abort n);
            raise e
      in
      { op with Stream.next_batch }
  | Some n, None ->
      let meter () = Cost.snapshot ctx.meter in
      let next_batch () = Rq_obs.Recorder.measure n ~meter ~rows:rows_of op.Stream.next_batch in
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

(* A lone batch whose live columns are exactly its selected rows. *)
let compact_batch = function
  | [ vb ]
    when vb.Vbatch.n_rows = Vbatch.selected vb
         && Array.for_all
              (fun col -> Vbatch.pruned col || Array.length col = vb.Vbatch.n_rows)
              vb.Vbatch.cols ->
      Some (vb.Vbatch.cols, vb.Vbatch.n_rows)
  | _ -> None

(* Columns for [n] drained rows: a column every batch pruned stays pruned;
   where only some batches pruned it, their rows read [Null] (the rule of
   {!Vbatch.to_tuples}). *)
let output_columns arity n batches =
  let live c = List.exists (fun vb -> not (Vbatch.pruned vb.Vbatch.cols.(c))) batches in
  Array.init arity (fun c -> if n > 0 && live c then Array.make n Value.Null else [||])

(* Copy the selected rows of [batches], in order, into [cols] from row
   [at] on. *)
let gather_into cols ~at batches =
  List.fold_left
    (fun base vb ->
      let k = Vbatch.selected vb in
      if k = vb.Vbatch.n_rows then
        Array.iteri
          (fun c dst ->
            let src = vb.Vbatch.cols.(c) in
            if not (Vbatch.pruned dst || Vbatch.pruned src) then Array.blit src 0 dst base k)
          cols
      else begin
        let idx = Vbatch.selected_rows vb in
        Array.iteri
          (fun c dst ->
            let src = vb.Vbatch.cols.(c) in
            if not (Vbatch.pruned dst || Vbatch.pruned src) then
              for j = 0 to k - 1 do
                Array.unsafe_set dst (base + j) src.(idx.(j))
              done)
          cols
      end;
      base + k)
    at batches
  |> ignore

(* Gather the selected rows of [batches] straight into fresh columns: one
   copy, none for a lone compact batch. *)
let gather_batches arity batches =
  match compact_batch batches with
  | Some drained -> drained
  | None ->
      let n = List.fold_left (fun n vb -> n + Vbatch.selected vb) 0 batches in
      let cols = output_columns arity n batches in
      gather_into cols ~at:0 batches;
      (cols, n)

(* Drain a stream to columns: a breaker's input, rows in arrival order. *)
let drain_columns (op : Stream.t) =
  let batches = ref [] in
  let rec go () =
    match op.Stream.next_batch () with
    | Some vb ->
        batches := vb :: !batches;
        go ()
    | None -> ()
  in
  go ();
  gather_batches (Schema.arity op.Stream.schema) (List.rev !batches)

(* A drained column an operator reads itself (a join or sort key); a
   pruned one reads [Null], as it would from a tuple. *)
let key_column cols c n = if Vbatch.pruned cols.(c) then Array.make n Value.Null else cols.(c)

(* Hand out rows [order] of drained columns [batch_rows] at a time, each
   slice gathered into fresh columns: the output of sort, aggregate and
   materialized leaves. *)
let slices ctx cols order =
  let pos = ref 0 in
  fun () ->
    let n = Array.length order in
    if !pos >= n then None
    else begin
      let k = min ctx.batch_rows (n - !pos) in
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
(* Segments                                                            *)
(* ------------------------------------------------------------------ *)

(* A segment is a sequential scan plus the pipelined operators above it
   (filter, project, hash-join probe), up to the first operator that is
   not one of those.  Its scan tasks are grouped into morsels — row ranges
   on an absolute grid of [morsel_rows], a whole number of chunks (hence
   pages) of at least 4 x [batch_rows] — and each morsel runs the whole
   segment, end to end, over fresh operator instances: on a worker of the
   domain pool under {!Parallel}, inline otherwise.  Whatever consumes the
   segment does its per-row work in the morsel too: a breaker's drained
   input is gathered into columns there, an aggregate's rows are grouped
   and evaluated there ({!Agg.part}).

   A morsel charges a recording meter, and with a recorder attached it
   logs its operators' measurement windows in place of measuring them.
   The consumer replays the logs into the query's meter in morsel order,
   crediting each window to its node as it closes, so every charge
   happens in the serial engine's sequence with the serial engine's
   amount, and every span total is the serial run's.  Morsel boundaries
   are invisible to the serial engine: the windows a segment's operators
   open on their first pull are opened by the consumer before the first
   morsel (forcing each probe's build table where the serial engine
   forces it, on the probe's first pull), the windows their final pull
   closes are closed after the last, and each morsel's log leaves out its
   own first opening and last closing.

   A segment feeding a breaker dispatches all its morsels in one
   {!Domain_pool.iter}; one under a consumer that may stop early — the
   root, [Limit], [Guard], a join's outer side, [Append] — dispatches a
   window of [Domain_pool.size] morsels at a time (without a pool, one
   morsel, run batch by batch as the consumer pulls), and a morsel whose
   batches are never pulled charges nothing.  Counters, guard fire
   points and resume positions therefore cannot depend on the pool.

   Each dispatched morsel gets a cell in [charged] (newest first) that
   the replay credits with the seconds it applies: the per-morsel work
   {!Parallel.makespan} schedules; [stages] names the work it ran. *)

let morsel_rows ctx rel =
  let rpc = Relation.rows_per_chunk rel in
  rpc * max 1 (((4 * ctx.batch_rows) + rpc - 1) / rpc)

(* The scan a segment starts from: its tasks grouped into morsels. *)
type scan = {
  table : string;
  pred : Pred.t;
  qualified : Schema.t;
  rel : Relation.t;
  from : int;
  keep : bool array;
  bitmap : (Chunk.t -> Bitset.t) option;
  groups : Chunk_scan.task list array;
}

(* One operator of a segment: what it is, its span node, and what the
   serial engine does on its first pull before pulling its input. *)
type link = { stage : string; node : Rq_obs.Recorder.node option; force : unit -> unit }

type segment = {
  schema : Schema.t;
  scan : scan;
  links : link list;  (* top first; the scan last *)
  pipe : ctx -> Stream.t -> Stream.t;  (* the operators, over a morsel's scan *)
}

type compiled = Op of Stream.t | Seg of segment

let schema_of = function Op op -> op.Stream.schema | Seg seg -> seg.schema

(* Consecutive tasks on one grid cell form a morsel; a cell whose chunks
   the zone maps all skip joins the morsel before it (or, at the start,
   the one after), so it costs no dispatch of its own. *)
let morsel_groups ~m tasks =
  let rec cells acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | (t : Chunk_scan.task) :: rest ->
        if cur <> [] && t.lo / m <> k then cells (List.rev cur :: acc) [ t ] (t.lo / m) rest
        else cells acc (t :: cur) (t.lo / m) rest
  in
  let skipped = List.for_all (fun (t : Chunk_scan.task) -> t.skip) in
  let rec merge acc pending = function
    | [] -> List.rev (if pending = [] then acc else pending :: acc)
    | cell :: rest when skipped cell -> (
        match acc with
        | prev :: acc -> merge ((prev @ cell) :: acc) pending rest
        | [] -> merge acc (pending @ cell) rest)
    | cell :: rest -> merge ((pending @ cell) :: acc) [] rest
  in
  Array.of_list (merge [] [] (cells [] [] (-1) tasks))

(* The scan of one morsel's tasks: a zone-map-skipped chunk charges
   pages_skipped (free) and is stepped over whole; a read chunk is pulled
   pinned from the buffer pool and sliced into (chunk ∩ [batch_rows]
   window) batches, charging CPU per source row and each heap page the
   first time a row on it is touched.  A full drain thus charges exactly
   the planner's read-page/read-row totals (= page_count/row_count when
   nothing prunes), and stopping early leaves the tail pages unread.
   Morsels start on chunk boundaries, which are page-aligned, so each
   morsel's page frontier starts where the serial scan's stands; a resumed
   scan's first morsel starts at the page holding [from], so a resume
   re-reads the split page.

   A window's batch shares zero-copy the chunk's arrays of the columns
   [keep] accepts and prunes the rest, so a spilled chunk decodes only the
   columns the predicate bitmap or some operator above reads; its
   selection is the window ∧ the chunk's predicate bitmap, computed once
   per chunk.  Zero-match windows are charged but not emitted.  [pos] is
   the next row to read. *)
let scan_stream ctx sc tasks =
  let rpp = Relation.rows_per_page sc.rel in
  let tasks = ref tasks in
  let pos = ref (match !tasks with (t : Chunk_scan.task) :: _ -> t.lo | [] -> sc.from) in
  let page_frontier = ref (!pos / rpp) in
  let cached_bits = ref (-1, None) in
  let bits_of (t : Chunk_scan.task) chunk =
    match !cached_bits with
    | ci, bits when ci = t.ci -> bits
    | _ ->
        let bits = Option.map (fun bm -> bm chunk) sc.bitmap in
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
            let stop = min t.hi (!pos + ctx.batch_rows) in
            Cost.charge_cpu_tuples ctx.meter (stop - !pos);
            let pages_now = Chunk_scan.pages_upto rpp stop in
            if pages_now > !page_frontier then begin
              Cost.charge_seq_pages ctx.meter (pages_now - !page_frontier);
              page_frontier := pages_now
            end;
            let base = Relation.chunk_start sc.rel t.ci in
            Relation.with_chunk ~seq:true sc.rel t.ci (fun chunk ->
                let lo = !pos - base and hi = stop - base in
                let sel =
                  match bits_of t chunk with
                  | None -> Bitset.window (Chunk.n_rows chunk) ~lo ~hi
                  | Some b -> Bitset.inter_window b ~lo ~hi
                in
                if Bitset.popcount sel > 0 then out := Some (Vbatch.of_chunk chunk ~keep:sc.keep ~sel));
            pos := stop;
            if stop >= t.hi then tasks := rest
          end
    done;
    !out
  in
  (Stream.make ~schema:sc.qualified next_batch, pos)

let scan_segment ctx ~node ~table ~pred ~from ~keep_cols =
  let rel = Catalog.find_table ctx.catalog table in
  let schema = Exec_common.qualified_schema ctx.catalog table in
  let from = min (max 0 from) (Relation.row_count rel) in
  let scan =
    {
      table;
      pred;
      qualified = schema;
      rel;
      from;
      keep = Array.of_list (List.map keep_cols (Schema.columns schema));
      bitmap = Chunk_scan.bitmap (Relation.schema rel) pred;
      groups = morsel_groups ~m:(morsel_rows ctx rel) (Chunk_scan.tasks ~from rel pred);
    }
  in
  {
    schema;
    scan;
    links = [ { stage = "scan"; node; force = ignore } ];
    pipe = (fun mctx op -> spanned mctx node op);
  }

(* A pipelined operator [f] over its compiled input: a segment grows by
   one operator, a stream gets one more operator. *)
let pipelined ctx ~stage ~node ?(force = ignore) ~schema input f =
  match input with
  | Op iop -> Op (spanned ctx node (f ctx iop))
  | Seg seg ->
      Seg
        {
          seg with
          schema;
          links = { stage; node; force } :: seg.links;
          pipe = (fun mctx op -> spanned mctx node (f mctx (seg.pipe mctx op)));
        }

(* Start one morsel of [seg] over fresh operators, its events handed to
   [sink]: [pull ()] runs the segment to its next output batch and
   returns it with the scan position after it, or [None] once the morsel
   is done. *)
let start_morsel ctx seg tasks sink =
  let mctx =
    { ctx with meter = Cost.recording (fun c -> sink (Charge c)); morsels = None; log = Some sink }
  in
  let scan, pos = scan_stream mctx seg.scan tasks in
  let op = seg.pipe mctx scan in
  (mctx, fun () -> Option.map (fun vb -> (vb, !pos)) (op.Stream.next_batch ()))

(* A morsel's events for [emit], less the windows the consumer opens and
   closes itself: the first [Enter] of each spanned operator and, once
   [completed] is called, the last [Exit] of each.  Exits are held back
   until another event follows, so the last ones can still be dropped. *)
let trimmed seg emit =
  let depth = List.length (List.filter (fun l -> Option.is_some l.node) seg.links) in
  let entered = ref 0 and held = ref [] in
  let flush () =
    List.iter emit (List.rev !held);
    held := []
  in
  let sink = function
    | _ when !entered < depth -> incr entered
    | Exit _ as e -> held := e :: !held
    | e ->
        flush ();
        emit e
  in
  let completed () =
    held := List.filteri (fun i _ -> i >= depth) !held;
    flush ()
  in
  (sink, completed)

(* Run one morsel of [seg] to its end, handing each output batch and the
   scan position after it to [on_batch], and return its trimmed log; an
   exception ends the log. *)
let run_morsel ctx seg tasks ~on_batch =
  let events = ref [] in
  let sink, completed = trimmed seg (fun e -> events := e :: !events) in
  (match
     let mctx, pull = start_morsel ctx seg tasks sink in
     let rec go () =
       match pull () with
       | Some (vb, p) ->
           on_batch mctx vb p;
           go ()
       | None -> ()
     in
     go ()
   with
  | () -> completed ()
  | exception e -> sink (Raise (e, Printexc.get_raw_backtrace ())));
  Array.of_list (List.rev !events)

(* Run tasks [0, count) and hand each result to [consume] in index order,
   as soon as it is ready: on the pool, the consumer works while the
   workers run later tasks; inline, each task's data is still in cache
   when it is consumed. *)
let each_task ctx count f consume =
  match ctx.morsels with
  | Some ms -> Domain_pool.iter ms.pool count f consume
  | None ->
      for k = 0 to count - 1 do
        consume k (f k)
      done

(* One charge cell per dispatched morsel, recorded with its stages. *)
let cells ctx seg ~consumer count =
  match ctx.morsels with
  | None -> Array.init count (fun _ -> ref 0.0)
  | Some ms ->
      let stages = List.rev_map (fun l -> l.stage) seg.links @ consumer in
      Array.init count (fun _ ->
          let cell = ref 0.0 in
          ms.charged <- cell :: ms.charged;
          ms.stages <- stages :: ms.stages;
          cell)

(* The consumer's side of a replay: the windows open so far, innermost
   first, each with the meter as it stood when it opened. *)
type replay = {
  into : Cost.t;
  mutable windows : (Rq_obs.Recorder.node * Rq_obs.Metrics.t) list;
}

let enter r n = r.windows <- (n, Cost.snapshot r.into) :: r.windows

let leave r ?aborted n rows =
  match r.windows with
  | (m, before) :: rest when m == n ->
      r.windows <- rest;
      Rq_obs.Recorder.credit n ?aborted ~rows (Rq_obs.Metrics.sub (Cost.snapshot r.into) before)
  | _ -> invalid_arg "Stream_exec: operator windows out of order"

let apply r cell = function
  | Charge c ->
      let before = Cost.seconds r.into in
      Cost.charge r.into c;
      cell := !cell +. (Cost.seconds r.into -. before)
  | Enter n -> enter r n
  | Exit (n, rows) -> leave r n rows
  | Abort n -> leave r ~aborted:true n 0
  | Emit _ -> ()
  | Raise (e, bt) -> Printexc.raise_with_backtrace e bt

(* The serial engine's first pull of the segment, up to its scan: each
   operator's window opens, top first, and a probe forces its build
   table.  If a build fails, the windows open so far end aborted. *)
let open_segment r seg =
  match
    List.iter
      (fun l ->
        Option.iter (enter r) l.node;
        l.force ())
      seg.links
  with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      List.iter (fun (n, _) -> leave r ~aborted:true n 0) r.windows;
      Printexc.raise_with_backtrace e bt

(* The serial engine's last pull: the scan, then each operator above it,
   returns nothing. *)
let close_segment r seg =
  List.iter (fun l -> Option.iter (fun n -> leave r n 0) l.node) (List.rev seg.links)

(* Run every morsel of [seg] at once, each reducing its batches with
   [on_batch] into the accumulator [init ()] makes and handing it to
   [finish]; then, in morsel order, replay each log and [merge] what
   [finish] returned. *)
let reduce_segment ctx seg ~consumer ~init ~on_batch ~finish ~merge =
  let r = { into = ctx.meter; windows = [] } in
  open_segment r seg;
  let groups = seg.scan.groups in
  let cells = cells ctx seg ~consumer:[ consumer ] (Array.length groups) in
  each_task ctx (Array.length groups)
    (fun k ->
      let acc = init () in
      let events = run_morsel ctx seg groups.(k) ~on_batch:(fun mctx vb _ -> on_batch mctx acc vb) in
      (events, finish acc))
    (fun k (events, out) ->
      Array.iter (apply r cells.(k)) events;
      merge out);
  close_segment r seg

(* A breaker's input from a segment, copied once: the morsels keep their
   batches; then, with every morsel's offset known, each copies its rows
   straight into the output columns, again on the pool. *)
let drain_segment ctx seg =
  let morsels = ref [] in
  reduce_segment ctx seg ~consumer:"compact"
    ~init:(fun () -> ref [])
    ~on_batch:(fun _ batches vb -> batches := vb :: !batches)
    ~finish:(fun batches -> List.rev !batches)
    ~merge:(fun batches -> morsels := batches :: !morsels);
  let morsels = Array.of_list (List.rev !morsels) in
  let all = List.concat (Array.to_list morsels) in
  match compact_batch all with
  | Some drained -> drained
  | None ->
      let offsets = Array.make (Array.length morsels + 1) 0 in
      Array.iteri
        (fun k batches ->
          offsets.(k + 1) <-
            List.fold_left (fun n vb -> n + Vbatch.selected vb) offsets.(k) batches)
        morsels;
      let n = offsets.(Array.length morsels) in
      let cols = output_columns (Schema.arity seg.schema) n all in
      each_task ctx (Array.length morsels)
        (fun k -> gather_into cols ~at:offsets.(k) morsels.(k))
        (fun _ () -> ());
      (cols, n)

(* A segment as a stream.  On the pool, a window of morsels runs at a
   time and each finished log is replayed up to its next [Emit] as the
   consumer pulls; inline, one morsel runs at a time, up to its next batch
   per pull, its events applied as they happen, so a consumer that stops
   early stops the morsel too. *)
let segment_stream ctx seg =
  let r = { into = ctx.meter; windows = [] } in
  let sc = seg.scan in
  let n = Relation.row_count sc.rel in
  let groups = sc.groups in
  let emit mctx vb p = Option.iter (fun log -> log (Emit (vb, p))) mctx.log in
  let replay events cell =
    let at = ref 0 in
    let rec pull () =
      if !at >= Array.length events then None
      else begin
        let ev = events.(!at) in
        incr at;
        match ev with Emit (vb, p) -> Some (vb, p) | ev -> apply r cell ev; pull ()
      end
    in
    pull
  in
  let live tasks cell =
    let sink, completed = trimmed seg (apply r cell) in
    let mctx, pull = start_morsel ctx seg tasks sink in
    fun () ->
      match pull () with
      | Some (vb, p) as b ->
          emit mctx vb p;
          b
      | None ->
          completed ();
          None
      | exception e ->
          (* applying [Raise] re-raises it, after the held exits *)
          sink (Raise (e, Printexc.get_raw_backtrace ()));
          None
  in
  let dispatched = ref 0 in
  let ready = Queue.create () in
  let dispatch () =
    let first = !dispatched in
    match ctx.morsels with
    | None ->
        Queue.push (live groups.(first) (cells ctx seg ~consumer:[] 1).(0)) ready;
        dispatched := first + 1
    | Some ms ->
        let count = min (Domain_pool.size ms.pool) (Array.length groups - first) in
        let cs = cells ctx seg ~consumer:[] count in
        each_task ctx count
          (fun k -> run_morsel ctx seg groups.(first + k) ~on_batch:emit)
          (fun k events -> Queue.push (replay events cs.(k)) ready);
        dispatched := first + count
  in
  let started = ref false and finished = ref false in
  let pos = ref sc.from in
  let rec next_batch () =
    if !finished then None
    else if not !started then begin
      started := true;
      open_segment r seg;
      next_batch ()
    end
    else
      match Queue.peek_opt ready with
      | Some pull -> (
          match pull () with
          | Some (vb, p) ->
              pos := p;
              Some vb
          | None ->
              let (_ : unit -> _) = Queue.pop ready in
              next_batch ())
      | None when !dispatched < Array.length groups ->
          dispatch ();
          next_batch ()
      | None ->
          finished := true;
          close_segment r seg;
          pos := n;
          None
  in
  let resume =
    match seg.links with
    | [ _ ] ->
        (* a bare scan resumes where its last batch ended *)
        fun () ->
          if !pos >= n then None
          else Some (Plan.Scan_resume { table = sc.table; pred = sc.pred; from_rid = !pos })
    | _ -> fun () -> None
  in
  Stream.make ~schema:seg.schema
    ~progress:(fun () ->
      if n = sc.from then 1.0 else float_of_int (!pos - sc.from) /. float_of_int (n - sc.from))
    ~resume next_batch

let stream ctx = function Op op -> op | Seg seg -> segment_stream ctx seg
let drain ctx = function Op op -> drain_columns op | Seg seg -> drain_segment ctx seg

(* ------------------------------------------------------------------ *)
(* Leaf operators                                                      *)
(* ------------------------------------------------------------------ *)

(* Index access paths probe up-front (the B-tree descent is one action),
   then fetch matching RIDs window by window ({!fetcher}); the predicate's
   bitmap over a window is its batch's selection.  Windows with no match
   are charged but not emitted. *)
let rid_fetch_stream ctx ~table ~pred ~keep_cols ~probe_rids =
  let schema = Exec_common.qualified_schema ctx.catalog table in
  let fetch = fetcher ctx table ~schema ~pred ~keep_cols in
  let rids = lazy (probe_rids ()) in
  let fpos = ref 0 in
  let chunk = ref (min ctx.batch_rows fetch_ramp_rows) in
  let next_batch () =
    let arr = Lazy.force rids in
    let total = Array.length arr in
    let out = ref None in
    while !out = None && !fpos < total do
      let stop = min total (!fpos + !chunk) in
      chunk := min ctx.batch_rows (2 * !chunk);
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
let materialized_stream ctx ~schema ~tuples =
  let n = Array.length tuples in
  let cols = Array.init (Schema.arity schema) (fun c -> Array.init n (fun r -> tuples.(r).(c))) in
  let emit = slices ctx cols (Array.init n Fun.id) in
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

(* The build side materializes (a hash table is a breaker).  Buckets hold
   build row indices (in build-input order) so probing is one [find_opt]
   plus an allocation-free walk over an int array per probe row. *)
let build_table ctx (bcols, n) ~bpos =
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
  (bcols, buckets)

(* Probing reads the key column directly at each selected index and the
   output batch is assembled column-major.  One output batch per
   match-bearing probe batch, matches in probe order × build-input order.
   The table is forced on the first pull — before any morsel of a probe
   segment runs, and read-only after. *)
let probe_stream ctx ~table ~barity ~ppos ~schema (pop : Stream.t) =
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
                | Some rows ->
                    for m = 0 to Array.length rows - 1 do
                      push rows.(m) i
                    done
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
let merge_join_stream ctx ~left_plan ~right_plan ~left ~right ~left_key ~right_key =
  let lschema = schema_of left and rschema = schema_of right in
  let schema = Schema.concat lschema rschema in
  let larity = Schema.arity lschema in
  (* Sorting after both drains keeps the charges in the order a tuple
     merge made them. *)
  let side sschema (cols, n) plan key_name =
    let key = key_column cols (Schema.index_of sschema key_name) n in
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
      (let ldrained = drain ctx left in
       let rdrained = drain ctx right in
       let l = side lschema ldrained left_plan left_key in
       let r = side rschema rdrained right_plan right_key in
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
    let batches = ref [] in
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
                batches := Vbatch.of_chunk chunk ~keep ~sel :: !batches)
        end)
      (Chunk_scan.tasks rel dim_pred);
    let cols, n = gather_batches (Array.length keep) (List.rev !batches) in
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
      let stop = min total (!fpos + ctx.batch_rows) in
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
let filter_stream ctx ~bitmap (iop : Stream.t) =
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
let project_stream ctx ~positions ~schema (iop : Stream.t) =
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
let sort_stream ctx ~input ~keys =
  let schema = schema_of input in
  let positions =
    List.map
      (fun { Plan.sort_column; descending } -> (Schema.index_of schema sort_column, descending))
      keys
  in
  let emit =
    lazy
      (let cols, n = drain ctx input in
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
       slices ctx cols perm)
  in
  Stream.make ~schema
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

(* Each input batch charges its rows to the hash table and is grouped and
   evaluated into a part; over a segment that happens in the morsels, over
   any other input a part folds once it holds [batch_rows] rows. *)
let aggregate_stream ctx ~plan ~input ~group_by ~aggs =
  let spec = Agg.spec (schema_of input) ~group_by ~aggs in
  let emit =
    lazy
      (let agg = Agg.create spec in
       let feed meter part vb =
         Cost.charge_hash_build meter (Vbatch.selected vb);
         Agg.add part vb.Vbatch.cols vb.Vbatch.sel
       in
       (match input with
       | Op iop ->
           let rec pull part rows =
             match iop.Stream.next_batch () with
             | Some vb ->
                 feed ctx.meter part vb;
                 let rows = rows + Vbatch.selected vb in
                 if rows < ctx.batch_rows then pull part rows
                 else begin
                   Agg.fold agg part;
                   pull (Agg.part spec) 0
                 end
             | None -> Agg.fold agg part
           in
           pull (Agg.part spec) 0
       | Seg seg ->
           reduce_segment ctx seg ~consumer:"aggregate"
             ~init:(fun () -> Agg.part spec)
             ~on_batch:(fun mctx part vb -> feed mctx.meter part vb)
             ~finish:Fun.id ~merge:(Agg.fold agg));
       let cols, n = Agg.finalize agg in
       Cost.charge_output_tuples ctx.meter n;
       slices ctx cols (Array.init n Fun.id))
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

(* Compile a plan to its operator tree, inputs in {!Plan.children} order:
   a sequential scan and the pipelined operators above it to a segment,
   everything else to a stream.  With a recorder attached, every
   operator's pulls are measured into a span node whose children are its
   inputs' nodes — so the span tree has the plan's shape, guards
   included. *)
let rec compile ctx need plan : compiled * Rq_obs.Recorder.node option =
  let inputs = List.map (compile ctx (input_need need plan)) (Plan.children plan) in
  let node =
    Option.map
      (fun _ -> Rq_obs.Recorder.node ~label:(Plan.node_label plan) (List.filter_map snd inputs))
      ctx.obs
  in
  let keep_cols = needed need in
  let op o = Op (spanned ctx node o) in
  let compiled =
    match (plan, List.map fst inputs) with
    | Plan.Scan { table; access; pred }, [] -> (
        match access with
        | Plan.Seq_scan -> Seg (scan_segment ctx ~node ~table ~pred ~from:0 ~keep_cols)
        | Plan.Index_range probe -> op (index_range_stream ctx ~table ~pred ~keep_cols ~probe)
        | Plan.Index_intersect probes ->
            op (index_intersect_stream ctx ~table ~pred ~keep_cols ~probes)
        | Plan.Index_order { column; descending } ->
            op (index_order_stream ctx ~table ~pred ~keep_cols ~column ~descending))
    | Plan.Scan_resume { table; pred; from_rid }, [] ->
        Seg (scan_segment ctx ~node ~table ~pred ~from:from_rid ~keep_cols)
    | Plan.Materialized { schema; tuples; _ }, [] -> op (materialized_stream ctx ~schema ~tuples)
    | Plan.Hash_join { build_key; probe_key; _ }, [ build; probe ] ->
        let bschema = schema_of build and pschema = schema_of probe in
        let bpos = Schema.index_of bschema build_key in
        let table = lazy (build_table ctx (drain ctx build) ~bpos) in
        let schema = Schema.concat bschema pschema in
        pipelined ctx ~stage:"probe" ~node
          ~force:(fun () -> ignore (Lazy.force table))
          ~schema probe
          (fun c pop ->
            probe_stream c ~table ~barity:(Schema.arity bschema)
              ~ppos:(Schema.index_of pschema probe_key) ~schema pop)
    | Plan.Merge_join { left = left_plan; right = right_plan; left_key; right_key }, [ left; right ]
      ->
        op (merge_join_stream ctx ~left_plan ~right_plan ~left ~right ~left_key ~right_key)
    | Plan.Indexed_nl_join { outer_key; inner_table; inner_key; inner_pred; _ }, [ outer ] ->
        op
          (inl_join_stream ctx ~oop:(stream ctx outer) ~outer_key ~inner_table ~inner_key
             ~inner_pred ~keep_cols)
    | Plan.Star_semijoin { fact; fact_pred; dims }, [] ->
        op (star_semijoin_stream ctx ~fact ~fact_pred ~dims ~keep_cols)
    | Plan.Filter (_, pred), [ input ] ->
        let schema = schema_of input in
        let bitmap = Chunk_scan.bitmap schema pred in
        pipelined ctx ~stage:"filter" ~node ~schema input (fun c iop -> filter_stream c ~bitmap iop)
    | Plan.Project (_, cols), [ input ] ->
        let ischema = schema_of input in
        let positions = Array.of_list (List.map (Schema.index_of ischema) cols) in
        let schema = Schema.project ischema cols in
        pipelined ctx ~stage:"project" ~node ~schema input (fun c iop ->
            project_stream c ~positions ~schema iop)
    | Plan.Sort { keys; _ }, [ input ] -> op (sort_stream ctx ~input ~keys)
    | Plan.Limit (_, n), [ input ] -> op (limit_stream ctx ~iop:(stream ctx input) ~n)
    | Plan.Aggregate { group_by; aggs; _ }, [ input ] ->
        op (aggregate_stream ctx ~plan ~input ~group_by ~aggs)
    | Plan.Guard { input = input_plan; expected_rows; max_q_error; label }, [ input ] ->
        op
          (guard_stream ctx ~iop:(stream ctx input) ~input_plan ~expected_rows ~max_q_error
             ~label)
    | Plan.Append _, (first :: _ as parts) ->
        op (append_stream ~schema:(schema_of first) (List.map (stream ctx) parts))
    | Plan.Append _, [] -> invalid_arg "Executor: Append needs at least one input"
    | _ -> assert false (* [Plan.children] fixes each node's input count *)
  in
  (compiled, node)

let run ?obs ?morsels ?(batch_rows = batch_rows) catalog meter plan =
  if batch_rows < 1 then invalid_arg "Stream_exec.run: batch_rows must be >= 1";
  let ctx = { catalog; meter; obs; morsels; batch_rows; log = None } in
  let compiled, span = compile ctx All plan in
  let attach () =
    match (ctx.obs, span) with
    | Some r, Some node -> Rq_obs.Recorder.attach r node
    | _ -> ()
  in
  let op = stream ctx compiled in
  let tuples = Fun.protect ~finally:attach (fun () -> drain_all op) in
  { Exec_common.schema = op.Stream.schema; tuples }
