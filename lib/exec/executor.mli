(** Plan execution with cost accounting: the pull-based streaming engine,
    the one executor (also behind {!Parallel}).

    [run] executes the plan and charges every page read, index probe and
    per-tuple operation to the supplied cost meter; the meter's accumulated
    simulated seconds are the "query execution time" that the experiments
    report.

    It compiles a plan into a tree of streaming operators carrying
    column-major {!Vbatch.t}s and drains the root.  Scans hand out chunk
    column slices zero-copy with the predicate bitmap as the initial
    selection; RID fetches (index scans, the indexed-NL join's inner side,
    the star semijoin's fact fetch) copy only the columns the plan keeps
    and select by the predicate's bitmap over them; filters AND bitsets;
    expressions, joins and aggregates run per-column loops over selected
    indices; and the breakers (hash build side, sort, merge-join inputs,
    star dimensions) drain their inputs into columns and gather their
    output by row index.  A fired guard hands on its rows as columns and
    a materialized leaf replays them as columns: tuples materialize in one
    place only, the final drain of {!run}.  Everything else streams batch
    by batch, so a satisfied [Limit] or a mid-stream guard violation stops
    pulling upstream and leaves the unperformed work uncharged.

    A sequential scan and the filters, projections and hash-join probes
    above it form a {e segment}, which runs one morsel (a chunk-aligned
    row range) at a time over fresh operator instances, together with the
    per-row work of what consumes it: gathering a breaker's drained input
    into columns, or grouping and evaluating an aggregate's rows.  With a
    domain pool, the pool's workers run the morsels; without one they run
    inline, over the same code.  A morsel charges a recording meter; the
    consumer replays the logs into the query's meter in morsel order, so
    results, every counter, guard fire points, resume positions and span
    totals are the serial engine's at any domain count. *)

open Rq_storage

type result = { schema : Schema.t; tuples : Relation.tuple array }

type violation = {
  label : string;          (** the guard's label (guarded subplan shape) *)
  expected_rows : float;   (** optimizer's estimate at instrumentation time *)
  actual_rows : int;       (** rows seen when the guard fired *)
  q_error : float;         (** max(est/act, act/est), 0.5 floors *)
  columns : Value.t array array;
      (** the rows seen so far, one column per column of [subplan]'s
          output, each [actual_rows] long — reusable unchanged as a
          {!Plan.Materialized} leaf's [cols] *)
  subplan : Plan.t;        (** the guarded subplan that produced them *)
  complete : bool;         (** input fully consumed: [columns] hold the
                               whole output (an underflow caught at drain) *)
  progress : float;        (** fraction of the input consumed, in [0, 1];
                               1.0 when [complete] *)
  resume : Plan.t option;  (** a plan computing exactly the rows NOT in
                               [columns], when the source supports it (a
                               mid-scan {!Plan.Scan_resume}); [None] when
                               [complete] or the prefix is non-resumable *)
}

exception Guard_violation of violation
(** Raised by [run] when a {!Plan.Guard}'s q-error bound is exceeded.  All
    work up to the violation is already charged to the meter; the carried
    columns (plus [resume] for a mid-stream overflow) let a re-optimizer
    pick up without repeating it. *)

val batch_rows : int
(** The default rows per pulled batch (producers may emit fewer, never
    zero). *)

type morsels = {
  pool : Domain_pool.t;
  mutable charged : float ref list;
  mutable stages : string list list;
}
(** The domain pool segments run their morsels on.  A segment that feeds
    a breaker or an aggregate dispatches all its morsels at once; one
    under a consumer that may stop early dispatches [Domain_pool.size
    pool] morsels at a time.  Each dispatched morsel adds one cell to
    [charged] (newest first), credited with the simulated seconds its
    replayed log charges, and one entry to [stages]: the work it ran,
    bottom up — ["scan"], then ["filter"], ["project"] or ["probe"] per
    operator above it, then ["compact"] (a breaker's input) or
    ["aggregate"] when the consumer's per-row work ran in it too. *)

val morsels : Domain_pool.t -> morsels
(** No morsels dispatched yet. *)

val run :
  ?obs:Rq_obs.Recorder.t ->
  ?morsels:morsels ->
  ?batch_rows:int ->
  Catalog.t ->
  Cost.t ->
  Plan.t ->
  result
(** Raises [Invalid_argument] on ill-formed plans (missing index, key out
    of scope); run [Plan.validate] first for a friendly error.  Raises
    {!Guard_violation} when a guard fires — mid-stream on overflow (with
    [complete = false] and a [resume] plan when the source scan supports
    it), or at drain on underflow.  With [?morsels], segments run their
    morsels on its pool (see {!Parallel}).  [batch_rows] (default
    {!batch_rows}, at least 1) sizes scan windows, fetches and output
    slices; answers and, on plans without [Limit] or [Guard], every
    counter but the float seconds are the same at any size.

    With [?obs], every plan node gets a recorder span node, children in
    {!Plan.children} order, whose metric delta is that subtree's meter
    movement, accumulated per pull; the tree is attached when the root
    drains (or unwinds), beneath the recorder's running scope if there is
    one.  Guards emit [Guard_ok]/[Guard_fired] trace events, and spans
    unwound by an exception are kept, marked aborted, so wasted work stays
    attributed.  A fired guard's input span is [not] aborted — its partial
    rows were produced successfully and are reusable. *)

val run_timed :
  Catalog.t ->
  ?constants:Cost.constants ->
  ?scale:float ->
  ?obs:Rq_obs.Recorder.t ->
  Plan.t ->
  result * Cost.snapshot
(** Convenience: fresh meter, run, snapshot. *)

(** {2 Charges the cost model predicts}

    The optimizer's cost model prices an index probe's leaf pages and a
    merge join's sort with these, the same functions the engine charges
    by. *)

val leaf_pages_touched : Index.t -> float -> float
(** Leaf pages read when [entries] contiguous entries of the index are
    scanned; at least 1 when any entry is touched.  Whole for a whole
    [entries]. *)

val find_index_exn : Catalog.t -> table:string -> column:string -> Index.t
(** Raises [Invalid_argument] when the index does not exist. *)

val output_sorted_on : Catalog.t -> Plan.t -> string option
(** Qualified clustered-key column the plan's output is physically ordered
    by, when the merge join may skip its sort; guards are transparent. *)
