(** The pull-based streaming engine: the one executor behind {!Executor}
    and {!Parallel}.

    Compiles a plan into a tree of {!Stream.t} operators carrying
    column-major {!Vbatch.t}s and drains the root.  Scans hand out chunk
    column slices zero-copy with the predicate bitmap as the initial
    selection; RID fetches (index scans, the indexed-NL join's inner side,
    the star semijoin's fact fetch) copy only the columns the plan keeps
    and select by the predicate's bitmap over them; filters AND bitsets;
    expressions, joins and aggregates run per-column loops over selected
    indices; and the breakers (hash build side, sort, merge-join inputs,
    star dimensions) drain their inputs into columns and gather their
    output by row index.  Tuples materialize only at the final output, in
    a fired guard's buffer and in a materialized leaf's one transposition.
    Everything else streams batch by batch, so a satisfied [Limit] or a
    mid-stream guard violation stops pulling upstream and leaves the
    unperformed work uncharged.

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
  Exec_common.result
(** Raises {!Exec_common.Guard_violation} when a guard fires — mid-stream
    on overflow (with [complete = false] and a [resume] plan when the
    source scan supports it), or at drain on underflow.  [batch_rows]
    (default {!batch_rows}, at least 1) sizes scan windows, fetches and
    output slices; answers and, on plans without [Limit] or [Guard], every
    counter but the float seconds are the same at any size.

    With [?obs], a span tree mirroring the operator tree is attached to the
    recorder when the root drains or unwinds: each span's total is the sum
    of the meter deltas across that operator's pulls, children nest inside
    parents, and operators interrupted by an exception are marked aborted
    (a fired guard's input span is not — its rows were produced
    successfully). *)
