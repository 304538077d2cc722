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
    unperformed work uncharged. *)

open Rq_storage

val batch_rows : int
(** Rows per pulled batch (producers may emit fewer, never zero). *)

type morsels = { pool : Domain_pool.t; mutable charged : float ref list }
(** A morsel prefetcher for {!run}: sequential scans hand their next
    [Domain_pool.size pool] morsels (chunk-aligned row ranges of at least
    4 x [batch_rows]) to the pool, whose workers pin each read chunk and
    compute its predicate bitmap; the scan's serial loop consumes the
    bitmaps in order and does all charging, so the pool never changes a
    counter, a result, a guard fire point or a resume position.  Each
    dispatched morsel adds one cell to [charged] (newest first), credited
    with the scan seconds charged for that morsel's rows. *)

val run :
  ?obs:Rq_obs.Recorder.t ->
  ?morsels:morsels ->
  Catalog.t ->
  Cost.t ->
  Plan.t ->
  Exec_common.result
(** Raises {!Exec_common.Guard_violation} when a guard fires — mid-stream
    on overflow (with [complete = false] and a [resume] plan when the
    source scan supports it), or at drain on underflow.

    With [?obs], a span tree mirroring the operator tree is attached to the
    recorder when the root drains or unwinds: each span's total is the sum
    of the meter deltas across that operator's pulls, children nest inside
    parents, and operators interrupted by an exception are marked aborted
    (a fired guard's input span is not — its rows were produced
    successfully). *)
