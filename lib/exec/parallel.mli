(** Morsel-driven parallel execution on OCaml 5 domains.

    {!run} is {!Executor.run} with its segments' morsels on the
    executor's {!Domain_pool}.  A segment is a sequential (or resumed)
    scan and the filters, projections and hash-join probes above it; a
    worker runs one morsel of it, a chunk-aligned row range, end to end,
    together with the per-row work of its consumer: gathering a breaker's
    input into columns, or grouping and evaluating an aggregate's rows.
    Probes read a build table forced before any probe morsel is
    dispatched.  Workers charge recording meters, never the query's
    {!Cost} meter; the consumer replays their logs in morsel order and
    folds aggregates row by row.  Results, every cost counter, float
    aggregate bits, group order, guard fire points, [Scan_resume]
    positions and span totals are therefore identical to
    {!Executor.run}'s at any domain count. *)

open Rq_storage

type t
(** A parallel executor bound to a domain pool. *)

val create : ?domains:int -> unit -> t
(** [domains] defaults to 1 (serial over the identical code path). *)

val domains : t -> int
val shutdown : t -> unit

val run :
  ?obs:Rq_obs.Recorder.t ->
  ?batch_rows:int ->
  t ->
  Catalog.t ->
  Cost.t ->
  Plan.t ->
  Executor.result
(** Execute the plan, charging the meter exactly as {!Executor.run} does.
    Raises {!Executor.Guard_violation} when a guard fires.
    [batch_rows] is {!Executor.run}'s. *)

type report = {
  morsels : int;           (** morsels dispatched to the pool *)
  morsel_seconds : float array;
      (** per-morsel simulated seconds: what each morsel's replayed log
          charges, in dispatch order *)
  morsel_stages : string list array;
      (** per-morsel work, in dispatch order (see {!Executor.morsels}) *)
  serial_seconds : float;  (** simulated seconds charged outside morsels *)
  total_seconds : float;   (** the meter's movement across the whole run *)
}

val run_report :
  ?obs:Rq_obs.Recorder.t ->
  ?batch_rows:int ->
  t ->
  Catalog.t ->
  Cost.t ->
  Plan.t ->
  Executor.result * report
(** {!run} plus the morsel-level timing decomposition that {!makespan}
    schedules. *)

val makespan : domains:int -> report -> float
(** Deterministic simulated wall-clock of the run on [domains] domains:
    morsels are greedily assigned, in order, to the least-loaded simulated
    domain; the serial remainder is added whole.  [makespan ~domains:1]
    equals [total_seconds] (up to float association), so
    [makespan ~domains:1 r /. makespan ~domains:n r] is a deterministic
    scheduling bound, which the parallel tests gate on; it is not a
    measured speedup.  Stable on any host, including single-core CI. *)
