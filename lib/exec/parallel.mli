(** Morsel-driven parallel execution on OCaml 5 domains.

    {!run} is {!Stream_exec.run} with a morsel prefetcher on the executor's
    {!Domain_pool}: sequential scans (and resumed scans) hand their next
    [domains] morsels — chunk-aligned row ranges — to the pool, whose
    workers pin each read chunk and compute its predicate bitmap.  The scan
    consumes the bitmaps in order through its unchanged serial loop, which
    does all charging, window slicing, selection, progress and resume;
    workers never touch the {!Cost} meter.  Results, every cost counter,
    guard fire points and [Scan_resume] positions are therefore identical
    to {!Executor.run}'s at any domain count, and the span tree is the
    serial engine's. *)

open Rq_storage

type t
(** A parallel executor bound to a domain pool. *)

val create : ?domains:int -> unit -> t
(** [domains] defaults to 1 (serial over the identical code path). *)

val domains : t -> int
val shutdown : t -> unit

val run :
  ?obs:Rq_obs.Recorder.t -> t -> Catalog.t -> Cost.t -> Plan.t -> Exec_common.result
(** Execute the plan, charging the meter exactly as {!Executor.run} does.
    Raises {!Exec_common.Guard_violation} when a guard fires. *)

type report = {
  morsels : int;           (** morsels dispatched to the pool *)
  morsel_seconds : float array;
      (** per-morsel simulated seconds: the scan charges for each morsel's
          rows, in dispatch order *)
  serial_seconds : float;  (** simulated seconds charged outside morsels *)
  total_seconds : float;   (** the meter's movement across the whole run *)
}

val run_report :
  ?obs:Rq_obs.Recorder.t ->
  t ->
  Catalog.t ->
  Cost.t ->
  Plan.t ->
  Exec_common.result * report
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
