(** Executor bench ([robustopt bench-exec]).

    Runs five fixed physical plans over the TPC-H-lite catalog, each next
    to a full drain of the same plan with its LIMIT or guard stripped:
    LIMIT-over-scan and LIMIT-over-join (must charge strictly fewer pages
    than the full drain), a mid-stream guard firing (stops scanning at the
    first overflowing batch), a full-drain join (its re-run must move every
    cost counter identically), and a zone-map skip scan.  Also measures real
    wall time, allocation and GC peak live words per arm.

    The [domains] axis runs the morsel-parallel executor ({!Rq_exec.Parallel})
    over the same catalog: every point of the axis must reproduce the serial
    engine's result tuples and cost counters exactly, the
    deterministic simulated makespan at [config.domains] must beat one
    domain by at least [config.min_scan_speedup] on the scan-morsel
    workload, and a guard tuned to fire mid-scan must recover via
    [Append [Materialized prefix; resume]]. *)

open Rq_exec

type config = {
  seed : int;
  scale_factor : float;
  repetitions : int;
  domains : int;              (** top of the morsel-parallel domains axis *)
  min_scan_speedup : float;
      (** gate: simulated scan-morsel speedup at [domains] over one domain *)
  buffer_pool_pages : int;
      (** global buffer-pool capacity in 8 KiB pages; 0 keeps the process
          default.  Capping it well below the data size is how the bench
          demonstrates out-of-core execution. *)
  exact_compare : bool;
      (** compare parallel arms against the serial engine tuple-by-tuple;
          when false (bench scale), an order-insensitive streaming multiset
          digest is compared instead so two result sets are never live at
          once *)
}

val default_config : config
val small_config : config
(** CI-sized: smaller catalog, fewer repetitions. *)

type workload = {
  name : string;
  plan : Plan.t;
  early_exit : bool;
  zone_skip : bool;
      (** the scan must skip whole chunks via zone maps: [pages_skipped > 0]
          and [seq_pages + pages_skipped] = the table's page count *)
}

type arm = {
  snapshot : Cost.snapshot;
  rows : int;            (** rows produced (partial rows for a fired guard) *)
  fired : bool;
  wall_ms : float;       (** mean wall-clock per run *)
  allocated_mb : float;  (** mean bytes allocated per run *)
  peak_live_words : int; (** max live heap words seen during the runs *)
}

type comparison = {
  workload : workload;
  streaming : arm;
  full_drain : arm;       (** the same plan with its LIMIT and guards stripped *)
  pages_saved : int;      (** pages the full drain charged but the plan did not *)
  counters_equal : bool;  (** every integer cost counter identical *)
  wl_ok : bool;
}

type parallel_arm = {
  p_domains : int;
  makespan_s : float;  (** deterministic simulated makespan on [p_domains] domains *)
  p_speedup : float;   (** makespan at 1 domain / makespan at [p_domains] *)
  p_wall_ms : float;   (** real wall time of the parallel run (informational) *)
}

type parallel_check = {
  p_name : string;
  morsels : int;
  identical : bool;
      (** result tuples and every cost counter identical to the serial
          engine at every point of the axis *)
  recovered : bool;
      (** guard workload: fired mid-scan and prefix + resume replayed to
          the full result *)
  arms : parallel_arm list;
  p_ok : bool;
}

type result = {
  config : config;
  comparisons : comparison list;
  parallel : parallel_check list;
  buffer_pool : Rq_storage.Buffer_pool.stats;
      (** global pool traffic over the bench queries (reset after catalog
          generation) — hits, misses, evictions, hit rate *)
  ok : bool;
}

val run : ?config:config -> unit -> result
(** [ok] is false when an early-exit workload saved no pages against its
    full drain, a full-drain workload's re-run moved a counter differently,
    the zone-skip workload skipped nothing (or its read + skipped pages
    missed the table's page count), a parallel run failed to reproduce the
    serial result exactly, the scan-morsel speedup gate missed, the
    parallel guard failed to recover, or the buffer pool reported no
    traffic at all. *)

val to_json : result -> Rq_obs.Json.t
val render : result -> string
