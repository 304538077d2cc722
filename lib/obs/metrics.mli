(** Per-operator resource counters.

    This record is the executor's cost-meter snapshot ([Rq_exec.Cost]
    re-exports it as [Cost.snapshot]); it lives in this dependency-free
    library so spans can carry it without a cycle.  A span stores the
    *delta* of these counters across an operator's execution; deltas are
    closed under {!add}/{!sub}, and the integer counters subtract exactly,
    so per-span deltas reconcile against the meter's totals. *)

type t = {
  seconds : float;        (** simulated seconds, scale applied *)
  seq_pages : int;
  random_pages : int;
  pages_skipped : int;    (** pages of chunks a zone map let the scan skip *)
  cpu_tuples : int;
  index_probes : int;
  index_entries : int;    (** index entries touched in range/eq probes *)
  hash_build : int;
  hash_probe : int;
  merge_tuples : int;
  sort_tuples : int;      (** tuples handed to a sort *)
  output_tuples : int;
  sort_units : float;     (** accumulated n·log2(max n 2) sort work units *)
  extra_seconds : float;  (** raw [charge_seconds] charges, scale applied *)
}

val zero : t
val add : t -> t -> t
val sub : t -> t -> t

val approx_equal : ?tolerance:float -> t -> t -> bool
(** Integer counters must match exactly; float fields within [tolerance]
    (default 1e-9). *)

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
(** Compact one-line rendering; zero counters are omitted. *)

(** {2 Evidence-kernel counters}

    Work accounting for the bitset evidence kernel (optimizer-side CPU,
    distinct from the simulated execution cost above): bitmaps
    materialized vs. served from cache, and the row evaluations the
    bitwise path avoided relative to a row-scan implementation. *)

type kernel = {
  bitmaps_built : int;      (** atomic predicate bitmaps materialized *)
  bitmap_hits : int;        (** atoms served from the bitmap cache *)
  bitmap_evictions : int;   (** atoms dropped by the bounded cache *)
  evidence_queries : int;   (** count/popcount requests answered *)
  rows_scanned : int;       (** row evaluations paid building bitmaps *)
  rows_scan_avoided : int;  (** row evaluations a scan path would have paid *)
}

val kernel_zero : kernel
val kernel_add : kernel -> kernel -> kernel
val kernel_to_json : kernel -> Json.t
val pp_kernel : Format.formatter -> kernel -> unit

