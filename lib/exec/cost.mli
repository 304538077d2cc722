(** Simulated execution-cost accounting.

    The paper evaluates estimation quality by the *execution times* of chosen
    plans on a commercial DBMS.  We substitute a deterministic cost meter:
    every operator charges calibrated simulated seconds for sequential page
    reads, random page reads and CPU work.  Constants are calibrated so that
    on a 6M-row lineitem-shaped table, a sequential-scan plan costs
    ~35 s + 3.5e-6 s/row and an index-intersection plan costs
    ~5 s + 3.5e-3 s/row — the paper's Section-5.1 model — putting their
    crossover at ~0.14% selectivity.

    [scale] lets a small generated table stand in for a large logical one:
    all charges are multiplied by (logical rows / actual rows), which is
    exact because every charge is linear in data volume. *)

type constants = {
  seq_page_read_s : float;     (** per sequentially-read 8 KiB page *)
  random_page_read_s : float;  (** per random page read (one RID fetch) *)
  cpu_tuple_s : float;         (** per tuple examined (predicate eval, copy) *)
  cpu_index_entry_s : float;   (** per index entry touched in a range scan *)
  index_probe_s : float;       (** per B-tree descent *)
  hash_build_s : float;        (** per tuple inserted into a hash table *)
  hash_probe_s : float;        (** per probe of a hash table *)
  merge_tuple_s : float;       (** per tuple advanced during a merge join *)
  sort_tuple_s : float;        (** per tuple·log2(n) when an input must be sorted *)
  output_tuple_s : float;      (** per result tuple produced *)
}

val default_constants : constants

type t
(** A mutable meter. *)

val create : ?constants:constants -> ?scale:float -> unit -> t
(** [scale] defaults to 1.0 and must be positive. *)

val constants : t -> constants
val scale : t -> float

val seconds : t -> float
(** Simulated seconds accumulated so far ([(snapshot t).seconds]). *)

val charge_seq_pages : t -> int -> unit
val charge_random_pages : t -> int -> unit
val charge_pages_skipped : t -> int -> unit
(** Pages of chunks a zone map let the scan skip entirely: counter only,
    zero simulated seconds.  Deterministic (pruning depends only on data
    and predicate), so it participates in counter-parity checks. *)

val charge_cpu_tuples : t -> int -> unit
val charge_index_entries : t -> int -> unit
val charge_index_probes : t -> int -> unit
val charge_hash_build : t -> int -> unit
val charge_hash_probe : t -> int -> unit
val charge_merge_tuples : t -> int -> unit
val charge_sort : t -> int -> unit
(** [charge_sort t n] charges [sort_units (float_of_int n)] sort-tuple units. *)

val sort_units : float -> float
(** [sort_units n] = n·log2(max n 2): the work of sorting [n] tuples. *)

val charge_output_tuples : t -> int -> unit

val charge_seconds : t -> float -> unit
(** Raw charge, already in simulated seconds (still multiplied by scale). *)

(** {1 Recorded charges}

    A pipeline running on a worker domain charges a {e recording} meter:
    each [charge_*] call is handed, in call order, to a sink instead of
    moving counters.  The consumer later applies the log to the query's
    meter with {!charge}, so every charge lands in the serial engine's
    sequence with the serial engine's amount. *)

type charge =
  | Seq_pages of int
  | Random_pages of int
  | Pages_skipped of int
  | Cpu_tuples of int
  | Index_entries of int
  | Index_probes of int
  | Hash_build of int
  | Hash_probe of int
  | Merge_tuples of int
  | Sort of int  (** tuples sorted; priced as {!sort_units} *)
  | Output_tuples of int
  | Seconds of float
(** One [charge_*] call: [Seq_pages n] is [charge_seq_pages t n], and so
    on. *)

val charge : t -> charge -> unit
(** The [charge_*] function the value names. *)

val recording : (charge -> unit) -> t
(** A meter whose charges go to the sink, in call order; its own counters
    stay zero. *)

type snapshot = Rq_obs.Metrics.t = {
  seconds : float;        (** total simulated time, scale applied *)
  seq_pages : int;
  random_pages : int;
  pages_skipped : int;    (** pages of zone-map-skipped chunks (free) *)
  cpu_tuples : int;
  index_probes : int;
  index_entries : int;    (** index entries touched by range/eq probes *)
  hash_build : int;
  hash_probe : int;
  merge_tuples : int;
  sort_tuples : int;      (** tuples handed to sorts *)
  output_tuples : int;
  sort_units : float;     (** accumulated n·log2(max n 2) sort work units *)
  extra_seconds : float;  (** raw [charge_seconds] charges, scale applied *)
}
(** Every charge kind carries a counter, so [seconds] is fully
    reconcilable: {!seconds_of_counters} recomputes it from the counters
    and the meter's constants.  [sort_units] keeps the log-weighted sort
    work (the one nonlinear charge) and [extra_seconds] the raw
    {!charge_seconds} contributions, closing the accounting. *)

val snapshot : t -> snapshot
val reset : t -> unit

(** {1 Pricing}

    Seconds from a vector of counts.  The optimizer's cost model
    ([Costing]) predicts the meter's counts from estimated cardinalities
    and prices them with {!price}; {!seconds_of_counters} prices a
    snapshot the same way.  The meter's running [seconds] applies the same
    constants one charge at a time, so grading and choosing plans cannot
    use different prices. *)

type work = {
  mutable seq_pages : float;
  mutable random_pages : float;
  mutable cpu_tuples : float;
  mutable index_entries : float;
  mutable index_probes : float;
  mutable hash_build : float;
  mutable hash_probe : float;
  mutable merge_tuples : float;
  mutable sort_units : float;   (** n·log2(max n 2) per sorted input *)
  mutable output_tuples : float;
}
(** The priced counters, as floats: a prediction is fractional.  Zone-map
    skipped pages cost nothing and have no field. *)

val work : unit -> work
(** A fresh all-zero accumulator. *)

val add_scaled : work -> float -> work -> unit
(** [add_scaled w f d] adds [f] times every counter of [d] into [w]. *)

val price : constants -> scale:float -> work -> float
(** Simulated seconds of [work]: each counter times its constant, summed,
    times [scale]. *)

val seconds_of_counters : constants:constants -> scale:float -> snapshot -> float
(** [price] of the snapshot's counters plus its [extra_seconds]; matches
    [snapshot.seconds] up to float-summation-order error. *)
