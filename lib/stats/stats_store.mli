(** The statistics store: what [UPDATE STATISTICS] produces (paper
    Sec. 3.2's precomputation phase).

    Holds, per catalog: one equi-depth histogram per (table, column) for the
    baseline estimator, and one join synopsis per table with outgoing FK
    edges (plus plain samples for FK-less tables, which are their own
    degenerate synopses).

    Join synopses are built by {!update_statistics}.  Histograms are built
    on first use ({!histogram}), each from its relation as it was when
    {!update_statistics} ran: the robust estimator reads only synopses, so
    a store it alone reads never builds a histogram. *)

open Rq_storage
open Rq_exec

type config = {
  sample_size : int;          (** tuples per synopsis; paper default 500 *)
  synopsis_roots : string list option;
      (** [None] = every table (Sec. 3.5 discusses partial coverage) *)
  follow_foreign_keys : bool;
      (** [false] keeps only single-table samples: joins must then fall
          back to AVI over per-table estimates (Sec. 3.5, first case) *)
}

val default_config : config

type t

val update_statistics : Rq_math.Rng.t -> ?config:config -> Catalog.t -> t
(** Rebuilds everything from the current catalog contents: draws every
    join synopsis now, and records for each (table, column) a histogram
    to be built on first use from the relation value the catalog holds
    now.  A later {!Catalog.replace_table} (e.g. {!Maintenance.apply_update})
    does not change what those histograms describe. *)

val catalog : t -> Catalog.t
val config : t -> config

val version : t -> int
(** Monotonic statistics version.  Strictly increases across every store
    built in this process: {!update_statistics} (and hence every
    {!Maintenance} refresh) stamps a fresh version, and each copy-on-write
    derivation ({!with_synopsis}, {!with_histogram} — the primitives behind
    {!Fault.apply}) advances it again.  A consumer that recorded the
    version at plan time can detect any statistics change since — the
    invalidation rule of {!Rq_optimizer.Plan_cache}. *)

val table_version : t -> string -> int
(** The version of the last statistics change that touched this table: the
    store version for tables untouched since the last full rebuild, newer
    for tables whose synopsis or histograms were swapped copy-on-write.
    Unknown tables conservatively report the store version.  A full
    rebuild ({!update_statistics}) redraws every sample, so it advances
    every table's version — per-table granularity only helps consumers
    survive targeted (per-root) synopsis/histogram swaps. *)

val histogram : t -> table:string -> column:string -> Histogram.t option
(** The column's histogram, built on the first call from the relation as
    it was at {!update_statistics} and kept.  Safe from several domains at
    once: builds run one at a time under the store's lock, and every
    caller sees the same (physically equal) histogram.  [None] if the
    store has none for the column (unknown, or removed by
    {!with_histogram}). *)

val has_histogram : t -> table:string -> column:string -> bool
(** Whether {!histogram} would answer [Some], without building anything:
    the degradation chain's presence check. *)

val histograms_built : t -> int
(** How many histograms this store's {!update_statistics} has built so
    far, counted across every store derived from it ({!with_synopsis},
    {!with_histogram}).  A store only the robust estimator reads stays
    at 0. *)

val synopsis : t -> root:string -> Join_synopsis.t option

val synopsis_roots : t -> string list
(** Roots that currently have a synopsis, sorted. *)

val with_synopsis : t -> root:string -> Join_synopsis.t option -> t
(** Copy-on-write: a store identical to [t] except the given root's
    synopsis is replaced ([Some]) or removed ([None]).  The original store
    is untouched — used by the fault-injection harness. *)

val with_histogram : t -> table:string -> column:string -> Histogram.t option -> t
(** Copy-on-write histogram replacement ([Some], installed already built)
    or removal ([None]), as {!with_synopsis}.  Other columns' histograms
    are shared with [t], built or not. *)

val synopsis_for : t -> string list -> Join_synopsis.t option
(** The synopsis able to answer an SPJ expression over the given tables:
    rooted at the expression's root relation (the one whose primary key is
    not joined to), covering all tables.  [None] if the root has no
    synopsis (the no-statistics fallback case, Sec. 3.5). *)

val root_of_expression : Catalog.t -> string list -> string option
(** The root relation of a table set: the unique table in the set that is
    not referenced by any FK edge from another table in the set.  [None] if
    ambiguous or disconnected. *)

val histogram_selectivity : t -> table:string -> Pred.t -> float
(** Baseline per-table selectivity: decomposes the predicate into
    conjuncts, estimates each single-column conjunct from that column's
    histogram, falls back to textbook magic numbers (1/10 equality, 1/3
    range/other) for unsupported shapes, and multiplies the results — the
    attribute value independence assumption in action. *)
