(** The statistics store: what [UPDATE STATISTICS] produces (paper
    Sec. 3.2's precomputation phase).

    Holds, per catalog: one equi-depth histogram per (table, column) for the
    baseline estimator, and one join synopsis per table with outgoing FK
    edges (plus plain samples for FK-less tables, which are their own
    degenerate synopses). *)

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
(** Rebuilds everything from the current catalog contents. *)

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

val synopsis : t -> root:string -> Join_synopsis.t option

val synopsis_roots : t -> string list
(** Roots that currently have a synopsis, sorted. *)

val with_synopsis : t -> root:string -> Join_synopsis.t option -> t
(** Copy-on-write: a store identical to [t] except the given root's
    synopsis is replaced ([Some]) or removed ([None]).  The original store
    is untouched — used by the fault-injection harness. *)

val with_histogram : t -> table:string -> column:string -> Histogram.t option -> t
(** Copy-on-write histogram replacement/removal, as {!with_synopsis}. *)

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
