(** Statistics maintenance: keeping samples and histograms fresh as the
    data changes.

    The paper's precomputation phase runs "periodically whenever a
    sufficient number of database modifications have occurred" (Sec. 3.2).
    This module implements that policy: it owns the current statistics
    store, counts modified rows per table (via the batched
    {!apply_update} mutation path), and rebuilds statistics when the
    accumulated modifications exceed a configurable fraction of the
    database — the same trigger rule commercial systems use. *)

open Rq_storage

type t

val create :
  ?config:Stats_store.config ->
  ?refresh_fraction:float ->
  ?obs:Rq_obs.Recorder.t ->
  Rq_math.Rng.t ->
  Catalog.t ->
  t
(** [refresh_fraction] (default 0.2) is the fraction of a table's rows
    that must change before its statistics are considered stale.  With
    [?obs], every rebuild records a [Stats_refresh] trace event naming the
    tables whose modifications triggered it. *)

val catalog : t -> Catalog.t

val stats : t -> Stats_store.t
(** The current statistics — possibly stale, exactly as an optimizer would
    see them. *)

val modifications_since_refresh : t -> table:string -> int

val is_stale : t -> bool
(** Whether any table has crossed the refresh threshold. *)

val apply_update :
  t -> table:string -> (Relation.tuple array -> Relation.tuple array) -> unit
(** Batched mutation: replaces the table's rows with the function's output
    (same schema) through {!Rq_storage.Catalog.replace_table}, which
    patches its indexes (an index on an unchanged column is kept as is),
    and counts one modification per
    positionally-changed row (physical inequality: an updated row is a
    fresh tuple array) plus net growth or shrinkage.  Callers applying
    reorderings or out-of-band changes can use {!record_modifications}
    directly. *)

val record_modifications : t -> table:string -> int -> unit
(** Count externally-applied modifications toward staleness. *)

val refresh : t -> unit
(** Force an immediate statistics rebuild and reset the counters. *)

val maybe_refresh : t -> bool
(** Rebuild iff stale; returns whether a rebuild happened.  The normal
    call after each batch of updates. *)
