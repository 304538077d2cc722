(** Join synopses (Acharya et al. [1], as used in paper Sec. 3.2).

    The join synopsis for relation R is a uniform random sample of the
    "maximal" foreign-key join rooted at R: sample R, join each sample tuple
    with the full relations R references, recursively.  Because each R-tuple
    matches exactly one tuple in each referenced table (FK integrity), the
    result is a uniform sample of that join, and projecting it onto any
    sub-join rooted at R gives a uniform sample of *that* join.  This is
    what lets the estimator evaluate a multi-table predicate on a single
    sample with no independence assumption and no error build-up.

    Columns in a synopsis are qualified as ["table.column"]. *)

open Rq_storage
open Rq_exec

type t

val build :
  ?follow_fks:bool -> ?lenient:bool -> Rq_math.Rng.t -> Catalog.t ->
  size:int -> root:string -> t
(** Samples the root and follows every outgoing FK edge transitively.
    With [~follow_fks:false] the synopsis degenerates to a plain
    single-table sample (covering only the root) — the Sec.-3.5 situation
    where join synopses are unavailable but per-table samples exist.
    An empty root yields an empty synopsis (evidence [(0, 0)]).
    Raises [Invalid_argument] if an FK value has no match (broken
    referential integrity) or the root is unknown.  With [~lenient:true]
    (the statistics-maintenance setting) a dangling root row is dropped
    from the sample instead — a root row with no referenced tuple is not
    part of the maximal join, so when a referenced table empties out the
    synopsis degrades toward empty rather than aborting the rebuild. *)

val root : t -> string

val tables : t -> string list
(** Root first, then every table reachable from it via FK edges. *)

val covers : t -> string list -> bool
(** Whether all the given tables appear in this synopsis. *)

val sample : t -> Sample.t
(** The synopsis rows (schema: concatenation of the qualified schemas of
    [tables t]). *)

val size : t -> int

val root_size : t -> int
(** Rows in the root relation; any FK-join expression rooted at R has true
    cardinality selectivity · root_size. *)

val evidence : t -> Pred.t -> int * int
(** [(k, n)] for a predicate over qualified columns of covered tables.
    Answered by the bitset evidence kernel ({!Pred_index}): each atomic
    predicate is scanned at most once per synopsis, then combined
    bitwise — bit-identical to counting the sample rows that satisfy
    [Pred.compile] of the whole predicate. *)

val matching_rows : t -> Pred.t -> Relation.tuple Seq.t
(** The sample rows satisfying [pred], lazily walked off the kernel's
    satisfaction bitmap one chunk at a time — the streaming input to
    GROUP-BY distinct estimation; at most one chunk's matches are live. *)

val kernel_stats : t -> Rq_obs.Metrics.kernel
(** Cumulative kernel counters; all-zero if no evidence query has forced
    the kernel yet. *)

val clear_kernel : t -> unit
(** Drop any cached bitmaps (cold timing runs); a no-op if the kernel
    was never forced. *)

(** {2 Tamper hooks}

    Used only by the fault-injection harness ({!Fault}) to manufacture
    damaged statistics; they alter contents while keeping the synopsis
    metadata (root, covered tables) intact. *)

val with_rows : t -> Relation.tuple array -> t
(** Same synopsis with the sample rows replaced (schema unchanged). *)

val truncate : t -> int -> t
(** Keep only the first [n] sample rows ([n = 0] empties the sample). *)

val with_root_size : t -> int -> t
(** Override the recorded root-relation size (staleness skew: the synopsis
    claims a population that no longer matches the live table). *)
