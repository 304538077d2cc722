(** The bitset evidence kernel: cached per-atom bitmaps over one sample.

    Evaluates each atomic predicate exactly once over the sample into a
    {!Bitset}; evidence for any boolean combination is then bitwise
    AND/OR/NOT plus popcount.  Counts are bit-identical to compiling the
    whole predicate with [Pred.compile] and scanning: a bitmap
    records exactly where the compiled atom holds, and the boolean
    connectives are pointwise.  Atoms are keyed by the {!Rq_exec.Pred.t}
    value itself (structural equality, float literals exact) in a bounded
    LRU. *)

open Rq_storage
open Rq_exec

type t

val create : ?capacity:int -> Relation.t -> t
(** An index over the given (immutable) sample relation with no bitmaps
    built yet; [capacity] bounds the atom cache (default 256). *)

val rows : t -> Relation.t
val size : t -> int

val eval : t -> Pred.t -> Bitset.t
(** The exact satisfaction bitmap of the predicate, building and caching
    bitmaps for any atoms not yet indexed. *)

val count : t -> Pred.t -> int
(** [popcount (eval t pred)] — the evidence count [k]. *)

val clear : t -> unit
(** Drop all cached bitmaps (the cold arm of the kernel timing test);
    counters remain. *)

val stats : t -> Rq_obs.Metrics.kernel
(** Cumulative kernel counters for this index. *)
