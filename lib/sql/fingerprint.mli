(** Canonical query fingerprints — the plan-cache key.

    A fingerprint is a normalized rendering of a bound {!Rq_optimizer.Logical.t}
    plus the identity of the estimator that will optimize it.  Two queries
    that can always share a plan fingerprint equally:

    - table order is normalized away (the join structure depends only on
      the table set and the catalog's FK edges);
    - predicate order is normalized away (conjuncts/disjuncts are
      flattened and sorted, and the operands of the commutative [=]/[<>]
      comparisons are ordered);
    - literals are rendered exactly (floats in a form that parses back,
      {!Rq_storage.Value.to_key}) and folded into the key (then hashed),
      so distinct constants — and hence potentially distinct best plans —
      never collide.

    Conversely, anything that can change the chosen plan is part of the
    key: grouping, aggregates, projection, ordering, limit, and the active
    estimator's identity (name and confidence threshold) — a conservative
    95%-confidence plan must not be served to an aggressive 50% query.

    Fingerprinting is pure: equal inputs yield equal keys across calls and
    processes (no session state, no randomness). *)

type t

val of_logical :
  ?estimator:string -> ?confidence:Rq_core.Confidence.t -> Rq_optimizer.Logical.t -> t
(** [estimator] defaults to [""] and [confidence] to absent — callers
    caching across estimator configurations must pass both. *)

val to_key : t -> string
(** The full canonical key.  Cache lookups compare this string, so hash
    collisions can never serve a wrong plan. *)

val hash : t -> int
(** Stable FNV-1a digest of {!to_key} (same input, same hash, across
    processes — unlike [Hashtbl.hash] on boxed values). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
