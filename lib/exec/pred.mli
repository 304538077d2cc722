(** Boolean predicates over tuples (conjunctions, comparisons, BETWEEN,
    substring match).

    Predicates are evaluated both by the executor (to produce query results)
    and by the estimators (on histogram buckets or sample tuples). *)

open Rq_storage

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of cmp * Expr.t * Expr.t
  | Between of Expr.t * Expr.t * Expr.t  (** [Between (e, lo, hi)] = lo <= e <= hi *)
  | Contains of Expr.t * string          (** substring match *)
  | And of t list
  | Or of t list
  | Not of t

val eq : Expr.t -> Expr.t -> t
val lt : Expr.t -> Expr.t -> t
val le : Expr.t -> Expr.t -> t
val gt : Expr.t -> Expr.t -> t
val ge : Expr.t -> Expr.t -> t
val between : Expr.t -> Expr.t -> Expr.t -> t
val conj : t list -> t
(** Conjunction, flattening nested [And]s and dropping [True]. *)

val columns : t -> string list
(** Referenced column names, deduplicated. *)

val conjuncts : t -> t list
(** Top-level conjuncts ([t] itself when not a conjunction). *)

val bitmap : atom:('a -> t -> Bitset.t) -> 'a -> len:int -> t -> Bitset.t
(** [bitmap ~atom x ~len p] is the [len]-bit bitmap of the rows of [x]
    where [p] holds, combining [atom x a] of each atom [a] word-wise per
    [p]'s And/Or/Not ([True]: all ones, [False]: all zeros).  The one
    And/Or/Not fold over bitmaps: the scan kernel ({!Chunk_scan.bitmap})
    and the evidence kernel both use it.  Equals {!compile} row by row
    when each atom's bitmap does.  May return an [atom] bitmap itself. *)

type compiled = Relation.tuple -> bool

val compile : Schema.t -> t -> compiled
(** Comparisons involving Null are false (SQL three-valued logic collapsed
    to WHERE semantics: only TRUE qualifies). *)

val eval : Schema.t -> t -> Relation.tuple -> bool

val rename_columns : (string -> string) -> t -> t
(** Rewrites every column reference (used to qualify base-table predicates as
    ["table.column"] above joins). *)

val render : t -> string
(** Canonical one-line rendering for structural keys
    ({!Rq_sql.Fingerprint}): nested And/Or flattened, operand lists sorted,
    [=]/[<>] operands ordered, literals printed exactly
    ({!Expr.render}).  Predicates equal modulo conjunct order and
    comparison commutation render identically, different literals never
    do, and the output never depends on formatter state. *)

val pp : Format.formatter -> t -> unit
