(** Scalar expressions over tuples.

    Sampling-based estimation works for "almost any type of query predicate,
    including arithmetic expressions, substring matches" (paper Sec. 3.2) —
    this expression language is what makes that true here: predicates are
    evaluated directly on sample tuples, so anything expressible is
    estimable. *)

open Rq_storage

type t =
  | Col of string
  | Const of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Add_days of t * int  (** date arithmetic, e.g. ['07/01/97' + ?] *)

val col : string -> t
val int : int -> t
val float : float -> t
val str : string -> t
val date : year:int -> month:int -> day:int -> t

val columns : t -> string list
(** Column names referenced, without duplicates. *)

val const_value : t -> Value.t option
(** Folds an expression with no column references to its value; [None] if
    any column is referenced. *)

type compiled = Relation.tuple -> Value.t

val compile : Schema.t -> t -> compiled
(** Resolves column positions once; raises [Not_found] for unknown columns.
    Arithmetic on Null yields Null (SQL semantics). *)

val eval : Schema.t -> t -> Relation.tuple -> Value.t

type compiled_cols = Value.t array array -> int -> Value.t
(** Columnar form: evaluate at physical row [r] of a batch's column arrays
    without materializing a tuple. *)

val compile_cols : Schema.t -> t -> compiled_cols
(** Same operations in the same order as {!compile}, so both planes compute
    bit-identical values. *)

val render : t -> string
(** Canonical one-line rendering for structural keys.  Unlike {!pp}, the
    output never depends on formatter state: equal expressions render
    identically across call sites and processes, and constants print
    exactly ({!Rq_storage.Value.to_key}), so different literals never
    render alike. *)

val pp : Format.formatter -> t -> unit
