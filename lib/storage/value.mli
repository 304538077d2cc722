(** Scalar values stored in relations.

    Dates are days since 1970-01-01 (negative allowed), which makes the
    BETWEEN-with-offset templates of the paper's experiments (e.g.
    ['07/01/97' + ?]) plain integer arithmetic. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int  (** days since epoch *)

type ty = T_bool | T_int | T_float | T_string | T_date

val type_of : t -> ty option
(** [None] for [Null]. *)

val compare : t -> t -> int
(** Total order: Null < Bool < Int/Float (numerically, mixed allowed) <
    String < Date.  Int and Float compare numerically against each other so
    predicates over numeric columns behave like SQL. *)

val equal : t -> t -> bool

val is_null : t -> bool

val to_float : t -> float
(** Numeric coercion of Int/Float/Date/Bool; raises [Invalid_argument] on
    String and Null. *)

val add_days : t -> int -> t
(** Shift a [Date]; raises [Invalid_argument] otherwise. *)

val date_of_ymd : year:int -> month:int -> day:int -> t
(** Civil date -> [Date] (proleptic Gregorian; Howard Hinnant's algorithm). *)

val ymd_of_date : t -> int * int * int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** For display: floats print with [%g], six significant digits. *)

val to_key : t -> string
(** {!to_string}, except that a float prints in a form that parses back
    to the same float ([%g] when that round-trips, else [%.17g]), so two
    different values never print alike.  For structural keys:
    {!Rq_exec.Expr.render} and GEE group keys. *)

val pp_ty : Format.formatter -> ty -> unit
val ty_to_string : ty -> string

val byte_width : ty -> int
(** Storage width used for page-geometry accounting (String uses a fixed
    average width). *)
