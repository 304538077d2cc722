(** Fixed-length bitsets over packed int64 words — the evidence kernel's
    representation of "which synopsis rows satisfy this predicate".

    All binary operations require equal lengths.  Bits beyond the logical
    length are kept zero, so {!popcount} and {!equal} are exact. *)

type t

val create : int -> t
(** All-zeros bitset of the given length.  Raises on negative length. *)

val full : int -> t
(** All-ones bitset of the given length. *)

val of_pred : len:int -> (int -> bool) -> t
(** [of_pred ~len f] sets bit [i] iff [f i] — the per-chunk atom kernel
    behind scans and evidence bitmaps. *)

val length : t -> int

val words : t -> int
(** Number of 64-bit words backing the set ([ceil (length / 64)]). *)

val set : t -> int -> unit
val get : t -> int -> bool

val logand : t -> t -> t
val logor : t -> t -> t

val lognot : t -> t
(** Complement within [length] (tail bits stay zero). *)

val popcount : t -> int

val count_and : t -> t -> int
(** [popcount (logand a b)] without materializing the intersection. *)

val equal : t -> t -> bool

val iter_set : (int -> unit) -> t -> unit
(** Calls [f] on each set bit in ascending order; cost is proportional to
    the number of set bits plus the word count. *)

val window : int -> lo:int -> hi:int -> t
(** [window len ~lo ~hi] has exactly the bits in [lo, hi) set — the
    selection a scan batch covering that row range starts from.  Raises on
    an out-of-bounds or inverted range. *)

val inter_window : t -> lo:int -> hi:int -> t
(** [inter_window b ~lo ~hi] is [logand b (window (length b) ~lo ~hi)]
    without materializing the window — restricting a per-chunk predicate
    bitmap to one batch's row range costs only the range's words. *)

val take : t -> int -> t
(** [take b k] keeps the first [k] set bits of [b] (all of them when
    [k >= popcount b]) — a LIMIT cutting a selection short. *)
