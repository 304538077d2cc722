(** The Beta distribution.

    The posterior distribution of a selectivity inferred from a random sample
    is a Beta distribution (paper Sec. 3.3): observing [k] of [n] sample
    tuples satisfying a predicate under a Beta(a,b) prior yields
    Beta(k + a, n - k + b). *)

type t = private { alpha : float; beta : float }
(** Shape parameters; both strictly positive. *)

val create : alpha:float -> beta:float -> t
(** Raises [Invalid_argument] unless both shapes are positive and finite. *)

val posterior : prior:t -> successes:int -> trials:int -> t
(** [posterior ~prior ~successes:k ~trials:n] is the Bayesian update of a
    Beta prior with binomial evidence: Beta(k + a, n - k + b).
    Requires [0 <= k <= n]. *)

val mean : t -> float
val variance : t -> float
val std_dev : t -> float

val mode : t -> float option
(** Interior mode, defined when both shapes exceed 1. *)

val pdf : t -> float -> float

val cdf : t -> float -> float
(** Regularized incomplete beta I_x(alpha, beta). *)

val quantile : t -> float -> float
(** [quantile t p] = cdf{^-1}(p): the selectivity value s such that
    Pr[selectivity <= s] = p.  This is the paper's confidence-threshold
    lookup.  Requires [p] in [0,1]. *)

val credible_interval : t -> float -> float * float
(** [credible_interval t mass] is the equal-tailed interval containing
    [mass] posterior probability. *)

val pp : Format.formatter -> t -> unit
