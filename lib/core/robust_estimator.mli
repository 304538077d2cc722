(** The robust selectivity estimation procedure (paper Sec. 3.4).

    Given sample evidence (k of n tuples satisfy the predicate):
    1. infer the posterior selectivity distribution via Bayes's rule, and
    2. return its cdf{^-1}(T) for the active confidence threshold T,
    producing a single-value estimate an unmodified optimizer can consume.

    Also provides the Sec.-3.5 fallbacks for expressions with no usable
    sample: the "magic distribution" (a fixed prior interpreted at the same
    confidence threshold, so the magic number moves with T) and the plain
    magic constant. *)

open Rq_math

type t = { prior : Prior.t; confidence : Confidence.t }

val create : ?prior:Prior.t -> confidence:Confidence.t -> unit -> t

val default : t
(** Jeffreys prior at the moderate (80%) threshold. *)

val posterior : t -> successes:int -> trials:int -> Posterior.t

val estimate : t -> successes:int -> trials:int -> float
(** The headline operation: selectivity = posterior quantile at the
    confidence threshold. *)

val magic_distribution : Beta.t
(** Beta(1, 9): mean 10%, the classic magic number, with mass spread so the
    estimate responds to the confidence threshold. *)

val estimate_no_statistics : t -> float
(** cdf{^-1}(T) of [magic_distribution]. *)

val magic_selectivity : float
(** The plain constant 0.10 used when even the magic distribution is
    disabled. *)

val expected_value_estimate : successes:int -> trials:int -> ?prior:Prior.t -> unit -> float
(** Posterior-mean estimate (k+a)/(n+a+b) — the least-expected-cost-style
    baseline used in the ablation bench. *)

val maximum_likelihood_estimate : successes:int -> trials:int -> float
(** k/n, the frequentist baseline of Acharya et al. [1]. *)
