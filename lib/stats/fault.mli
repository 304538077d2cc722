(** Deterministic fault injection for statistics, and the structured error
    taxonomy the graceful-degradation estimation chain is driven by.

    The paper's robust estimator assumes its sample is a faithful picture of
    the data.  This module manufactures the ways that assumption breaks in
    production — statistics dropped, truncated below usefulness, gone stale
    against a mutated table, or outright corrupted — so tests can assert
    that every degradation path still yields a plan.  All randomness comes
    from the seeded {!Rq_math.Rng}, so every fault scenario is replayable. *)

open Rq_storage

type kind =
  | Stale            (** statistics no longer reflect the live table *)
  | Missing          (** statistics absent or truncated below usefulness *)
  | Corrupt          (** statistics fail an internal consistency check *)
  | Budget_exceeded  (** the optimizer ran out of its enumeration budget *)

type event = { kind : kind; subsystem : string; detail : string }
(** One structured degradation report: which check failed, where, and why.
    The estimation chain emits these instead of raising. *)

val kind_to_string : kind -> string
val event_to_string : event -> string

(** {2 Injections} *)

type injection =
  | Drop_synopsis of string                             (** root *)
  | Truncate_synopsis of { root : string; keep : int }
  | Corrupt_synopsis of string
      (** poisons one randomly chosen column per sample row with a
          type-mismatched value *)
  | Skew_synopsis of { root : string; factor : float }
      (** staleness: the recorded root size is multiplied by [factor], as if
          the synopsis were built against a table that has since changed *)
  | Drop_histogram of { table : string; column : string }
  | Dangling_fk of { root : string; break : int }
      (** breaks referential integrity inside the synopsis: the first
          [break] sample rows get a type-correct FK-side key that no longer
          matches the dimension key in the same row — invisible to the
          schema-type check, caught only by FK verification (classified
          [Corrupt], distinct from the whole-synopsis poisoning of
          [Corrupt_synopsis]).  No-op on single-table synopses. *)

val injection_to_string : injection -> string

val injection_to_json : injection -> Rq_obs.Json.t
val injection_of_json : Rq_obs.Json.t -> (injection, string) result
(** Round-trippable encoding used by the fuzzer's replayable [.fuzz-repro]
    files. *)

val apply : Rq_math.Rng.t -> Stats_store.t -> injection list -> Stats_store.t
(** Copy-on-write: returns a damaged store, leaves the input untouched. *)

(** {2 Verification} *)

val verify_synopsis : Catalog.t -> Join_synopsis.t -> (unit, event) result
(** Health check a consumer runs before trusting a synopsis: empty or
    truncated samples are [Missing]; a recorded root size drifted more than
    2x from the live table (or a vanished root) is [Stale]; schema-type
    violations and broken FK links inside sample rows are [Corrupt].  The
    check reads at most 50 rows and never evaluates user predicates, so it
    cannot itself crash on damaged contents. *)

(** {2 Named profiles (CLI [--fault-profile])} *)

val profile_names : string list
(** ["none"; "missing"; "truncate"; "corrupt"; "stale"; "dangling-fk";
    "chaos"]. *)

val profile_injections :
  Rq_math.Rng.t -> Stats_store.t -> string -> (injection list, string) result
(** Expands a profile name against the store's current synopsis roots;
    [chaos] picks a random fault per root and drops some histograms. *)
