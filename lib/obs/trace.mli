(** Typed trace events.

    One stream carries everything the runtime observes about a query's
    life: cardinality-guard checks, mid-query re-optimization decisions,
    statistics-fault degradations (the [Fault] taxonomy, carried as
    strings to keep this library a leaf), and statistics-maintenance
    refreshes.  Producers record through {!Recorder.record}; consumers
    read them in order next to the operator spans of the same run. *)

type event =
  | Guard_ok of { label : string; expected_rows : float; actual_rows : int; q_error : float }
      (** a cardinality checkpoint passed *)
  | Guard_fired of { label : string; expected_rows : float; actual_rows : int; q_error : float }
      (** a checkpoint's q-error bound was exceeded; the pipeline aborts *)
  | Reopt_planned of { attempt : int; label : string }
      (** a continuation search began over the materialized intermediate *)
  | Reopt_adopted of { attempt : int; plan : string }
      (** a continuation plan was adopted and execution resumed *)
  | Reopt_abandoned of { attempt : int; reason : string }
      (** no continuation (budget exhausted / remainder unplannable); the
          original plan completes guard-free *)
  | Degraded of { kind : string; subsystem : string; detail : string }
      (** an estimation-statistics tier failed its health check (the
          [Fault] taxonomy: Stale / Missing / Corrupt / Budget_exceeded) *)
  | Stats_refresh of { tables : string list }
      (** the maintenance policy rebuilt statistics *)
  | Plan_cache of { outcome : string; fingerprint : string; version : int }
      (** one plan-cache lookup or eviction: [outcome] is ["hit"],
          ["miss"], ["invalidated"] (stats version moved since the entry
          was cached — a re-optimization follows) or ["evicted"] (LRU
          capacity pressure); [version] is the live statistics version at
          the event *)
  | Rewrite_applied of { rule : string; detail : string }
      (** one logical-rewrite rule fired during the pre-enumeration
          fixpoint pass; [detail] says what the rule changed *)

val to_string : event -> string
(** One line, ["event-name: details"]. *)

val to_json : event -> Json.t
