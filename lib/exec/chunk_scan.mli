(** The one sequential-scan planner shared by the streaming engine (its
    scans and resumed scans, per morsel, and star-semijoin dimension
    scans) and by the optimizer's cost model: a scan becomes a list of
    per-chunk tasks, each either read (sequential pages + per-row CPU) or
    skipped because its zone map disproves the predicate (pages_skipped
    only — zero simulated seconds, zero CPU).  Because executor and cost
    model plan from the same task list, executed charges and cost
    estimates agree exactly. *)

open Rq_storage

type task = {
  ci : int;      (** chunk index *)
  lo : int;      (** first RID, inclusive (= chunk start except when resuming) *)
  hi : int;      (** last RID, exclusive *)
  pages : int;   (** sequential pages this task covers *)
  skip : bool;   (** zone map disproved the predicate for the whole chunk *)
}

val pages_upto : int -> int -> int
(** [pages_upto rows_per_page pos]: pages covering RIDs [0, pos). *)

val resume_pages : Relation.t -> from:int -> int
(** Sequential pages a scan resumed at RID [from] reads: 0 when nothing
    remains, [page_count] when [from = 0], and one page of overlap when
    [from] falls mid-page (that page really is read twice). *)

val tasks : ?from:int -> Relation.t -> Pred.t -> task list
(** In chunk order.  Page charges telescope: they sum to
    [Relation.page_count] for a fresh scan and to
    {!resume_pages} when resuming from [from] (the split page is
    re-read, as before).  [Pred.True] never consults zone maps. *)

val totals : ?from:int -> Relation.t -> Pred.t -> int * int * int
(** [(read_pages, skipped_pages, read_rows)] of {!tasks} — the
    optimizer-facing summary ([read_pages + skipped_pages = page_count]
    for a fresh scan). *)

val bitmap : Schema.t -> Pred.t -> (Chunk.t -> Bitset.t) option
(** The engine's one predicate evaluator: [None] for [Pred.True] (every
    row matches), otherwise a function computing which rows of a chunk
    satisfy the predicate — one bitset per atom, built touching only the
    atom's columns, combined by {!Pred.bitmap}.  Semantics-identical to
    [Pred.compile].  Scans run it on pinned chunks; RID fetches, the
    indexed-NL join's inner side and filters on their columns (a
    {!Chunk.of_columns} view).  Thread-safe: one bitmap function may serve
    many domains. *)
