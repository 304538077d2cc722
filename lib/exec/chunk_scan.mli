(** The one sequential-scan planner shared by the streaming engine (its
    scans, resumed scans, morsel prefetch and star-semijoin dimension
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

val tasks : ?from:int -> Relation.t -> Pred.t -> task list
(** In chunk order.  Page charges telescope: they sum to
    [Relation.page_count] for a fresh scan and to
    [Exec_common.resume_pages] when resuming from [from] (the split page
    is re-read, as before).  [Pred.True] never consults zone maps. *)

val totals : ?from:int -> Relation.t -> Pred.t -> int * int * int
(** [(read_pages, skipped_pages, read_rows)] of {!tasks} — the
    optimizer-facing summary ([read_pages + skipped_pages = page_count]
    for a fresh scan). *)

val bitmap : Schema.t -> Pred.t -> (Chunk.t -> Bitset.t) option
(** The per-chunk match bitmap underlying {!matcher}: [None] for
    [Pred.True] (every row matches), otherwise a function computing which
    chunk rows satisfy the predicate — for callers that slice chunks into
    batches and want the bitmap computed once per chunk. *)

val matcher :
  Schema.t -> Pred.t -> Chunk.t -> (int -> Value.t array -> unit) -> unit
(** [matcher schema pred] precompiles the predicate into a per-chunk
    bitmap filter: one bitset per atomic predicate built touching only the
    columns the atom references, combined word-wise per the boolean
    structure.  The returned function calls [f] with (chunk-relative row,
    tuple) for each matching row in ascending order; [Pred.True]
    short-circuits to a plain chunk iteration.  Semantics-identical to
    [Pred.compile].  Thread-safe: one matcher may serve many domains. *)
