(** Replayable data-state mutations over generated catalogs — what the
    fuzzer's data operator changes: rather than the query or the
    statistics, move the data itself.

    Mutations preserve catalog integrity: grown rows get fresh primary
    keys above the current maximum (and inherit the last heap row's value
    for a non-key clustering column, keeping the heap sorted); shrinking
    is refused on tables with incoming FK edges.  Everything routes
    through {!Rq_storage.Catalog.replace_table}, so indexes follow the
    new rows. *)

open Rq_storage

type t =
  | Grow of { table : string; percent : int }
      (** append [percent]% duplicated rows (at least one) with fresh
          integer primary keys *)
  | Shrink of { table : string; keep_percent : int }
      (** keep an order-preserving uniform [keep_percent]% subset; 0 is
          legal and leaves the table empty *)

val to_string : t -> string
(** [grow(table,n)] / [shrink(table,n)] — the serialization used in
    [.fuzz-repro] files. *)

val of_string : string -> (t, string) result

val growable : Catalog.t -> string list
(** Non-empty tables with an integer primary key. *)

val shrinkable : Catalog.t -> string list
(** Tables no FK edge points into. *)

val apply : Rq_math.Rng.t -> Catalog.t -> t -> (unit, string) result
(** Mutates the catalog in place.  Errors (unknown table, FK-referenced
    shrink target, keyless grow target) leave it unchanged. *)

val apply_all : Rq_math.Rng.t -> Catalog.t -> t list -> (unit, string) result
(** Left-to-right; stops at the first error. *)
