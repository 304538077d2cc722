(** Types and helpers of the execution engine: the result representation,
    the guard violation it raises, and the charges of an index probe and a
    heap fetch.  The optimizer's cost model predicts those charges with
    {!leaf_pages_touched} and {!output_sorted_on} from here, and prices
    them with {!Cost.price}. *)

open Rq_storage

type result = { schema : Schema.t; tuples : Relation.tuple array }

type violation = {
  label : string;          (** the guard's label (guarded subplan shape) *)
  expected_rows : float;   (** optimizer's estimate at instrumentation time *)
  actual_rows : int;       (** rows seen when the guard fired *)
  q_error : float;         (** max(est/act, act/est), 0.5 floors *)
  result : result;         (** the rows seen so far — reusable as a
                               {!Plan.Materialized} leaf *)
  subplan : Plan.t;        (** the guarded subplan that produced them *)
  complete : bool;         (** input fully consumed: [result] is the whole
                               output (an underflow caught at drain) *)
  progress : float;        (** fraction of the input consumed, in [0, 1];
                               1.0 when [complete] *)
  resume : Plan.t option;  (** a plan computing exactly the rows NOT in
                               [result], when the source supports it (a
                               mid-scan {!Plan.Scan_resume}); [None] when
                               [complete] or the prefix is non-resumable *)
}

exception Guard_violation of violation

val qualified_schema : Catalog.t -> string -> Schema.t

val leaf_pages_touched : Index.t -> float -> float
(** Leaf pages read when [entries] contiguous entries of the index are
    scanned; at least 1 when any entry is touched.  Whole for a whole
    [entries]. *)

val find_index_exn : Catalog.t -> table:string -> column:string -> Index.t
(** Raises [Invalid_argument] when the index does not exist. *)

val probe_index : Cost.t -> Index.t -> Plan.probe -> Rid_set.t
(** One B-tree range probe: charges the descent, the entries touched and
    the leaf pages covered. *)

val output_sorted_on : Catalog.t -> Plan.t -> string option
(** Qualified clustered-key column the plan's output is physically ordered
    by, when the merge join may skip its sort; guards are transparent. *)

val resume_pages : Relation.t -> from:int -> int
(** Sequential pages a scan resumed at RID [from] reads: 0 when nothing
    remains, [page_count] when [from = 0], and one page of overlap when
    [from] falls mid-page (that page really is read twice). *)
