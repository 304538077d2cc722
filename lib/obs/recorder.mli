(** The observation substrate: per-operator spans plus a trace-event
    stream, filled in by a single execution.

    Spans are built in one way.  A {!node} is a span under construction:
    it accumulates its inclusive counter delta over any number of
    measurement windows ({!measure}), because a streaming operator is
    pulled many times and its pulls interleave with other operators'.  A
    child's windows always sit inside its parent's, so the accumulated
    totals nest exactly, and when a node tree is finished each span's
    [self] is its [total] minus its children's totals.  Because the deltas
    telescope, the [self] deltas of a run's spans sum back to the meter's
    totals — the invariant EXPLAIN ANALYZE and the reopt cost attribution
    rely on.

    A recorder may hold several root spans: mid-query re-optimization
    runs each execution attempt in its own {!scope}, so the wasted prefix
    of an aborted attempt stays attributable. *)

type span = {
  label : string;         (** operator label, e.g. ["SeqScan(lineitem)"] *)
  rows : int;             (** rows produced; -1 when the span aborted *)
  aborted : bool;         (** a window ended in an exception (guard fired) *)
  total : Metrics.t;      (** inclusive counter delta (children included) *)
  self : Metrics.t;       (** [total] minus the children's totals *)
  children : span list;   (** in execution order *)
}

type t

val create : unit -> t

(** {2 Building spans} *)

type node

val node : label:string -> node list -> node
(** A fresh node with zero counters over the given children, in order. *)

val measure : node -> meter:(unit -> Metrics.t) -> rows:('a -> int) -> (unit -> 'a) -> 'a
(** [measure n ~meter ~rows f] runs [f] as one window of [n]: the change of
    [meter ()] across [f] is added to [n]'s total and [rows] of the result
    to its row count.  If [f] raises, the delta is still added (the work
    happened and stays on the bill), [n] is marked aborted, and the
    exception propagates. *)

val credit : node -> ?aborted:bool -> rows:int -> Metrics.t -> unit
(** [credit n ~rows delta] adds one window's counter delta and rows to
    [n], as {!measure} does; [~aborted:true] marks the window as ended by
    an exception.  A pipeline that ran on another domain charged a log,
    not the meter; replaying the log into the meter, the consumer credits
    each operator's windows with this. *)

val attach : t -> node -> unit
(** Hand a finished node tree to the recorder: it becomes a child of the
    node whose {!scope} is running, if any, otherwise a root span. *)

val scope : t -> node -> meter:(unit -> Metrics.t) -> rows:('a -> int) -> (unit -> 'a) -> 'a
(** [scope t n ~meter ~rows f] is [measure n ~meter ~rows f] with [n] as
    the node that {!attach} targets while [f] runs; [n] itself is attached
    when [f] returns or raises.  Re-optimization runs each execution
    attempt in a scope, so the executor's tree sits beneath its attempt. *)

(** {2 Events and results} *)

val record : t -> Trace.event -> unit

val roots : t -> span list
(** Attached root spans, in completion order. *)

val events : t -> Trace.event list
(** In recording order. *)

val flatten : span -> span list
(** Pre-order traversal of a span tree. *)

val sum_self : span list -> Metrics.t
(** Sum of [self] deltas over the given trees (all spans, recursively);
    for the roots of one run this reconciles with the meter's snapshot. *)

val to_json : t -> Json.t
(** [{"spans": [...], "events": [...]}]. *)

val render_spans : span list -> string
(** Indented text tree: one line per span with rows, self and total
    simulated seconds, and the non-zero self counters. *)
