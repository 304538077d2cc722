(** A persistent work-stealing pool of OCaml 5 domains.

    Tasks are submitted as indexed batches; every participant — the pool's
    worker domains plus the submitting caller — claims the next unclaimed
    index from a shared cursor and runs it outside the pool lock, so a
    fast domain pulls more morsels instead of idling behind a static
    partition.  Claims are issued in strictly increasing index order and a
    claimed task always runs to completion, which makes the completed set
    at any abort a contiguous prefix [0, k). *)

type t

val create : ?domains:int -> unit -> t
(** [domains] (default 1) is the total parallelism including the caller:
    [domains - 1] worker domains are spawned.  A pool of size 1 spawns
    nothing and runs every task inline on the caller, making it a true
    serial baseline over the identical code path.  Raises
    [Invalid_argument] when [domains < 1]. *)

val size : t -> int
(** The [domains] the pool was created with. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Must not be called while a batch
    is running; idempotent. *)

val iter : t -> int -> (int -> 'a) -> (int -> 'a -> unit) -> unit
(** [iter t n f consume] evaluates [f 0 .. f (n - 1)] across the pool and
    calls [consume i (f i)] on the caller, in index order, as soon as
    [f i] and every result before it are ready; while the next result is
    not ready, the caller claims tasks itself.  So the caller's consuming
    overlaps the workers' tasks.  If a task raises, the batch aborts and
    the exception of the smallest-index failed task is re-raised when the
    consumer reaches it; if [consume] raises, the batch aborts and that
    exception is re-raised.  Either way the batch settles first. *)

val run : t -> int -> (int -> 'a) -> 'a array
(** [run t n f] evaluates [f 0 .. f (n - 1)] across the pool and returns
    the results in index order.  If tasks raise, the batch aborts (no new
    claims; in-flight tasks finish) and the exception of the
    smallest-index failed task is re-raised in the caller. *)
