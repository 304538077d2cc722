(* A persistent pool of OCaml 5 domains executing indexed task batches.

   The morsel-driven scheduling discipline: a batch of [n] tasks is
   published under the pool's mutex and every participant — the spawned
   worker domains plus the submitting caller — repeatedly claims the next
   unclaimed index and runs it outside the lock.  Claiming from the shared
   cursor is the work-stealing step: no task is pre-assigned to a domain,
   so a domain that finishes early simply pulls the next morsel instead of
   idling behind a static partition.

   Claims are issued in index order, and a claimed task always runs to
   completion even when the batch aborts, so at any abort the set of
   completed tasks is exactly the contiguous prefix [0, claimed).

   An exception raised by a task aborts the batch (no further claims; tasks
   already in flight on other domains still finish) and is re-raised in the
   caller once the batch settles; when several tasks raise, the one with
   the smallest index wins, which keeps the serial-engine semantics of
   "the first failure is the failure".

   A pool of size 1 spawns no domains at all: the caller runs every task
   inline, making [--domains 1] a true serial baseline over the identical
   code path. *)

type batch = {
  total : int;
  run : int -> exn option;  (* returns the task's exception, if any *)
  mutable next : int;       (* next unclaimed index *)
  mutable live : int;       (* claimed, still running *)
  mutable aborted : bool;   (* stop claiming (failure or early exit) *)
  mutable failure : (int * exn) option;  (* smallest-index task exception *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  work : Condition.t;   (* workers: a batch was published or stop was set *)
  settled : Condition.t;  (* caller: the current batch fully settled *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.size

(* Claim and run tasks until the current batch is exhausted or aborted.
   Caller holds the mutex; returns with the mutex held. *)
let drain_batch t b =
  let rec go () =
    if b.next < b.total && not b.aborted then begin
      let i = b.next in
      b.next <- b.next + 1;
      b.live <- b.live + 1;
      Mutex.unlock t.mutex;
      let failed = b.run i in
      Mutex.lock t.mutex;
      b.live <- b.live - 1;
      (match failed with
      | None -> ()
      | Some e ->
          b.aborted <- true;
          (match b.failure with
          | Some (j, _) when j <= i -> ()
          | _ -> b.failure <- Some (i, e)));
      go ()
    end
  in
  go ();
  if b.live = 0 then Condition.broadcast t.settled

let worker t () =
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stop then Mutex.unlock t.mutex
    else begin
      (match t.batch with
      | Some b when b.next < b.total && not b.aborted -> drain_batch t b
      | _ -> Condition.wait t.work t.mutex);
      loop ()
    end
  in
  loop ()

let create ?(domains = 1) () =
  if domains < 1 then invalid_arg "Domain_pool.create: domains must be >= 1";
  let t =
    {
      size = domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      batch = None;
      stop = false;
      workers = [];
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Run [f 0 .. f (n-1)] across the pool, returning the results in index
   order.  Raises the smallest-index task exception after the batch has
   settled (all in-flight tasks finished); tasks never claimed after an
   abort are left unrun and their slots are dropped by the caller. *)
let run t n f =
  if n < 0 then invalid_arg "Domain_pool.run: negative task count";
  let results = Array.make n None in
  let b =
    {
      total = n;
      run =
        (fun i ->
          match f i with
          | v ->
              results.(i) <- Some v;
              None
          | exception e -> Some e);
      next = 0;
      live = 0;
      aborted = false;
      failure = None;
    }
  in
  Mutex.lock t.mutex;
  t.batch <- Some b;
  Condition.broadcast t.work;
  drain_batch t b;
  while b.live > 0 do
    Condition.wait t.settled t.mutex
  done;
  t.batch <- None;
  Mutex.unlock t.mutex;
  match b.failure with
  | Some (_, e) -> raise e
  | None -> Array.map Option.get results
