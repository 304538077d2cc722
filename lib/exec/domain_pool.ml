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
  finished : bool array;    (* task [i] has returned or raised *)
  mutable next : int;       (* next unclaimed index *)
  mutable live : int;       (* claimed, still running *)
  mutable aborted : bool;   (* stop claiming (failure or early exit) *)
  mutable failure : (int * exn) option;  (* smallest-index task exception *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  work : Condition.t;   (* workers: a batch was published or stop was set *)
  settled : Condition.t;  (* caller: a task of the current batch finished *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.size

let claimable b = b.next < b.total && not b.aborted

(* Claim and run the next task.  Caller holds the mutex, and holds it
   again on return. *)
let run_one t b =
  let i = b.next in
  b.next <- b.next + 1;
  b.live <- b.live + 1;
  Mutex.unlock t.mutex;
  let failed = b.run i in
  Mutex.lock t.mutex;
  b.live <- b.live - 1;
  b.finished.(i) <- true;
  (match failed with
  | None -> ()
  | Some e ->
      b.aborted <- true;
      (match b.failure with
      | Some (j, _) when j <= i -> ()
      | _ -> b.failure <- Some (i, e)));
  Condition.broadcast t.settled

(* Claim and run tasks until the current batch is exhausted or aborted. *)
let drain_batch t b =
  while claimable b do
    run_one t b
  done

let worker t () =
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stop then Mutex.unlock t.mutex
    else begin
      (match t.batch with
      | Some b when claimable b -> drain_batch t b
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

(* Run [f 0 .. f (n-1)] across the pool, handing each result to [consume]
   on the caller in index order, as soon as it and every result before it
   are ready: the caller consumes when it can and otherwise claims tasks
   itself, so consuming overlaps the workers' tasks.  A task exception
   (the smallest-index one) or a [consume] exception aborts the batch and
   is re-raised once the batch has settled (all in-flight tasks
   finished); tasks never claimed after an abort are left unrun. *)
let iter t n f consume =
  if n < 0 then invalid_arg "Domain_pool.iter: negative task count";
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
      finished = Array.make n false;
      next = 0;
      live = 0;
      aborted = false;
      failure = None;
    }
  in
  Mutex.lock t.mutex;
  t.batch <- Some b;
  Condition.broadcast t.work;
  let consumed = ref 0 and raised = ref None in
  while !consumed < n && !raised = None do
    let i = !consumed in
    if b.finished.(i) then begin
      match results.(i) with
      | None ->
          (* Task [i] raised: the smallest failed index, since tasks are
             claimed in order and consumed in order. *)
          raised := Option.map snd b.failure
      | Some v -> (
          results.(i) <- None;
          Mutex.unlock t.mutex;
          let outcome = match consume i v with () -> None | exception e -> Some e in
          Mutex.lock t.mutex;
          match outcome with
          | None -> incr consumed
          | Some e ->
              b.aborted <- true;
              raised := Some e)
    end
    else if claimable b then run_one t b
    else Condition.wait t.settled t.mutex
  done;
  while b.live > 0 do
    Condition.wait t.settled t.mutex
  done;
  t.batch <- None;
  Mutex.unlock t.mutex;
  Option.iter raise !raised

(* [iter], collecting the results in index order. *)
let run t n f =
  if n < 0 then invalid_arg "Domain_pool.run: negative task count";
  let results = Array.make n None in
  iter t n f (fun i v -> results.(i) <- Some v);
  Array.map Option.get results
