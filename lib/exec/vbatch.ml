(* A column-major vector batch with a selection bitset — the unit of data
   flow in the streaming engine.

   [cols] are shared, never-mutated column arrays (for scan batches they
   are the pinned chunk's own columns, zero-copy; eviction after unpin only
   drops the pool's reference, the GC keeps shared columns alive).  [sel]
   picks out the live rows among the [n_rows] physical rows; the logical
   content of a batch is exactly its selected rows in ascending physical
   order.  Producers never emit a batch with an empty selection.

   A column no operator downstream reads may be pruned: it is the empty
   array, never decoded from a spilled chunk, and materializes as [Null].
   Batches are never empty, so a live column always has length >= 1 and
   "pruned" is tested by length, not by physical equality.

   Rows are materialized as tuples only at final output and in a fired
   guard's buffer; every operator builds its batches from columns, and
   breakers and joins gather columns by row index.  Late materialization is where the wall-clock win
   comes from; the cost counters never see the difference because they
   charge logical rows, not representation. *)

open Rq_storage

type t = {
  cols : Value.t array array;  (* cols.(c).(r), each length >= n_rows or 0 (pruned) *)
  n_rows : int;                (* physical rows covered by [sel] *)
  sel : Bitset.t;              (* length = n_rows; the live rows *)
}

let selected t = Bitset.popcount t.sel

let pruned col = Array.length col = 0

let of_chunk chunk ~keep ~sel =
  let cols = Array.mapi (fun c kept -> if kept then Chunk.column chunk c else [||]) keep in
  { cols; n_rows = Chunk.n_rows chunk; sel }

(* Physical indices of the selected rows, ascending. *)
let selected_rows t =
  let out = Array.make (selected t) 0 in
  let j = ref 0 in
  Bitset.iter_set
    (fun i ->
      out.(!j) <- i;
      incr j)
    t.sel;
  out

let gather col idx k =
  if pruned col then col
  else begin
    let dst = Array.make k col.(idx.(0)) in
    for j = 1 to k - 1 do
      dst.(j) <- col.(idx.(j))
    done;
    dst
  end

let to_tuples t =
  let k = selected t in
  let arity = Array.length t.cols in
  let out = Array.make k [||] in
  let j = ref 0 in
  Bitset.iter_set
    (fun i ->
      let row = Array.make arity Value.Null in
      for c = 0 to arity - 1 do
        let col = t.cols.(c) in
        if not (pruned col) then row.(c) <- col.(i)
      done;
      out.(!j) <- row;
      incr j)
    t.sel;
  out

let project t positions =
  { t with cols = Array.map (fun p -> t.cols.(p)) positions }

let take t k = { t with sel = Bitset.take t.sel k }
