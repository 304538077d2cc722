(* An immutable columnar chunk: up to [Page.rows_per_chunk schema] rows,
   stored column-major so per-column work (zone maps, bitmap predicate
   kernels) touches one array.

   Each column sits in its own atomic slot.  A heap chunk fills every slot
   when it is built; a chunk faulted in from the spill file starts with
   empty slots and decodes a column the first time it is touched, so a
   scan that reads 2 of 7 columns unmarshals 2.  Decoding runs under the
   chunk's own lock and re-checks the slot, so a column decodes at most
   once however many domains touch it; the fast path is one atomic read. *)

type t = {
  n_rows : int;
  slots : Value.t array option Atomic.t array;
  decode : int -> Value.t array;  (* only called for an empty slot *)
  lock : Mutex.t;
}

let eager_lock = Mutex.create ()

let no_decode _ = invalid_arg "Chunk: eager chunk has no decoder"

(* Every empty column of an eager chunk shares this slot.  Sharing is
   safe because only [decode] writes a slot, and an eager chunk's slots
   are all full, so it never decodes. *)
let empty_slot = Atomic.make (Some [||])

let eager n_rows columns =
  {
    n_rows;
    slots =
      Array.map
        (fun col -> if Array.length col = 0 then empty_slot else Atomic.make (Some col))
        columns;
    decode = no_decode;
    lock = eager_lock;
  }

let of_decoder ~n_rows ~n_columns decode =
  {
    n_rows;
    slots = Array.init n_columns (fun _ -> Atomic.make None);
    decode;
    lock = Mutex.create ();
  }

let n_rows t = t.n_rows

let n_columns t = Array.length t.slots

let column t col =
  let slot = t.slots.(col) in
  match Atomic.get slot with
  | Some values -> values
  | None ->
      Mutex.protect t.lock (fun () ->
          match Atomic.get slot with
          | Some values -> values
          | None ->
              let values = t.decode col in
              Atomic.set slot (Some values);
              values)

let value t ~col ~row = (column t col).(row)

let columns t = Array.init (Array.length t.slots) (column t)

(* Zero-copy view over existing column arrays: the vectorized executor
   wraps a batch's columns back into a chunk so the per-chunk bitmap
   kernels run on it unchanged.  The caller keeps ownership.  An empty
   column is one the executor pruned: no kernel over the view reads it. *)
let of_columns ~n_rows columns =
  if n_rows < 0 then invalid_arg "Chunk.of_columns: negative n_rows";
  Array.iter
    (fun col ->
      let len = Array.length col in
      if len <> 0 && len < n_rows then
        invalid_arg "Chunk.of_columns: column shorter than n_rows")
    columns;
  eager n_rows columns

let get t row = Array.init (Array.length t.slots) (fun c -> (column t c).(row))

let of_rows ~arity rows n =
  eager n (Array.init arity (fun c -> Array.init n (fun r -> rows r c)))

let of_tuples tuples =
  let n = Array.length tuples in
  if n = 0 then invalid_arg "Chunk.of_tuples: empty";
  let arity = Array.length tuples.(0) in
  of_rows ~arity (fun r c -> tuples.(r).(c)) n

let iter f t =
  let cols = columns t in
  let arity = Array.length cols in
  for r = 0 to t.n_rows - 1 do
    f r (Array.init arity (fun c -> cols.(c).(r)))
  done
