(* Relations as sequences of immutable columnar chunks.

   A relation no longer owns a row array: rows live in fixed-size
   column-major chunks ({!Chunk}), each spanning a whole number of pages
   ({!Page.pages_per_chunk}) and summarized by an always-resident zone map
   ({!Zone_map}).  Chunk payloads are reached exclusively through the
   process-wide buffer pool ({!Buffer_pool.global}): every access pins the
   chunk (faulting it in from the heap store or the spill file on a miss)
   and unpins it when done, so a capped pool bounds resident data while
   pins keep in-flight chunks safe from eviction.

   [Builder] grows a relation row-by-row with only the current chunk
   buffered; with [~spill:true] sealed chunks are marshalled to a temp
   file, which is what lets a TPC-H SF 1 lineitem (~6M rows) exist without
   ~6M tuples live on the OCaml heap.  The spill layout is per column:
   each column of a sealed chunk is its own marshal at a recorded offset
   and length, so a fault hands out a chunk that reads and decodes only
   the columns somebody touches ({!Chunk.of_decoder}). *)

type tuple = Value.t array

(* A spill file and its one reader: the channel opens on the first fault
   and stays open until {!evict} or the relation is collected. *)
type spill = {
  path : string;
  offsets : int array array;  (* offsets.(ci).(c): file offset of chunk [ci]'s column [c] *)
  lengths : int array array;  (* its marshal's byte length *)
  lock : Mutex.t;  (* guards [reader] and its position *)
  mutable reader : in_channel option;
}

type store = Heap of Chunk.t array | Spill of spill

type t = {
  name : string;
  schema : Schema.t;
  n_rows : int;
  rows_per_page : int;
  rows_per_chunk : int;
  zone_maps : Zone_map.t array;
  store : store;
  keys : string array;  (* buffer-pool key per chunk, built once *)
}

let next_id = Atomic.make 0

(* Reads one column's marshal, and only its bytes.  The lock covers the
   seek and the read; decoding runs outside it, so domains faulting
   different columns decode in parallel.  The buffer is fresh per read on
   purpose: its allocation is what paces the major GC through the decoded
   columns that evicted chunks leave behind (with one reused buffer per
   domain, analytic-spill's peak heap doubled). *)
let read_column sp ci c =
  let buf = Bytes.create sp.lengths.(ci).(c) in
  Mutex.protect sp.lock (fun () ->
      let ic =
        match sp.reader with
        | Some ic -> ic
        | None ->
            let ic = open_in_bin sp.path in
            sp.reader <- Some ic;
            ic
      in
      seek_in ic sp.offsets.(ci).(c);
      really_input ic buf 0 (Bytes.length buf));
  (Marshal.from_bytes buf 0 : Value.t array)

let close_reader sp =
  Mutex.protect sp.lock (fun () ->
      Option.iter close_in_noerr sp.reader;
      sp.reader <- None)

let load_chunk t ci =
  match t.store with
  | Heap chunks -> chunks.(ci)
  | Spill sp ->
      Chunk.of_decoder
        ~n_rows:(Zone_map.n_rows t.zone_maps.(ci))
        ~n_columns:(Array.length sp.offsets.(ci))
        (read_column sp ci)

let with_chunk ?(seq = false) t ci f =
  let key = t.keys.(ci) in
  let chunk =
    Buffer_pool.pin ~seq Buffer_pool.global ~key ~load:(fun () -> load_chunk t ci)
  in
  Fun.protect
    ~finally:(fun () -> Buffer_pool.unpin Buffer_pool.global ~key)
    (fun () -> f chunk)

let evict t =
  for ci = 0 to Array.length t.zone_maps - 1 do
    Buffer_pool.drop Buffer_pool.global ~key:t.keys.(ci)
  done;
  match t.store with Heap _ -> () | Spill sp -> close_reader sp

(* -- Builder ------------------------------------------------------------- *)

module Builder = struct
  type rel = t

  type sink =
    | To_heap of Chunk.t list ref  (* sealed chunks, reversed *)
    | To_spill of {
        path : string;
        oc : out_channel;
        offsets : int array list ref;
        lengths : int array list ref;
      }

  type t = {
    b_name : string;
    b_schema : Schema.t;
    arity : int;
    chunk_capacity : int;
    buf : tuple array;  (* current chunk's rows, row-major *)
    mutable buf_len : int;
    mutable rows : int;
    mutable zone_maps : Zone_map.t list;  (* reversed *)
    sink : sink;
    mutable finished : bool;
  }

  let create ?(spill = false) ~name ~schema () =
    let chunk_capacity = Page.rows_per_chunk schema in
    let sink =
      if spill then begin
        let path = Filename.temp_file "rq_spill_" ".chunks" in
        at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
        To_spill { path; oc = open_out_bin path; offsets = ref []; lengths = ref [] }
      end
      else To_heap (ref [])
    in
    {
      b_name = name;
      b_schema = schema;
      arity = Schema.arity schema;
      chunk_capacity;
      buf = Array.make chunk_capacity [||];
      buf_len = 0;
      rows = 0;
      zone_maps = [];
      sink;
      finished = false;
    }

  let row_count b = b.rows

  let seal b =
    if b.buf_len > 0 then begin
      let n = b.buf_len in
      let chunk = Chunk.of_rows ~arity:b.arity (fun r c -> b.buf.(r).(c)) n in
      b.zone_maps <- Zone_map.of_chunk chunk :: b.zone_maps;
      (match b.sink with
      | To_heap chunks -> chunks := chunk :: !chunks
      | To_spill { oc; offsets; lengths; _ } ->
          let starts = Array.make b.arity 0 and lens = Array.make b.arity 0 in
          for c = 0 to b.arity - 1 do
            starts.(c) <- pos_out oc;
            Marshal.to_channel oc (Chunk.column chunk c) [];
            lens.(c) <- pos_out oc - starts.(c)
          done;
          offsets := starts :: !offsets;
          lengths := lens :: !lengths);
      Array.fill b.buf 0 n [||];
      b.buf_len <- 0
    end

  let add_row b tup =
    if b.finished then invalid_arg "Relation.Builder.add_row: already finished";
    if Array.length tup <> b.arity then
      invalid_arg
        (Printf.sprintf "Relation.create %s: tuple %d has arity %d, schema has %d"
           b.b_name b.rows (Array.length tup) b.arity);
    b.buf.(b.buf_len) <- tup;
    b.buf_len <- b.buf_len + 1;
    b.rows <- b.rows + 1;
    if b.buf_len = b.chunk_capacity then seal b

  let finish b =
    if b.finished then invalid_arg "Relation.Builder.finish: already finished";
    seal b;
    b.finished <- true;
    let store =
      match b.sink with
      | To_heap chunks -> Heap (Array.of_list (List.rev !chunks))
      | To_spill { path; oc; offsets; lengths } ->
          close_out oc;
          let sp =
            {
              path;
              offsets = Array.of_list (List.rev !offsets);
              lengths = Array.of_list (List.rev !lengths);
              lock = Mutex.create ();
              reader = None;
            }
          in
          Gc.finalise (fun sp -> Option.iter close_in_noerr sp.reader) sp;
          Spill sp
    in
    let zone_maps = Array.of_list (List.rev b.zone_maps) in
    let id = Atomic.fetch_and_add next_id 1 in
    {
      name = b.b_name;
      schema = b.b_schema;
      n_rows = b.rows;
      rows_per_page = Page.rows_per_page b.b_schema;
      rows_per_chunk = b.chunk_capacity;
      zone_maps;
      store;
      keys =
        Array.init (Array.length zone_maps) (fun ci ->
            Printf.sprintf "%s/%d#%d" b.b_name id ci);
    }
end

let create ~name ~schema tuples =
  let b = Builder.create ~name ~schema () in
  Array.iter (fun tup -> Builder.add_row b tup) tuples;
  Builder.finish b

(* -- Geometry ------------------------------------------------------------ *)

let name t = t.name
let schema t = t.schema
let row_count t = t.n_rows
let rows_per_page t = t.rows_per_page
let rows_per_chunk t = t.rows_per_chunk

let page_count t =
  if t.n_rows = 0 then 0 else ((t.n_rows - 1) / t.rows_per_page) + 1

let chunk_count t = Array.length t.zone_maps

let chunk_start t ci = ci * t.rows_per_chunk

let chunk_row_count t ci = Zone_map.n_rows t.zone_maps.(ci)

let zone_map t ci = t.zone_maps.(ci)

(* -- Row access (all through the buffer pool) ---------------------------- *)

let check_rid t rid =
  if rid < 0 || rid >= t.n_rows then
    invalid_arg (Printf.sprintf "Relation.get %s: rid %d out of range" t.name rid)

let get t rid =
  check_rid t rid;
  let ci = rid / t.rows_per_chunk in
  with_chunk t ci (fun chunk -> Chunk.get chunk (rid mod t.rows_per_chunk))

let gather t rids ~lo ~hi f =
  if lo < 0 || hi > Array.length rids || lo > hi then
    invalid_arg
      (Printf.sprintf "Relation.gather %s: window [%d, %d) outside [0, %d)" t.name lo hi
         (Array.length rids));
  let rpc = t.rows_per_chunk in
  let i = ref lo in
  while !i < hi do
    let rid = rids.(!i) in
    check_rid t rid;
    let ci = rid / rpc in
    let base = ci * rpc in
    let stop = min t.n_rows (base + rpc) in
    (* One pin covers the whole run of RIDs that stay in this chunk. *)
    with_chunk t ci (fun chunk ->
        let in_run = ref true in
        while !in_run do
          f !i chunk (rids.(!i) - base);
          incr i;
          in_run := !i < hi && rids.(!i) >= base && rids.(!i) < stop
        done)
  done

let column_value t rid col =
  check_rid t rid;
  let ci = rid / t.rows_per_chunk in
  with_chunk t ci (fun chunk ->
      Chunk.value chunk ~col:(Schema.index_of t.schema col)
        ~row:(rid mod t.rows_per_chunk))

let iter f t =
  for ci = 0 to chunk_count t - 1 do
    let base = chunk_start t ci in
    with_chunk ~seq:true t ci (Chunk.iter (fun r tup -> f (base + r) tup))
  done

let fold f init t =
  let acc = ref init in
  iter (fun rid tup -> acc := f !acc rid tup) t;
  !acc

let to_seq t =
  (* One chunk pinned and materialized at a time, so draining a spilled
     relation never holds more than a chunk of tuples live. *)
  let n_chunks = chunk_count t in
  let rec chunk_seq ci () =
    if ci >= n_chunks then Seq.Nil
    else
      let rows = with_chunk ~seq:true t ci (fun chunk ->
          Array.init (Chunk.n_rows chunk) (Chunk.get chunk))
      in
      let rec row_seq r () =
        if r >= Array.length rows then chunk_seq (ci + 1) ()
        else Seq.Cons (rows.(r), row_seq (r + 1))
      in
      row_seq 0 ()
  in
  chunk_seq 0

let filter_count t pred =
  fold (fun acc _rid tup -> if pred tup then acc + 1 else acc) 0 t
