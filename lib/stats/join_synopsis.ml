open Rq_storage

type t = {
  root : string;
  tables : string list;
  sample : Sample.t;
  root_size : int;
  (* The bitset evidence kernel over this synopsis's rows.  Lazy so that
     synopses built but never probed (e.g. covering tables a workload
     never touches) pay nothing; forced on the first evidence query. *)
  kernel : Pred_index.t Lazy.t;
}

let make ~root ~tables ~sample ~root_size =
  { root; tables; sample; root_size; kernel = lazy (Pred_index.create (Sample.rows sample)) }

(* Traversal order and the FK edge used to reach each non-root table.  The
   paper assumes acyclic FK graphs; we additionally require tree-shaped
   closures (each table reachable by exactly one FK path), which covers the
   TPC-H and star schemas and keeps the maximal join well-defined. *)
let closure catalog root =
  let visited = Hashtbl.create 8 in
  let order = ref [] in
  let rec visit table =
    Hashtbl.add visited table ();
    order := table :: !order;
    List.iter
      (fun (fk : Catalog.foreign_key) ->
        if Hashtbl.mem visited fk.to_table then
          invalid_arg
            (Printf.sprintf
               "Join_synopsis.build: table %s reachable via multiple FK paths from %s"
               fk.to_table root)
        else visit fk.to_table)
      (Catalog.foreign_keys_from catalog table)
  in
  visit root;
  List.rev !order

exception Dangling of string

let build ?(follow_fks = true) ?(lenient = false) rng catalog ~size ~root =
  let root_rel =
    match Catalog.find_table_opt catalog root with
    | Some rel -> rel
    | None -> invalid_arg (Printf.sprintf "Join_synopsis.build: unknown table %s" root)
  in
  let tables = if follow_fks then closure catalog root else [ root ] in
  (* Primary-key lookup per referenced table. *)
  let pk_lookup = Hashtbl.create 8 in
  List.iter
    (fun table ->
      if not (String.equal table root) then begin
        let rel = Catalog.find_table catalog table in
        let pk =
          match Catalog.primary_key catalog table with
          | Some pk -> pk
          | None ->
              invalid_arg
                (Printf.sprintf "Join_synopsis.build: referenced table %s has no primary key"
                   table)
        in
        let pos = Schema.index_of (Relation.schema rel) pk in
        let lookup = Hashtbl.create (Relation.row_count rel) in
        Relation.iter (fun _ tup -> Hashtbl.replace lookup tup.(pos) tup) rel;
        Hashtbl.replace pk_lookup table (rel, lookup)
      end)
    tables;
  let base_sample = Sample.of_relation rng ~size root_rel in
  (* Expand one root-sample tuple into the full joined row by following every
     FK edge in traversal order. *)
  let joined_schema =
    List.fold_left
      (fun acc table ->
        let s = Schema.qualify table (Relation.schema (Catalog.find_table catalog table)) in
        match acc with None -> Some s | Some a -> Some (Schema.concat a s))
      None tables
    |> Option.get
  in
  let expand root_tuple =
    let parts = Hashtbl.create 8 in
    Hashtbl.replace parts root root_tuple;
    let rec follow table tuple =
      let schema = Relation.schema (Catalog.find_table catalog table) in
      List.iter
        (fun (fk : Catalog.foreign_key) ->
          let key = tuple.(Schema.index_of schema fk.from_column) in
          let _, lookup = Hashtbl.find pk_lookup fk.to_table in
          match Hashtbl.find_opt lookup key with
          | Some child ->
              Hashtbl.replace parts fk.to_table child;
              follow fk.to_table child
          | None ->
              let detail =
                Printf.sprintf
                  "Join_synopsis.build: dangling FK %s.%s = %s (no match in %s)" table
                  fk.from_column (Value.to_string key) fk.to_table
              in
              (* A dangling root row is not part of the maximal join, so in
                 lenient mode it simply contributes nothing to the sample —
                 this is how a referenced table that became empty degrades
                 to an empty synopsis instead of aborting the rebuild. *)
              if lenient then raise (Dangling detail) else invalid_arg detail)
        (Catalog.foreign_keys_from catalog table)
    in
    if follow_fks then follow root root_tuple;
    Array.concat (List.map (fun table -> Hashtbl.find parts table) tables)
  in
  let rows =
    Array.of_seq (Relation.to_seq (Sample.rows base_sample))
    |> Array.to_list
    |> List.filter_map (fun tuple ->
           match expand tuple with
           | joined -> Some joined
           | exception Dangling _ -> None)
    |> Array.of_list
  in
  let sample =
    Sample.of_rows ~rows ~schema:joined_schema
      ~population_size:(Relation.row_count root_rel)
      ~name:(root ^ "__synopsis")
  in
  make ~root ~tables ~sample ~root_size:(Relation.row_count root_rel)

let root t = t.root
let tables t = t.tables

(* Tamper hooks for the fault-injection harness: same synopsis metadata,
   altered contents.  Production code never calls these. *)
let with_rows t rows =
  let sample =
    Sample.of_rows ~rows
      ~schema:(Relation.schema (Sample.rows t.sample))
      ~population_size:(Sample.population_size t.sample)
      ~name:(t.root ^ "__synopsis")
  in
  (* [make], not [{ t with sample }]: the tampered synopsis must carry a
     fresh kernel, never bitmaps built over the original rows. *)
  make ~root:t.root ~tables:t.tables ~sample ~root_size:t.root_size

let truncate t n =
  let rows = Array.of_seq (Relation.to_seq (Sample.rows t.sample)) in
  let keep = max 0 (min n (Array.length rows)) in
  with_rows t (Array.sub rows 0 keep)

(* Sample rows unchanged, so sharing the kernel (and its bitmaps) is
   sound. *)
let with_root_size t n = { t with root_size = n }
let covers t needed = List.for_all (fun table -> List.mem table t.tables) needed
let sample t = t.sample
let size t = Sample.size t.sample
let root_size t = t.root_size

let evidence t pred = (Pred_index.count (Lazy.force t.kernel) pred, Sample.size t.sample)

let matching_rows t pred =
  let bitmap = Pred_index.eval (Lazy.force t.kernel) pred in
  let rows = Sample.rows t.sample in
  let rids = Array.make (Bitset.popcount bitmap) 0 in
  let k = ref 0 in
  Bitset.iter_set
    (fun i ->
      rids.(!k) <- i;
      incr k)
    bitmap;
  let n = Array.length rids in
  let rpc = Relation.rows_per_chunk rows in
  (* Lazily walk the matches one chunk at a time: downstream consumers
     (GEE) are single-pass, so at most one chunk's matching rows are live,
     and each chunk is pinned once. *)
  let rec from lo () =
    if lo >= n then Seq.Nil
    else begin
      let ci = rids.(lo) / rpc in
      let hi = ref lo in
      while !hi < n && rids.(!hi) / rpc = ci do
        incr hi
      done;
      let tuples = Array.make (!hi - lo) [||] in
      Relation.gather rows rids ~lo ~hi:!hi (fun i tup -> tuples.(i - lo) <- tup);
      Seq.append (Array.to_seq tuples) (from !hi) ()
    end
  in
  from 0

let kernel_stats t =
  if Lazy.is_val t.kernel then Pred_index.stats (Lazy.force t.kernel)
  else Rq_obs.Metrics.kernel_zero

let clear_kernel t = if Lazy.is_val t.kernel then Pred_index.clear (Lazy.force t.kernel)
