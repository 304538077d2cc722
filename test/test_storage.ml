(* Unit and property tests for rq_storage: values, schemas, relations, RID
   sets, indexes, catalog. *)

open Rq_storage

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_ordering () =
  check_bool "null < bool" true (Value.compare Value.Null (Value.Bool false) < 0);
  check_bool "bool < int" true (Value.compare (Value.Bool true) (Value.Int 0) < 0);
  check_bool "int < string" true (Value.compare (Value.Int 99) (Value.String "a") < 0);
  check_bool "string < date" true (Value.compare (Value.String "zzz") (Value.Date 0) < 0);
  check_int "int ordering" (-1) (Value.compare (Value.Int 1) (Value.Int 2));
  check_int "string ordering" 1 (Value.compare (Value.String "b") (Value.String "a"))

let test_value_numeric_cross_compare () =
  check_int "Int = Float" 0 (Value.compare (Value.Int 3) (Value.Float 3.0));
  check_bool "Int < Float" true (Value.compare (Value.Int 3) (Value.Float 3.5) < 0);
  check_bool "Float > Int" true (Value.compare (Value.Float 3.5) (Value.Int 3) > 0)

let test_value_to_float () =
  Alcotest.(check (float 0.0)) "int" 5.0 (Value.to_float (Value.Int 5));
  Alcotest.(check (float 0.0)) "bool" 1.0 (Value.to_float (Value.Bool true));
  Alcotest.check_raises "string" (Invalid_argument "Value.to_float: String") (fun () ->
      ignore (Value.to_float (Value.String "x")));
  Alcotest.check_raises "null" (Invalid_argument "Value.to_float: Null") (fun () ->
      ignore (Value.to_float Value.Null))

let test_value_date_known () =
  (* 1970-01-01 is day 0; 2000-03-01 is day 11017. *)
  check_int "epoch" 0
    (match Value.date_of_ymd ~year:1970 ~month:1 ~day:1 with Value.Date d -> d | _ -> -1);
  check_int "2000-03-01" 11017
    (match Value.date_of_ymd ~year:2000 ~month:3 ~day:1 with Value.Date d -> d | _ -> -1);
  Alcotest.(check (triple int int int)) "roundtrip"
    (1997, 7, 1)
    (Value.ymd_of_date (Value.date_of_ymd ~year:1997 ~month:7 ~day:1))

let prop_value_date_roundtrip =
  QCheck.Test.make ~name:"date ymd roundtrip over 400 years" ~count:500
    QCheck.(triple (int_range 1900 2299) (int_range 1 12) (int_range 1 28))
    (fun (y, m, d) ->
      let date = Value.date_of_ymd ~year:y ~month:m ~day:d in
      Value.ymd_of_date date = (y, m, d))

let prop_value_date_add_days_consistent =
  QCheck.Test.make ~name:"add_days shifts the day number" ~count:200
    QCheck.(pair (int_range 0 20000) (int_range (-500) 500))
    (fun (base, delta) ->
      match Value.add_days (Value.Date base) delta with
      | Value.Date d -> d = base + delta
      | _ -> false)

let test_value_pp () =
  Alcotest.(check string) "date format" "1997-07-01"
    (Value.to_string (Value.date_of_ymd ~year:1997 ~month:7 ~day:1));
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
  Alcotest.(check string) "string quoted" "\"hi\"" (Value.to_string (Value.String "hi"));
  (* Keys keep the display form when it is exact, and tell apart floats
     that display alike. *)
  Alcotest.(check string) "display keeps six digits" "500" (Value.to_string (Value.Float 500.0000001));
  Alcotest.(check string) "exact float key" "25.5" (Value.to_key (Value.Float 25.5));
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0)) "key parses back" f (float_of_string (Value.to_key (Value.Float f))))
    [ 500.0000001; 499.9999999; 0.1; 1e-7; 123456789.0 ]

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let sample_schema =
  Schema.create
    [
      { Schema.name = "id"; ty = Value.T_int };
      { Schema.name = "name"; ty = Value.T_string };
      { Schema.name = "born"; ty = Value.T_date };
    ]

let test_schema_basics () =
  check_int "arity" 3 (Schema.arity sample_schema);
  check_int "index_of" 1 (Schema.index_of sample_schema "name");
  check_bool "mem" true (Schema.mem sample_schema "born");
  check_bool "not mem" false (Schema.mem sample_schema "age");
  Alcotest.check_raises "unknown column" Not_found (fun () ->
      ignore (Schema.index_of sample_schema "age"))

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Schema.create: duplicate column \"id\"") (fun () ->
      ignore
        (Schema.create
           [ { Schema.name = "id"; ty = Value.T_int }; { Schema.name = "id"; ty = Value.T_int } ]))

let test_schema_project () =
  let p = Schema.project sample_schema [ "born"; "id" ] in
  check_int "projected arity" 2 (Schema.arity p);
  check_int "order preserved" 0 (Schema.index_of p "born")

let test_schema_qualify () =
  let q = Schema.qualify "t" sample_schema in
  check_bool "qualified" true (Schema.mem q "t.id");
  (* Qualifying twice must not double the prefix. *)
  let qq = Schema.qualify "u" q in
  check_bool "idempotent on dotted names" true (Schema.mem qq "t.id")

let test_schema_row_bytes () =
  check_int "8 + 20 + 4" 32 (Schema.row_bytes sample_schema)

(* ------------------------------------------------------------------ *)
(* Relation                                                            *)
(* ------------------------------------------------------------------ *)

let small_relation =
  Relation.create ~name:"people" ~schema:sample_schema
    (Array.init 10 (fun i ->
         [| v_int i; Value.String (Printf.sprintf "p%d" i); Value.Date (1000 + i) |]))

let test_relation_basics () =
  check_int "row count" 10 (Relation.row_count small_relation);
  check_bool "rows per page positive" true (Relation.rows_per_page small_relation > 0);
  check_int "page count" 1 (Relation.page_count small_relation);
  Alcotest.(check string) "get" "p3"
    (match (Relation.get small_relation 3).(1) with Value.String s -> s | _ -> "?")

let test_relation_arity_mismatch () =
  Alcotest.check_raises "bad tuple"
    (Invalid_argument "Relation.create bad: tuple 0 has arity 1, schema has 3") (fun () ->
      ignore (Relation.create ~name:"bad" ~schema:sample_schema [| [| v_int 1 |] |]))

let test_relation_get_bounds () =
  Alcotest.check_raises "rid out of range"
    (Invalid_argument "Relation.get people: rid 99 out of range") (fun () ->
      ignore (Relation.get small_relation 99))

let test_relation_page_geometry () =
  (* 32-byte rows: 256 rows per 8KiB page. *)
  check_int "rows per page" 256 (Relation.rows_per_page small_relation);
  let big =
    Relation.create ~name:"big" ~schema:sample_schema
      (Array.init 1000 (fun i -> [| v_int i; Value.String "x"; Value.Date i |]))
  in
  check_int "1000 rows -> 4 pages" 4 (Relation.page_count big)

let test_relation_fold_filter () =
  check_int "filter_count" 5
    (Relation.filter_count small_relation (fun tup ->
         match tup.(0) with Value.Int i -> i mod 2 = 0 | _ -> false));
  check_int "fold sums rids" 45 (Relation.fold (fun acc rid _ -> acc + rid) 0 small_relation)

(* ------------------------------------------------------------------ *)
(* Rid_set                                                             *)
(* ------------------------------------------------------------------ *)

let test_rid_set_dedup () =
  let s = Rid_set.of_unsorted [| 5; 1; 5; 3; 1 |] in
  Alcotest.(check (array int)) "sorted unique" [| 1; 3; 5 |] (Rid_set.to_array s);
  check_int "cardinality" 3 (Rid_set.cardinality s)

let test_rid_set_mem () =
  let s = Rid_set.of_unsorted [| 2; 4; 6; 8 |] in
  check_bool "present" true (Rid_set.mem s 6);
  check_bool "absent" false (Rid_set.mem s 5);
  check_bool "empty" false (Rid_set.mem Rid_set.empty 0)

let sorted_unique xs = List.sort_uniq compare xs

let prop_rid_set_inter =
  QCheck.Test.make ~name:"intersection matches reference" ~count:300
    QCheck.(pair (list (int_range 0 50)) (list (int_range 0 50)))
    (fun (xs, ys) ->
      let a = Rid_set.of_unsorted (Array.of_list xs) in
      let b = Rid_set.of_unsorted (Array.of_list ys) in
      let expected =
        List.filter (fun x -> List.mem x (sorted_unique ys)) (sorted_unique xs)
      in
      Array.to_list (Rid_set.to_array (Rid_set.inter a b)) = expected)

let prop_rid_set_union =
  QCheck.Test.make ~name:"union matches reference" ~count:300
    QCheck.(pair (list (int_range 0 50)) (list (int_range 0 50)))
    (fun (xs, ys) ->
      let a = Rid_set.of_unsorted (Array.of_list xs) in
      let b = Rid_set.of_unsorted (Array.of_list ys) in
      Array.to_list (Rid_set.to_array (Rid_set.union a b)) = sorted_unique (xs @ ys))

(* ------------------------------------------------------------------ *)
(* Index                                                               *)
(* ------------------------------------------------------------------ *)

let indexed_relation values =
  let schema =
    Schema.create [ { Schema.name = "k"; ty = Value.T_int }; { Schema.name = "payload"; ty = Value.T_int } ]
  in
  Relation.create ~name:"t" ~schema
    (Array.mapi (fun i v -> [| v; v_int i |]) (Array.of_list values))

let reference_range rel ~lo ~hi =
  Relation.fold
    (fun acc rid tup ->
      let v = tup.(0) in
      if Value.is_null v then acc
      else
        let ge_lo = match lo with Some l -> Value.compare v l >= 0 | None -> true in
        let le_hi = match hi with Some h -> Value.compare v h <= 0 | None -> true in
        if ge_lo && le_hi then rid :: acc else acc)
    [] rel
  |> List.rev

let test_index_probe_eq () =
  let rel = indexed_relation [ v_int 5; v_int 3; v_int 5; Value.Null; v_int 7 ] in
  let idx = Index.build rel "k" in
  Alcotest.(check (array int)) "duplicates found" [| 0; 2 |]
    (Rid_set.to_array (Index.probe_eq idx (v_int 5)));
  check_int "missing key" 0 (Rid_set.cardinality (Index.probe_eq idx (v_int 4)))

let test_index_range_nulls () =
  let rel = indexed_relation [ Value.Null; v_int 1; v_int 2; Value.Null; v_int 3 ] in
  let idx = Index.build rel "k" in
  (* Open range must skip nulls. *)
  check_int "full open range" 3 (Index.probe_range_count idx ~lo:None ~hi:None);
  Alcotest.(check (option (pair int int))) "min key ignores nulls"
    (Some (1, 1))
    (match Index.min_key idx with Some (Value.Int i) -> Some (i, i) | _ -> None)

let prop_index_range_matches_scan =
  QCheck.Test.make ~name:"index range probe matches a filtered scan" ~count:200
    QCheck.(triple (list (int_range 0 30)) (int_range 0 30) (int_range 0 30))
    (fun (keys, b1, b2) ->
      QCheck.assume (keys <> []);
      let rel = indexed_relation (List.map v_int keys) in
      let idx = Index.build rel "k" in
      let lo = Some (v_int (min b1 b2)) and hi = Some (v_int (max b1 b2)) in
      let got = Array.to_list (Rid_set.to_array (Index.probe_range idx ~lo ~hi)) in
      let expected = List.sort compare (reference_range rel ~lo ~hi) in
      got = expected && Index.probe_range_count idx ~lo ~hi = List.length expected)

let test_index_leaf_pages () =
  let rel = indexed_relation (List.init 5000 v_int) in
  let idx = Index.build rel "k" in
  check_bool "leaf pages positive" true (Index.leaf_page_count idx > 0);
  check_int "entry count" 5000 (Index.entry_count idx)

(* ------------------------------------------------------------------ *)
(* Csv                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csv_parse_basic () =
  (match Csv.parse "a,b,c\n1,2,3\n" with
  | Ok [ [ "a"; "b"; "c" ]; [ "1"; "2"; "3" ] ] -> ()
  | _ -> Alcotest.fail "basic rows");
  match Csv.parse "x" with
  | Ok [ [ "x" ] ] -> ()
  | _ -> Alcotest.fail "no trailing newline"

let test_csv_quoting () =
  (match Csv.parse "\"a,b\",\"he said \"\"hi\"\"\",\"two\nlines\"\n" with
  | Ok [ [ "a,b"; "he said \"hi\""; "two\nlines" ] ] -> ()
  | Ok other ->
      Alcotest.failf "got %s" (String.concat "|" (List.concat other))
  | Error e -> Alcotest.fail e);
  check_bool "unterminated quote" true (Result.is_error (Csv.parse "\"oops"));
  check_bool "stray quote" true (Result.is_error (Csv.parse "ab\"cd"))

let test_csv_crlf_and_blank_lines () =
  match Csv.parse "a,b\r\n\r\nc,d\r\n" with
  | Ok [ [ "a"; "b" ]; [ "c"; "d" ] ] -> ()
  | _ -> Alcotest.fail "CRLF + blank line"

let prop_csv_roundtrip =
  let field_gen =
    QCheck.Gen.(oneof [ string_size (int_range 0 8); return "a,b"; return "q\"q"; return "x\ny" ])
  in
  QCheck.Test.make ~name:"render/parse roundtrip" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 5) (list_of_size (Gen.int_range 1 4) (make field_gen)))
    (fun rows ->
      (* Rows of entirely-empty trailing fields are ambiguous with blank
         lines; skip degenerate all-empty rows. *)
      QCheck.assume (List.for_all (fun r -> List.exists (fun f -> f <> "") r) rows);
      match Csv.parse (Csv.render rows) with Ok parsed -> parsed = rows | Error _ -> false)

let test_csv_typed_conversion () =
  let schema =
    Schema.create
      [
        { Schema.name = "i"; ty = Value.T_int };
        { Schema.name = "f"; ty = Value.T_float };
        { Schema.name = "s"; ty = Value.T_string };
        { Schema.name = "d"; ty = Value.T_date };
        { Schema.name = "b"; ty = Value.T_bool };
      ]
  in
  (match Csv.tuple_of_fields schema [ "7"; "2.5"; "hi"; "1997-07-01"; "true" ] with
  | Ok [| Value.Int 7; Value.Float 2.5; Value.String "hi"; Value.Date _; Value.Bool true |] -> ()
  | Ok _ -> Alcotest.fail "wrong values"
  | Error e -> Alcotest.fail e);
  (match Csv.tuple_of_fields schema [ ""; ""; ""; ""; "" ] with
  | Ok tuple -> check_bool "empty fields are NULL" true (Array.for_all Value.is_null tuple)
  | Error e -> Alcotest.fail e);
  check_bool "bad int" true (Result.is_error (Csv.tuple_of_fields schema [ "x"; "1"; "a"; "1997-01-01"; "t" ]));
  check_bool "bad arity" true (Result.is_error (Csv.tuple_of_fields schema [ "1" ]));
  (* fields_of_tuple inverts. *)
  match Csv.tuple_of_fields schema [ "7"; "2.5"; "hi"; "1997-07-01"; "true" ] with
  | Ok tuple ->
      Alcotest.(check (list string)) "inverse" [ "7"; "2.5"; "hi"; "1997-07-01"; "true" ]
        (Csv.fields_of_tuple tuple)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Page geometry                                                       *)
(* ------------------------------------------------------------------ *)

let test_page_geometry () =
  check_int "8 KiB pages" 8192 Page.size_bytes;
  check_int "32-byte rows -> 256 per page" 256 (Page.rows_per_page sample_schema);
  check_int "16 pages per chunk" 16 Page.pages_per_chunk;
  check_int "rows per chunk" (16 * 256) (Page.rows_per_chunk sample_schema);
  (* Very wide rows still fit one per page. *)
  let wide =
    Schema.create (List.init 2000 (fun i -> { Schema.name = Printf.sprintf "c%d" i; ty = Value.T_int }))
  in
  check_int "wide rows clamp to 1" 1 (Page.rows_per_page wide)

(* ------------------------------------------------------------------ *)
(* Chunk and Zone_map                                                  *)
(* ------------------------------------------------------------------ *)

let test_chunk_roundtrip () =
  let rows = Array.init 7 (fun i -> [| v_int i; Value.String (string_of_int i); Value.Date i |]) in
  let chunk = Chunk.of_tuples rows in
  check_int "rows" 7 (Chunk.n_rows chunk);
  check_int "columns" 3 (Chunk.n_columns chunk);
  check_bool "get materializes the row" true (Chunk.get chunk 3 = rows.(3));
  check_bool "value addresses column-major" true (Chunk.value chunk ~col:2 ~row:5 = Value.Date 5);
  let seen = ref [] in
  Chunk.iter (fun r tup -> seen := (r, tup.(0)) :: !seen) chunk;
  check_bool "iter in order" true
    (List.rev !seen = List.init 7 (fun i -> (i, v_int i)));
  (* of_rows builds the same chunk without a row-major copy. *)
  let chunk' = Chunk.of_rows ~arity:3 (fun r c -> rows.(r).(c)) 7 in
  check_bool "of_rows agrees" true
    (Array.init 7 (Chunk.get chunk') = Array.init 7 (Chunk.get chunk))

let test_zone_map_stats () =
  let rows =
    [|
      [| v_int 5; Value.Null; Value.Null |];
      [| v_int (-2); Value.String "m"; Value.Null |];
      [| v_int 9; Value.String "a"; Value.Null |];
    |]
  in
  let zm = Zone_map.of_chunk (Chunk.of_tuples rows) in
  check_int "rows" 3 (Zone_map.n_rows zm);
  check_int "arity" 3 (Zone_map.arity zm);
  let c0 = Zone_map.column zm 0 in
  check_bool "int min/max" true (c0.Zone_map.lo = v_int (-2) && c0.hi = v_int 9);
  check_int "no nulls" 0 c0.nulls;
  let c1 = Zone_map.column zm 1 in
  check_bool "string min/max skip nulls" true
    (c1.Zone_map.lo = Value.String "a" && c1.hi = Value.String "m");
  check_int "one null" 1 c1.nulls;
  let c2 = Zone_map.column zm 2 in
  check_bool "all-null column is unconstrained" true
    (Value.is_null c2.Zone_map.lo && Value.is_null c2.hi);
  check_int "all rows null" 3 c2.nulls

(* ------------------------------------------------------------------ *)
(* Buffer pool                                                         *)
(* ------------------------------------------------------------------ *)

let tiny_chunk tag = Chunk.of_tuples [| [| v_int tag |] |]

let test_buffer_pool_hits_and_eviction () =
  (* 2 chunks of capacity (32 pages / 16 per chunk). *)
  let pool = Buffer_pool.create ~capacity_pages:32 () in
  let loads = ref 0 in
  let load tag () = incr loads; tiny_chunk tag in
  let pin k tag = Buffer_pool.pin pool ~key:k ~load:(load tag) in
  ignore (pin "a" 0);
  Buffer_pool.unpin pool ~key:"a";
  ignore (pin "a" 0);
  Buffer_pool.unpin pool ~key:"a";
  check_int "second pin was a hit" 1 !loads;
  ignore (pin "b" 1);
  Buffer_pool.unpin pool ~key:"b";
  ignore (pin "c" 2);
  Buffer_pool.unpin pool ~key:"c";
  (* a was least recently unpinned: inserting c at capacity evicted it. *)
  ignore (pin "a" 0);
  Buffer_pool.unpin pool ~key:"a";
  check_int "a was reloaded after eviction" 4 !loads;
  let s = Buffer_pool.stats pool in
  check_int "capacity in chunks" 2 s.Buffer_pool.capacity_chunks;
  check_int "hits" 1 s.hits;
  check_int "misses" 4 s.misses;
  check_bool "evictions happened" true (s.evictions >= 2);
  check_int "resident bounded by capacity" 2 s.resident_chunks;
  Alcotest.(check (float 1e-9)) "hit rate" 0.2 (Buffer_pool.hit_rate s)

let test_buffer_pool_pins_block_eviction () =
  let pool = Buffer_pool.create ~capacity_pages:16 () in
  (* capacity 1 chunk *)
  let a = Buffer_pool.pin pool ~key:"a" ~load:(fun () -> tiny_chunk 0) in
  (* While a is pinned, other chunks stream through without touching it. *)
  ignore (Buffer_pool.pin pool ~key:"b" ~load:(fun () -> tiny_chunk 1));
  Buffer_pool.unpin pool ~key:"b";
  let loads = ref 0 in
  let a' = Buffer_pool.pin pool ~key:"a" ~load:(fun () -> incr loads; tiny_chunk 9) in
  check_int "pinned chunk never faulted" 0 !loads;
  check_bool "same chunk back" true (a == a');
  Buffer_pool.unpin pool ~key:"a";
  Buffer_pool.unpin pool ~key:"a";
  check_bool "unpin of unpinned key raises" true
    (try Buffer_pool.unpin pool ~key:"a"; false with Invalid_argument _ -> true)

let test_buffer_pool_resize_and_reset () =
  let pool = Buffer_pool.create ~capacity_pages:64 () in
  for i = 0 to 3 do
    let k = Printf.sprintf "k%d" i in
    ignore (Buffer_pool.pin pool ~key:k ~load:(fun () -> tiny_chunk i));
    Buffer_pool.unpin pool ~key:k
  done;
  let before = Buffer_pool.stats pool in
  check_int "four resident" 4 before.Buffer_pool.resident_chunks;
  Buffer_pool.set_capacity_pages pool 16;
  let after = Buffer_pool.stats pool in
  check_int "resize drops unpinned chunks" 0 after.Buffer_pool.resident_chunks;
  check_int "resize keeps miss counter" before.misses after.misses;
  check_int "capacity floor is one chunk" 1
    (Buffer_pool.stats (Buffer_pool.create ~capacity_pages:3 ())).Buffer_pool.capacity_chunks;
  Buffer_pool.reset_stats pool;
  let zeroed = Buffer_pool.stats pool in
  check_int "reset zeroes hits" 0 zeroed.Buffer_pool.hits;
  check_int "reset zeroes misses" 0 zeroed.misses;
  check_int "reset zeroes evictions" 0 zeroed.evictions;
  Alcotest.(check (float 0.0)) "no traffic -> rate 0" 0.0 (Buffer_pool.hit_rate zeroed)

(* Scan resistance: chunks pinned only by sequential scans enter the LRU
   at the cold end, so one big sweep recycles a single slot instead of
   flushing the working set.  The hot chunk of a repeated small-table
   lookup must still be resident after a scan larger than the pool. *)
let test_buffer_pool_scan_resistance () =
  (* 3 chunks of capacity. *)
  let pool = Buffer_pool.create ~capacity_pages:48 () in
  let hot_loads = ref 0 in
  let pin_hot () =
    ignore
      (Buffer_pool.pin pool ~key:"hot" ~load:(fun () -> incr hot_loads; tiny_chunk 0));
    Buffer_pool.unpin pool ~key:"hot"
  in
  (* Point lookups (non-sequential pins): hot-end treatment. *)
  pin_hot ();
  pin_hot ();
  check_int "lookup chunk loaded once" 1 !hot_loads;
  (* A sequential sweep several times the pool size... *)
  for i = 0 to 9 do
    let k = Printf.sprintf "sweep%d" i in
    ignore (Buffer_pool.pin pool ~key:k ~load:(fun () -> tiny_chunk (100 + i)) ~seq:true);
    Buffer_pool.unpin pool ~key:k
  done;
  (* ...evicts its own cold-end predecessors, not the hot chunk. *)
  pin_hot ();
  check_int "lookup chunk survived the sweep" 1 !hot_loads;
  let s = Buffer_pool.stats pool in
  check_bool "sweep chunks recycled one slot" true (s.Buffer_pool.evictions >= 7);
  (* A single non-sequential pin permanently promotes a chunk: after a
     point lookup touches a sweep chunk, the next sweep evicts around it
     too. *)
  ignore (Buffer_pool.pin pool ~key:"sweep9" ~load:(fun () -> tiny_chunk 109));
  Buffer_pool.unpin pool ~key:"sweep9";
  let reloads = ref 0 in
  for i = 10 to 19 do
    let k = Printf.sprintf "sweep%d" i in
    ignore (Buffer_pool.pin pool ~key:k ~load:(fun () -> tiny_chunk (100 + i)) ~seq:true);
    Buffer_pool.unpin pool ~key:k
  done;
  ignore
    (Buffer_pool.pin pool ~key:"sweep9" ~load:(fun () -> incr reloads; tiny_chunk 109));
  Buffer_pool.unpin pool ~key:"sweep9";
  check_int "promoted chunk survived the next sweep" 0 !reloads

(* A replaced relation's chunks are unreachable through the catalog (pool
   keys carry the relation id), so replace_table must release them instead
   of holding their memory until they age out of the pool.  The old value
   still reads fine — by faulting its chunks back in. *)
let test_buffer_pool_replace_evicts () =
  let schema =
    Schema.create [ { Schema.name = "k"; ty = Value.T_int }; { Schema.name = "v"; ty = Value.T_int } ]
  in
  let rows = Array.init 20_000 (fun i -> [| v_int i; v_int (i mod 7) |]) in
  let old_rel = Relation.create ~name:"replaced" ~schema rows in
  let catalog = Catalog.create () in
  Catalog.add_table catalog old_rel;
  let chunks = Relation.chunk_count old_rel in
  check_bool "fixture spans several chunks" true (chunks > 1);
  let resident () = (Buffer_pool.global_stats ()).Buffer_pool.resident_chunks in
  let before = resident () in
  Relation.iter (fun _ _ -> ()) old_rel;
  check_int "a read makes every chunk resident" (before + chunks) (resident ());
  Catalog.replace_table catalog (Relation.create ~name:"replaced" ~schema (Array.sub rows 0 10));
  check_int "replace drops the old chunks" before (resident ());
  let misses () = (Buffer_pool.global_stats ()).Buffer_pool.misses in
  let misses_before = misses () in
  check_bool "the old relation still reads" true (Relation.get old_rel 12_345 = rows.(12_345));
  check_int "by faulting its chunk in again" (misses_before + 1) (misses ())

(* ------------------------------------------------------------------ *)
(* Relation builder (heap and spill)                                   *)
(* ------------------------------------------------------------------ *)

let builder_rows n =
  Array.init n (fun i ->
      [|
        v_int i;
        (if i mod 97 = 0 then Value.Null else Value.String (Printf.sprintf "r%d" i));
        Value.Date (i mod 400);
      |])

let check_same_relation label expected rel =
  check_int (label ^ ": row count") (Array.length expected) (Relation.row_count rel);
  Array.iteri
    (fun i row ->
      if Relation.get rel i <> row then Alcotest.failf "%s: row %d differs" label i)
    expected

let test_builder_heap_matches_create () =
  let rows = builder_rows 10_000 in
  let b = Relation.Builder.create ~name:"built" ~schema:sample_schema () in
  Array.iter (Relation.Builder.add_row b) rows;
  check_int "running count" 10_000 (Relation.Builder.row_count b);
  let rel = Relation.Builder.finish b in
  check_same_relation "heap" rows rel;
  (* Spans several chunks, each with a zone map. *)
  check_bool "several chunks" true (Relation.chunk_count rel > 1);
  let zm = Relation.zone_map rel 0 in
  let c0 = Zone_map.column zm 0 in
  check_bool "first chunk id range" true
    (c0.Zone_map.lo = v_int 0 && c0.hi = v_int (Relation.chunk_row_count rel 0 - 1))

let test_builder_spill_roundtrip () =
  let rows = builder_rows 12_345 in
  let b = Relation.Builder.create ~spill:true ~name:"spilled" ~schema:sample_schema () in
  Array.iter (Relation.Builder.add_row b) rows;
  let rel = Relation.Builder.finish b in
  check_same_relation "spill" rows rel;
  check_int "chunk starts tile the heap" (Array.length rows)
    (List.init (Relation.chunk_count rel) (Relation.chunk_row_count rel)
    |> List.fold_left ( + ) 0)

(* ------------------------------------------------------------------ *)
(* Per-column spill layout, decode on first touch                      *)
(* ------------------------------------------------------------------ *)

let spilled_twin name rows =
  let b = Relation.Builder.create ~spill:true ~name ~schema:sample_schema () in
  Array.iter (Relation.Builder.add_row b) rows;
  Relation.Builder.finish b

(* Columns of a spilled chunk read in a random order, single cells read
   through [column_value], and every column again after an evict and
   re-fault all equal the heap twin's. *)
let test_spill_columns_match_heap () =
  let rows = builder_rows 10_000 in
  let heap = Relation.create ~name:"heap twin" ~schema:sample_schema rows in
  let spilled = spilled_twin "spilled twin" rows in
  check_bool "several chunks" true (Relation.chunk_count spilled > 1);
  let rng = Rq_math.Rng.create 29 in
  let arity = Schema.arity sample_schema in
  let heap_column ci c = Relation.with_chunk heap ci (fun chunk -> Chunk.column chunk c) in
  let check_chunks label =
    for ci = 0 to Relation.chunk_count spilled - 1 do
      let order = Array.init arity Fun.id in
      Rq_math.Rng.shuffle_in_place rng order;
      Relation.with_chunk spilled ci (fun chunk ->
          Array.iter
            (fun c ->
              if Chunk.column chunk c <> heap_column ci c then
                Alcotest.failf "%s: chunk %d column %d differs" label ci c)
            order)
    done
  in
  check_chunks "first fault";
  for _ = 1 to 200 do
    let rid = Rq_math.Rng.int rng (Array.length rows) in
    List.iter
      (fun col ->
        if Relation.column_value spilled rid col <> Relation.column_value heap rid col then
          Alcotest.failf "column_value rid %d column %s differs" rid col)
      [ "born"; "id"; "name" ]
  done;
  Relation.evict spilled;
  check_chunks "re-fault after evict";
  check_same_relation "whole rows" rows spilled

(* A spilled relation reads its file through one channel, opened on the
   first fault and closed by [evict]: 1,500 relations, more than a common
   1,024-descriptor limit, each faulted and then evicted, all read back
   and leave no descriptor open (counted where /proc/self/fd exists). *)
let test_spill_readers_close () =
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None
  in
  let before = open_fds () in
  let rows = builder_rows 5 in
  for i = 1 to 1_500 do
    let rel = spilled_twin (Printf.sprintf "tiny%d" i) rows in
    if Relation.get rel (i mod 5) <> rows.(i mod 5) then Alcotest.failf "relation %d misread" i;
    Relation.evict rel
  done;
  match (before, open_fds ()) with
  | Some b, Some a -> check_int "no descriptor left open" b a
  | _ -> ()

(* Four domains pin one spilled chunk at once and force its columns in
   four different orders: every domain sees the very same arrays, so each
   column decoded once, and they equal the heap twin's. *)
let test_spill_concurrent_first_touch () =
  let rows = builder_rows 3_000 in
  let spilled = spilled_twin "raced" rows in
  let orders = [| [| 0; 1; 2 |]; [| 2; 1; 0 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |] |] in
  Relation.evict spilled;
  let seen =
    Relation.with_chunk spilled 0 (fun _ ->
        (* All four pin, then all four start forcing together. *)
        let arrived = Atomic.make 0 in
        let workers =
          Array.map
            (fun order ->
              Domain.spawn (fun () ->
                  Relation.with_chunk spilled 0 (fun chunk ->
                      Atomic.incr arrived;
                      while Atomic.get arrived < Array.length orders do
                        Domain.cpu_relax ()
                      done;
                      let got = Array.make 3 [||] in
                      Array.iter (fun c -> got.(c) <- Chunk.column chunk c) order;
                      got)))
            orders
        in
        Array.map Domain.join workers)
  in
  let expected =
    Chunk.columns (Chunk.of_tuples (Array.sub rows 0 (Relation.chunk_row_count spilled 0)))
  in
  Array.iteri
    (fun d got ->
      Array.iteri
        (fun c col ->
          if col != seen.(0).(c) then Alcotest.failf "domain %d decoded column %d again" d c;
          if col <> expected.(c) then Alcotest.failf "domain %d: column %d differs" d c)
        got)
    seen

(* A decoder runs at most once per column, however the columns are
   reached, and a failing decode leaves the column to decode again. *)
let test_chunk_decoder_once () =
  let calls = Array.make 3 0 in
  let fail_once = ref true in
  let chunk =
    Chunk.of_decoder ~n_rows:4 ~n_columns:3 (fun c ->
        calls.(c) <- calls.(c) + 1;
        if c = 2 && !fail_once then begin
          fail_once := false;
          failwith "transient"
        end;
        Array.init 4 (fun r -> v_int ((10 * c) + r)))
  in
  check_bool "value reads column 1" true (Chunk.value chunk ~col:1 ~row:3 = v_int 13);
  check_int "only column 1 decoded" 0 (calls.(0) + calls.(2));
  Alcotest.check_raises "decode error propagates" (Failure "transient") (fun () ->
      ignore (Chunk.column chunk 2));
  check_bool "get forces the rest" true (Chunk.get chunk 2 = [| v_int 2; v_int 12; v_int 22 |]);
  ignore (Chunk.columns chunk);
  Chunk.iter (fun _ _ -> ()) chunk;
  Alcotest.(check (array int)) "one decode per column (two for the failed one)" [| 1; 1; 2 |] calls

(* ------------------------------------------------------------------ *)
(* Gather by RID                                                       *)
(* ------------------------------------------------------------------ *)

(* Three chunks of 4096, 4096 and 808 rows. *)
let gather_rows = builder_rows 9_000
let gather_rel = lazy (Relation.create ~name:"gathered" ~schema:sample_schema gather_rows)

let gen_rid_window =
  let n = Array.length gather_rows and rpc = 4096 in
  let sorted cmp l =
    let a = Array.of_list l in
    Array.sort cmp a;
    a
  in
  let some_rids = QCheck.Gen.(list_size (int_bound 300) (int_bound (n - 1))) in
  QCheck.Gen.(
    oneof
      [
        map (sorted compare) some_rids;
        map (sorted (fun a b -> compare b a)) some_rids;
        (* duplicates, unsorted: a handful of RIDs drawn again and again *)
        map Array.of_list (list_size (int_bound 300) (map (fun k -> k * 1_999 mod n) (int_bound 6)));
        (* one consecutive run straddling a chunk boundary *)
        map2
          (fun boundary len ->
            let start = max 0 ((boundary * rpc) - (len / 2)) in
            Array.init len (fun i -> min (n - 1) (start + i)))
          (int_range 1 2) (int_range 1 (2 * rpc));
        return [||];
      ]
    >>= fun rids ->
    let len = Array.length rids in
    map2 (fun a b -> (rids, min a b, max a b)) (int_bound len) (int_bound len))

let prop_gather_is_mapped_get =
  QCheck.Test.make ~name:"gather = Array.map get over the window" ~count:300
    (QCheck.make
       ~print:(fun (rids, lo, hi) ->
         Printf.sprintf "%d rids, window [%d, %d)" (Array.length rids) lo hi)
       gen_rid_window)
    (fun (rids, lo, hi) ->
      let rel = Lazy.force gather_rel in
      let got = ref [] in
      Relation.gather rel rids ~lo ~hi (fun i chunk r -> got := (i, Chunk.get chunk r) :: !got);
      List.rev !got
      = List.init (hi - lo) (fun k -> (lo + k, Relation.get rel rids.(lo + k))))

let test_gather_raises_and_unpins () =
  let rel = Lazy.force gather_rel in
  let resident () = (Buffer_pool.global_stats ()).Buffer_pool.resident_chunks in
  Relation.evict rel;
  let before = resident () in
  Alcotest.check_raises "rid out of range"
    (Invalid_argument "Relation.get gathered: rid 9000 out of range") (fun () ->
      Relation.gather rel [| 0; 1; 9_000 |] ~lo:0 ~hi:3 (fun _ _ _ -> ()));
  Alcotest.check_raises "negative rid"
    (Invalid_argument "Relation.get gathered: rid -1 out of range") (fun () ->
      Relation.gather rel [| 4_095; 4_096; -1 |] ~lo:0 ~hi:3 (fun _ _ _ -> ()));
  check_bool "window outside the array" true
    (try
       Relation.gather rel [| 0 |] ~lo:0 ~hi:2 (fun _ _ _ -> ());
       false
     with Invalid_argument _ -> true);
  Alcotest.check_raises "f raising mid-run" Exit (fun () ->
      Relation.gather rel [| 10; 11; 12 |] ~lo:0 ~hi:3 (fun i _ _ -> if i = 1 then raise Exit));
  (* Evicting drops only unpinned chunks, so any pin leaked above would
     leave its chunk resident. *)
  Relation.evict rel;
  check_int "no chunk left pinned" before (resident ())

(* ------------------------------------------------------------------ *)
(* Streaming CSV reader                                                *)
(* ------------------------------------------------------------------ *)

let with_csv_channel text f =
  let path = Filename.temp_file "rq_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic))

let fold_rows_result text =
  with_csv_channel text (fun ic ->
      Csv.fold_rows ic ~init:[] (fun acc fields -> Ok (fields :: acc)))
  |> Result.map List.rev

let prop_csv_fold_rows_matches_parse =
  let doc_gen =
    QCheck.Gen.(
      oneof
        [
          map
            (fun rows -> Csv.render rows)
            (list_size (int_range 0 6)
               (list_size (int_range 1 4)
                  (oneof [ string_size (int_range 0 6); return "a,b"; return "q\"q"; return "x\ny" ])));
          (* Raw text, including malformed quoting: error parity matters too. *)
          string_size (int_range 0 40);
        ])
  in
  QCheck.Test.make ~name:"fold_rows sees exactly what parse sees" ~count:300
    (QCheck.make doc_gen) (fun text ->
      match (Csv.parse text, fold_rows_result text) with
      | Ok a, Ok b -> a = b
      | Error a, Error b -> a = b
      | _ -> false)

let test_csv_fold_rows_early_abort () =
  let result =
    with_csv_channel "a,b\nc,d\ne,f\n" (fun ic ->
        Csv.fold_rows ic ~init:0 (fun n _ -> if n = 1 then Error "stop" else Ok (n + 1)))
  in
  check_bool "callback error aborts the fold" true (result = Error "stop")

(* ------------------------------------------------------------------ *)
(* Zone-map pruning law                                                 *)
(* ------------------------------------------------------------------ *)

(* A skip decision must be justified: whenever [Prune.chunk_may_match]
   says no row can match, compiled row-at-a-time evaluation over the very
   same chunk finds no match either — across null-bearing data and the
   whole predicate grammar (including Not, Or, Between and Contains). *)

let prune_schema =
  Schema.create
    [
      { Schema.name = "a"; ty = Value.T_int };
      { Schema.name = "b"; ty = Value.T_int };
      { Schema.name = "s"; ty = Value.T_string };
    ]

let gen_prune_cell =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        (6, map (fun i -> Value.Int i) (int_range (-20) 20));
      ])

let gen_prune_rows =
  QCheck.Gen.(
    list_size (int_range 1 24)
      (map2
         (fun ab s -> [| fst ab; snd ab; s |])
         (pair gen_prune_cell gen_prune_cell)
         (oneof
            [
              return Value.Null;
              map (fun i -> Value.String (Printf.sprintf "s%d" i)) (int_range 0 5);
            ])))

let gen_prune_pred =
  let open QCheck.Gen in
  let open Rq_exec in
  let expr = oneof [ return (Expr.col "a"); return (Expr.col "b"); map Expr.int (int_range (-25) 25) ] in
  let atom =
    oneof
      [
        map2 (fun c (l, r) -> Pred.Cmp (c, l, r))
          (oneofl [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ])
          (pair expr expr);
        map2 (fun e (l, h) -> Pred.Between (e, Expr.int (min l h), Expr.int (max l h)))
          expr
          (pair (int_range (-25) 25) (int_range (-25) 25));
        map (fun i -> Pred.Contains (Expr.col "s", Printf.sprintf "s%d" i)) (int_range 0 6);
        oneofl [ Pred.True; Pred.False ];
      ]
  in
  let rec pred depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map (fun ps -> Pred.And ps) (list_size (int_range 1 3) (pred (depth - 1))));
          (1, map (fun ps -> Pred.Or ps) (list_size (int_range 1 3) (pred (depth - 1))));
          (1, map (fun p -> Pred.Not p) (pred (depth - 1)));
        ]
  in
  pred 2

let prop_zone_map_skip_is_sound =
  QCheck.Test.make ~name:"zone-map skip implies no matching row" ~count:2000
    (QCheck.make QCheck.Gen.(pair gen_prune_rows gen_prune_pred))
    (fun (rows, pred) ->
      let chunk = Chunk.of_tuples (Array.of_list rows) in
      let zm = Zone_map.of_chunk chunk in
      let may_match = Rq_exec.Prune.chunk_may_match prune_schema zm pred in
      let matcher = Rq_exec.Pred.compile prune_schema pred in
      let any_row_matches =
        let found = ref false in
        Chunk.iter (fun _ tup -> if matcher tup then found := true) chunk;
        !found
      in
      (* Soundness: a skip may never hide a matching row.  (Completeness is
         not required — may_match=true with zero matches is fine.) *)
      may_match || not any_row_matches)

(* Page accounting of a (possibly resumed) sequential scan: the pages of
   its chunk tasks, read or skipped, telescope to the resume geometry
   whatever the zone maps decide, and an executed scan charges exactly
   those pages as read + skipped.  Column [a] ascends across the relation,
   so chunks cover disjoint ranges of it and the predicates skip some. *)
let prop_scan_pages_telescope =
  let rpc = Page.rows_per_chunk prune_schema in
  let gen =
    QCheck.Gen.(
      int_range 1 (3 * rpc) >>= fun n ->
      quad (return n) (int_range 0 n) int gen_prune_pred)
  in
  QCheck.Test.make ~name:"scan pages telescope, read + skipped" ~count:40
    (QCheck.make
       ~print:(fun (n, from, seed, pred) ->
         Printf.sprintf "%d rows from %d, seed %d, pred %s" n from seed (Rq_exec.Pred.render pred))
       gen)
    (fun (n, from, seed, pred) ->
      let st = Random.State.make [| seed |] in
      let rows =
        Array.init n (fun i ->
            [|
              v_int (-20 + (41 * i / n));
              (if Random.State.int st 7 = 0 then Value.Null
               else v_int (Random.State.int st 41 - 20));
              (if Random.State.bool st then Value.Null
               else Value.String (Printf.sprintf "s%d" (Random.State.int st 6)));
            |])
      in
      let agrees ~spill =
        let b = Relation.Builder.create ~spill ~name:"paged" ~schema:prune_schema () in
        Array.iter (Relation.Builder.add_row b) rows;
        let rel = Relation.Builder.finish b in
        let planned =
          List.fold_left
            (fun acc (t : Rq_exec.Chunk_scan.task) -> acc + t.pages)
            0
            (Rq_exec.Chunk_scan.tasks ~from rel pred)
        in
        let catalog = Catalog.create () in
        Catalog.add_table catalog rel;
        let meter = Rq_exec.Cost.create () in
        let plan =
          if from = 0 then Rq_exec.Plan.Scan { table = "paged"; access = Rq_exec.Plan.Seq_scan; pred }
          else Rq_exec.Plan.Scan_resume { table = "paged"; pred; from_rid = from }
        in
        ignore (Rq_exec.Executor.run catalog meter plan);
        let snap = Rq_exec.Cost.snapshot meter in
        planned = Rq_exec.Chunk_scan.resume_pages rel ~from
        && snap.Rq_exec.Cost.seq_pages + snap.Rq_exec.Cost.pages_skipped = planned
      in
      agrees ~spill:false && agrees ~spill:true)

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

let two_table_catalog () =
  let parent_schema =
    Schema.create [ { Schema.name = "pk"; ty = Value.T_int }; { Schema.name = "label"; ty = Value.T_string } ]
  in
  let child_schema =
    Schema.create [ { Schema.name = "id"; ty = Value.T_int }; { Schema.name = "fk"; ty = Value.T_int } ]
  in
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~primary_key:"pk"
    (Relation.create ~name:"parent" ~schema:parent_schema
       (Array.init 3 (fun i -> [| v_int i; Value.String "x" |])));
  Catalog.add_table catalog ~primary_key:"id"
    (Relation.create ~name:"child" ~schema:child_schema
       (Array.init 6 (fun i -> [| v_int i; v_int (i mod 3) |])));
  catalog

let test_catalog_tables () =
  let catalog = two_table_catalog () in
  Alcotest.(check (list string)) "names sorted" [ "child"; "parent" ] (Catalog.table_names catalog);
  Alcotest.(check (option string)) "pk" (Some "pk") (Catalog.primary_key catalog "parent");
  Alcotest.(check (option string)) "clustering defaults to pk" (Some "pk")
    (Catalog.clustered_by catalog "parent");
  check_bool "find_opt none" true (Catalog.find_table_opt catalog "nope" = None);
  Alcotest.check_raises "find raises" Not_found (fun () ->
      ignore (Catalog.find_table catalog "nope"))

let test_catalog_duplicate_table () =
  let catalog = two_table_catalog () in
  Alcotest.check_raises "duplicate" (Invalid_argument "Catalog.add_table: duplicate table \"parent\"")
    (fun () ->
      Catalog.add_table catalog
        (Relation.create ~name:"parent"
           ~schema:(Schema.create [ { Schema.name = "a"; ty = Value.T_int } ])
           [||]))

let test_catalog_fk_validation () =
  let catalog = two_table_catalog () in
  (* Referencing a non-PK column must fail. *)
  Alcotest.check_raises "non-pk target"
    (Invalid_argument "Catalog.add_foreign_key: parent.label is not the primary key of parent")
    (fun () ->
      Catalog.add_foreign_key catalog
        { from_table = "child"; from_column = "fk"; to_table = "parent"; to_column = "label" });
  Catalog.add_foreign_key catalog
    { from_table = "child"; from_column = "fk"; to_table = "parent"; to_column = "pk" };
  check_int "fk registered" 1 (List.length (Catalog.foreign_keys_from catalog "child"));
  check_int "incoming fk" 1 (List.length (Catalog.foreign_keys_into catalog "parent"));
  check_bool "edge lookup" true
    (Catalog.fk_edge catalog ~from_table:"child" ~to_table:"parent" <> None)

let test_catalog_fk_cycle () =
  let catalog = Catalog.create () in
  let schema table_pk fk_col =
    Schema.create
      [ { Schema.name = table_pk; ty = Value.T_int }; { Schema.name = fk_col; ty = Value.T_int } ]
  in
  Catalog.add_table catalog ~primary_key:"a_pk"
    (Relation.create ~name:"a" ~schema:(schema "a_pk" "a_fk") [||]);
  Catalog.add_table catalog ~primary_key:"b_pk"
    (Relation.create ~name:"b" ~schema:(schema "b_pk" "b_fk") [||]);
  Catalog.add_foreign_key catalog
    { from_table = "a"; from_column = "a_fk"; to_table = "b"; to_column = "b_pk" };
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Catalog.add_foreign_key: edge b -> a would create a cycle") (fun () ->
      Catalog.add_foreign_key catalog
        { from_table = "b"; from_column = "b_fk"; to_table = "a"; to_column = "a_pk" })

let test_catalog_indexes () =
  let catalog = two_table_catalog () in
  Catalog.build_index catalog ~table:"child" ~column:"fk";
  Catalog.build_index catalog ~table:"child" ~column:"fk";
  check_bool "index exists" true (Catalog.find_index catalog ~table:"child" ~column:"fk" <> None);
  check_int "idempotent build" 1 (List.length (Catalog.indexes_on catalog "child"))

let test_catalog_replace_table () =
  let catalog = two_table_catalog () in
  Catalog.build_index catalog ~table:"child" ~column:"fk";
  let child = Catalog.find_table catalog "child" in
  (* Double the child rows; the registered index must see the new heap. *)
  let doubled =
    Array.init (2 * Relation.row_count child) (fun i -> [| v_int i; v_int (i mod 3) |])
  in
  Catalog.replace_table catalog
    (Relation.create ~name:"child" ~schema:(Relation.schema child) doubled);
  check_int "rows replaced" 12 (Relation.row_count (Catalog.find_table catalog "child"));
  (match Catalog.find_index catalog ~table:"child" ~column:"fk" with
  | Some idx -> check_int "index follows the new rows" 12 (Index.entry_count idx)
  | None -> Alcotest.fail "index lost");
  check_bool "unknown table rejected" true
    (try
       Catalog.replace_table catalog
         (Relation.create ~name:"ghost"
            ~schema:(Schema.create [ { Schema.name = "x"; ty = Value.T_int } ])
            [||]);
       false
     with Invalid_argument _ -> true);
  check_bool "schema change rejected" true
    (try
       Catalog.replace_table catalog
         (Relation.create ~name:"child"
            ~schema:(Schema.create [ { Schema.name = "x"; ty = Value.T_int } ])
            [||]);
       false
     with Invalid_argument _ -> true)

(* Patched indexes.  After [Catalog.replace_table], every registered index
   must equal [Index.build] on the new relation, whatever the edit: cell
   changes, growth, shrinkage, an identical copy, heap or spill on either
   side.  Narrow key domains make equal keys common, so ties between kept
   and re-inserted entries are exercised; padding columns shrink chunks to
   192 rows, so edits land in every chunk, the last one included. *)

let patch_key_columns =
  [ ("i", Value.T_int); ("f", Value.T_float); ("s", Value.T_string); ("d", Value.T_date) ]

let patch_schema =
  Schema.create
    (List.map (fun (name, ty) -> { Schema.name; ty }) patch_key_columns
    @ List.init 30 (fun i -> { Schema.name = Printf.sprintf "pad%d" i; ty = Value.T_string }))

let random_key st ty =
  if Random.State.int st 5 = 0 then Value.Null
  else
    match ty with
    | Value.T_int -> Value.Int (Random.State.int st 12)
    | T_float -> (
        match Random.State.int st 8 with
        | 0 -> Value.Float 0.0
        | 1 -> Value.Float (-0.0)
        | k -> Value.Float (float_of_int k /. 2.0))
    | T_string -> Value.String (String.make 1 (Char.chr (97 + Random.State.int st 6)))
    | T_date -> Value.Date (10_000 + Random.State.int st 9)
    | T_bool -> Value.Bool (Random.State.bool st)

let random_patch_row st =
  Array.init (Schema.arity patch_schema) (fun c ->
      match List.nth_opt patch_key_columns c with
      | Some (_, ty) -> random_key st ty
      | None -> Value.Null)

let patch_relation ~spill rows =
  let b = Relation.Builder.create ~spill ~name:"patched" ~schema:patch_schema () in
  Array.iter (Relation.Builder.add_row b) rows;
  Relation.Builder.finish b

(* The edited rows: identical copy (same tuples, or structurally equal
   fresh ones), cell edits, growth or shrinkage (each with edits too). *)
let edit_rows st rows =
  let n = Array.length rows in
  let edit rows =
    Array.map
      (fun tup ->
        if Random.State.int st 4 = 0 then begin
          let tup = Array.copy tup in
          let c = Random.State.int st (List.length patch_key_columns) in
          tup.(c) <- random_key st (snd (List.nth patch_key_columns c));
          tup
        end
        else tup)
      rows
  in
  match Random.State.int st 5 with
  | 0 -> rows
  | 1 -> Array.map (Array.map (function Value.Float x -> Value.Float x | v -> v)) rows
  | 2 -> edit rows
  | 3 ->
      edit (Array.append rows (Array.init (1 + Random.State.int st 300) (fun _ -> random_patch_row st)))
  | _ -> edit (Array.sub rows 0 (Random.State.int st (n + 1)))

(* Exact key identity ([Value.compare] equates 0.0 and -0.0). *)
let same_value a b = Value.compare a b = 0 && Value.to_key a = Value.to_key b

let index_matches_build idx rel st =
  let expected = Index.build rel (Index.column idx) in
  let same_rids a b = Rid_set.to_array a = Rid_set.to_array b in
  let some_key () =
    if Random.State.int st 4 = 0 then None
    else
      Some
        (random_key st
           (List.assoc (Index.column idx) patch_key_columns))
  in
  Index.ordered_rids idx ~descending:false = Index.ordered_rids expected ~descending:false
  && Index.ordered_rids idx ~descending:true = Index.ordered_rids expected ~descending:true
  && Index.entry_count idx = Index.entry_count expected
  && Index.leaf_page_count idx = Index.leaf_page_count expected
  && Option.equal same_value (Index.min_key idx) (Index.min_key expected)
  && Option.equal same_value (Index.max_key idx) (Index.max_key expected)
  && List.for_all
       (fun _ ->
         let lo = some_key () and hi = some_key () in
         let eq = Option.value lo ~default:Value.Null in
         same_rids (Index.probe_eq idx eq) (Index.probe_eq expected eq)
         && same_rids (Index.probe_range idx ~lo ~hi) (Index.probe_range expected ~lo ~hi))
       (List.init 8 Fun.id)

let prop_replace_table_patches_indexes =
  QCheck.Test.make ~name:"replace_table leaves every index equal to a rebuild" ~count:150
    QCheck.(pair small_nat int)
    (fun (size, seed) ->
      let st = Random.State.make [| seed |] in
      let n = (size * 7) mod 600 in
      let rows = Array.init n (fun _ -> random_patch_row st) in
      let catalog = Catalog.create () in
      Catalog.add_table catalog (patch_relation ~spill:(Random.State.bool st) rows);
      List.iter
        (fun (column, _) -> Catalog.build_index catalog ~table:"patched" ~column)
        patch_key_columns;
      let rel = patch_relation ~spill:(Random.State.bool st) (edit_rows st rows) in
      Catalog.replace_table catalog rel;
      List.for_all (fun idx -> index_matches_build idx rel st) (Catalog.indexes_on catalog "patched"))

let test_replace_table_keeps_unchanged_indexes () =
  let st = Random.State.make [| 7 |] in
  let rows = Array.init 500 (fun _ -> random_patch_row st) in
  let catalog = Catalog.create () in
  Catalog.add_table catalog (patch_relation ~spill:false rows);
  Catalog.build_index catalog ~table:"patched" ~column:"i";
  Catalog.build_index catalog ~table:"patched" ~column:"s";
  let index column = Option.get (Catalog.find_index catalog ~table:"patched" ~column) in
  let before_i = index "i" and before_s = index "s" in
  (* A fresh copy of every row with only column [i] edited in a few. *)
  let edited =
    Array.mapi
      (fun r tup ->
        let tup = Array.copy tup in
        if r mod 50 = 3 then tup.(0) <- Value.Int (100 + r);
        tup)
      rows
  in
  let rel = patch_relation ~spill:true edited in
  Catalog.replace_table catalog rel;
  check_bool "index on the unchanged column is the same value" true (index "s" == before_s);
  check_bool "index on the edited column is new" false (index "i" == before_i);
  check_bool "and equals a rebuild" true
    (Index.ordered_rids (index "i") ~descending:false
    = Index.ordered_rids (Index.build rel "i") ~descending:false)

let test_catalog_reachability () =
  let catalog = two_table_catalog () in
  Catalog.add_foreign_key catalog
    { from_table = "child"; from_column = "fk"; to_table = "parent"; to_column = "pk" };
  Alcotest.(check (list string)) "reachable from child" [ "child"; "parent" ]
    (Catalog.reachable_via_fk catalog "child");
  Alcotest.(check (list string)) "parent reaches only itself" [ "parent" ]
    (Catalog.reachable_via_fk catalog "parent")

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rq_storage"
    [
      ( "value",
        [
          Alcotest.test_case "cross-type ordering" `Quick test_value_ordering;
          Alcotest.test_case "numeric cross compare" `Quick test_value_numeric_cross_compare;
          Alcotest.test_case "to_float" `Quick test_value_to_float;
          Alcotest.test_case "date known values" `Quick test_value_date_known;
          Alcotest.test_case "printing" `Quick test_value_pp;
        ]
        @ qcheck [ prop_value_date_roundtrip; prop_value_date_add_days_consistent ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "duplicate rejected" `Quick test_schema_duplicate;
          Alcotest.test_case "project" `Quick test_schema_project;
          Alcotest.test_case "qualify" `Quick test_schema_qualify;
          Alcotest.test_case "row bytes" `Quick test_schema_row_bytes;
        ] );
      ( "relation",
        [
          Alcotest.test_case "basics" `Quick test_relation_basics;
          Alcotest.test_case "arity mismatch" `Quick test_relation_arity_mismatch;
          Alcotest.test_case "get bounds" `Quick test_relation_get_bounds;
          Alcotest.test_case "page geometry" `Quick test_relation_page_geometry;
          Alcotest.test_case "fold and filter" `Quick test_relation_fold_filter;
        ] );
      ( "rid_set",
        [
          Alcotest.test_case "dedup" `Quick test_rid_set_dedup;
          Alcotest.test_case "mem" `Quick test_rid_set_mem;
        ]
        @ qcheck [ prop_rid_set_inter; prop_rid_set_union ] );
      ( "index",
        [
          Alcotest.test_case "probe_eq with duplicates" `Quick test_index_probe_eq;
          Alcotest.test_case "ranges skip nulls" `Quick test_index_range_nulls;
          Alcotest.test_case "leaf pages" `Quick test_index_leaf_pages;
        ]
        @ qcheck [ prop_index_range_matches_scan ] );
      ( "csv",
        [
          Alcotest.test_case "basic parsing" `Quick test_csv_parse_basic;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "CRLF and blank lines" `Quick test_csv_crlf_and_blank_lines;
          Alcotest.test_case "typed conversion" `Quick test_csv_typed_conversion;
          Alcotest.test_case "fold_rows early abort" `Quick test_csv_fold_rows_early_abort;
        ]
        @ qcheck [ prop_csv_roundtrip; prop_csv_fold_rows_matches_parse ] );
      ( "page geometry",
        [ Alcotest.test_case "one constant everywhere" `Quick test_page_geometry ] );
      ( "chunk",
        [
          Alcotest.test_case "columnar roundtrip" `Quick test_chunk_roundtrip;
          Alcotest.test_case "zone-map stats" `Quick test_zone_map_stats;
        ]
        @ qcheck [ prop_zone_map_skip_is_sound; prop_scan_pages_telescope ] );
      ( "buffer pool",
        [
          Alcotest.test_case "hits and LRU eviction" `Quick test_buffer_pool_hits_and_eviction;
          Alcotest.test_case "pins block eviction" `Quick test_buffer_pool_pins_block_eviction;
          Alcotest.test_case "resize and reset" `Quick test_buffer_pool_resize_and_reset;
          Alcotest.test_case "sequential sweeps don't flush lookup chunks" `Quick
            test_buffer_pool_scan_resistance;
          Alcotest.test_case "replaced relations leave the pool" `Quick
            test_buffer_pool_replace_evicts;
        ] );
      ( "builder",
        [
          Alcotest.test_case "heap matches create" `Quick test_builder_heap_matches_create;
          Alcotest.test_case "spill roundtrip" `Quick test_builder_spill_roundtrip;
          Alcotest.test_case "spilled columns match the heap twin" `Quick
            test_spill_columns_match_heap;
          Alcotest.test_case "concurrent first touch decodes once" `Quick
            test_spill_concurrent_first_touch;
          Alcotest.test_case "one spill reader per relation, closed on evict" `Quick
            test_spill_readers_close;
          Alcotest.test_case "decoder runs once per column" `Quick test_chunk_decoder_once;
        ] );
      ( "gather",
        Alcotest.test_case "raises out of range, leaks no pin" `Quick
          test_gather_raises_and_unpins
        :: qcheck [ prop_gather_is_mapped_get ] );
      ( "catalog",
        [
          Alcotest.test_case "tables" `Quick test_catalog_tables;
          Alcotest.test_case "duplicate table" `Quick test_catalog_duplicate_table;
          Alcotest.test_case "fk validation" `Quick test_catalog_fk_validation;
          Alcotest.test_case "fk cycle rejected" `Quick test_catalog_fk_cycle;
          Alcotest.test_case "indexes" `Quick test_catalog_indexes;
          Alcotest.test_case "replace table" `Quick test_catalog_replace_table;
          Alcotest.test_case "replace table keeps unchanged indexes" `Quick
            test_replace_table_keeps_unchanged_indexes;
          Alcotest.test_case "fk reachability" `Quick test_catalog_reachability;
        ]
        @ qcheck [ prop_replace_table_patches_indexes ] );
    ]
