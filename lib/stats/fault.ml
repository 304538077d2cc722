open Rq_storage

type kind = Stale | Missing | Corrupt | Budget_exceeded

type event = { kind : kind; subsystem : string; detail : string }

let kind_to_string = function
  | Stale -> "stale"
  | Missing -> "missing"
  | Corrupt -> "corrupt"
  | Budget_exceeded -> "budget-exceeded"

let pp_event fmt e =
  Format.fprintf fmt "[%s] %s: %s" (kind_to_string e.kind) e.subsystem e.detail

let event_to_string e = Format.asprintf "%a" pp_event e

type injection =
  | Drop_synopsis of string
  | Truncate_synopsis of { root : string; keep : int }
  | Corrupt_synopsis of string
  | Skew_synopsis of { root : string; factor : float }
  | Drop_histogram of { table : string; column : string }
  | Dangling_fk of { root : string; break : int }

let injection_to_string = function
  | Drop_synopsis root -> Printf.sprintf "drop-synopsis(%s)" root
  | Truncate_synopsis { root; keep } -> Printf.sprintf "truncate-synopsis(%s,%d)" root keep
  | Corrupt_synopsis root -> Printf.sprintf "corrupt-synopsis(%s)" root
  | Skew_synopsis { root; factor } -> Printf.sprintf "skew-synopsis(%s,%g)" root factor
  | Drop_histogram { table; column } -> Printf.sprintf "drop-histogram(%s.%s)" table column
  | Dangling_fk { root; break } -> Printf.sprintf "dangling-fk(%s,%d)" root break

(* A value the column's declared type can never hold, so verification spots
   the damage by a schema check alone — no predicate is ever evaluated over
   corrupted bytes. *)
let poison = function
  | Value.T_string -> Value.Int 0xBAD
  | _ -> Value.String "\xef\xbf\xbdcorrupt"

let corrupt_rows rng schema rows =
  let cols = Array.of_list (Schema.columns schema) in
  Array.map
    (fun tup ->
      let tup = Array.copy tup in
      let i = Rq_math.Rng.int rng (Array.length cols) in
      tup.(i) <- poison cols.(i).Schema.ty;
      tup)
    rows

let apply_one rng stats = function
  | Drop_synopsis root -> Stats_store.with_synopsis stats ~root None
  | Truncate_synopsis { root; keep } -> (
      match Stats_store.synopsis stats ~root with
      | None -> stats
      | Some syn ->
          Stats_store.with_synopsis stats ~root (Some (Join_synopsis.truncate syn keep)))
  | Corrupt_synopsis root -> (
      match Stats_store.synopsis stats ~root with
      | None -> stats
      | Some syn ->
          let rel = Sample.rows (Join_synopsis.sample syn) in
          let rows = Array.of_seq (Relation.to_seq rel) in
          let damaged = corrupt_rows rng (Relation.schema rel) rows in
          Stats_store.with_synopsis stats ~root (Some (Join_synopsis.with_rows syn damaged)))
  | Skew_synopsis { root; factor } -> (
      match Stats_store.synopsis stats ~root with
      | None -> stats
      | Some syn ->
          let skewed =
            int_of_float (Float.max 1.0 (float_of_int (Join_synopsis.root_size syn) *. factor))
          in
          Stats_store.with_synopsis stats ~root (Some (Join_synopsis.with_root_size syn skewed)))
  | Drop_histogram { table; column } -> Stats_store.with_histogram stats ~table ~column None
  | Dangling_fk { root; break } -> (
      (* Break referential integrity *inside* the synopsis: the first [break]
         sample rows get an FK-side key that no longer matches the dimension
         key stitched into the same row.  Unlike [Corrupt_synopsis] the
         damage is type-correct, so only the FK consistency check can see
         it.  A prefix is damaged (not random rows) so the bounded
         verification scan is guaranteed to look at a broken row. *)
      match Stats_store.synopsis stats ~root with
      | None -> stats
      | Some syn -> (
          let rel = Sample.rows (Join_synopsis.sample syn) in
          let schema = Relation.schema rel in
          let tables = Join_synopsis.tables syn in
          let edges =
            List.concat_map
              (fun table ->
                List.filter
                  (fun (fk : Catalog.foreign_key) -> List.mem fk.to_table tables)
                  (Catalog.foreign_keys_from (Stats_store.catalog stats) table))
              tables
          in
          match edges with
          | [] -> stats (* single-table synopsis: no FK edge to dangle *)
          | fk :: _ ->
              let fpos = Schema.index_of schema (fk.from_table ^ "." ^ fk.from_column) in
              let dangle = function
                | Value.Int k -> Value.Int (-abs k - 1_000_003)
                | Value.Float f -> Value.Float (-.Float.abs f -. 1e9)
                | Value.String s -> Value.String (s ^ "\x00dangling")
                | Value.Date d -> Value.Date (d + 1_000_003)
                | Value.Bool b -> Value.Bool (not b)
                | Value.Null -> Value.Int (-1_000_003)
              in
              let rows = Array.of_seq (Relation.to_seq rel) in
              let break = min (max break 1) (Array.length rows) in
              let damaged =
                Array.mapi
                  (fun i tup ->
                    if i < break then begin
                      let tup = Array.copy tup in
                      tup.(fpos) <- dangle tup.(fpos);
                      tup
                    end
                    else tup)
                  rows
              in
              Stats_store.with_synopsis stats ~root (Some (Join_synopsis.with_rows syn damaged))))

let apply rng stats injections = List.fold_left (apply_one rng) stats injections

(* ------------------------------------------------------------------ *)
(* Serialization (fuzzer repro files)                                  *)
(* ------------------------------------------------------------------ *)

let injection_to_json inj =
  let open Rq_obs.Json in
  match inj with
  | Drop_synopsis root -> Obj [ ("kind", Str "drop-synopsis"); ("root", Str root) ]
  | Truncate_synopsis { root; keep } ->
      Obj [ ("kind", Str "truncate-synopsis"); ("root", Str root); ("keep", Num (float_of_int keep)) ]
  | Corrupt_synopsis root -> Obj [ ("kind", Str "corrupt-synopsis"); ("root", Str root) ]
  | Skew_synopsis { root; factor } ->
      Obj [ ("kind", Str "skew-synopsis"); ("root", Str root); ("factor", Num factor) ]
  | Drop_histogram { table; column } ->
      Obj [ ("kind", Str "drop-histogram"); ("table", Str table); ("column", Str column) ]
  | Dangling_fk { root; break } ->
      Obj [ ("kind", Str "dangling-fk"); ("root", Str root); ("break", Num (float_of_int break)) ]

let injection_of_json json =
  let open Rq_obs.Json in
  let field obj name =
    match obj with
    | Obj fields -> (
        match List.assoc_opt name fields with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "fault injection: missing field %S" name))
    | _ -> Error "fault injection: expected an object"
  in
  let str obj name =
    match field obj name with
    | Ok (Str s) -> Ok s
    | Ok _ -> Error (Printf.sprintf "fault injection: field %S must be a string" name)
    | Error e -> Error e
  in
  let num obj name =
    match field obj name with
    | Ok (Num n) -> Ok n
    | Ok _ -> Error (Printf.sprintf "fault injection: field %S must be a number" name)
    | Error e -> Error e
  in
  let ( let* ) = Result.bind in
  let* kind = str json "kind" in
  match kind with
  | "drop-synopsis" ->
      let* root = str json "root" in
      Ok (Drop_synopsis root)
  | "truncate-synopsis" ->
      let* root = str json "root" in
      let* keep = num json "keep" in
      Ok (Truncate_synopsis { root; keep = int_of_float keep })
  | "corrupt-synopsis" ->
      let* root = str json "root" in
      Ok (Corrupt_synopsis root)
  | "skew-synopsis" ->
      let* root = str json "root" in
      let* factor = num json "factor" in
      Ok (Skew_synopsis { root; factor })
  | "drop-histogram" ->
      let* table = str json "table" in
      let* column = str json "column" in
      Ok (Drop_histogram { table; column })
  | "dangling-fk" ->
      let* root = str json "root" in
      let* break = num json "break" in
      Ok (Dangling_fk { root; break = int_of_float break })
  | other -> Error (Printf.sprintf "fault injection: unknown kind %S" other)

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let min_usable_sample = 8
let max_staleness_drift = 2.0
let verify_rows = 50

let verify_synopsis catalog syn =
  let root = Join_synopsis.root syn in
  let subsystem = "synopsis:" ^ root in
  let fail kind detail = Error { kind; subsystem; detail } in
  match Catalog.find_table_opt catalog root with
  | None -> fail Stale (Printf.sprintf "root table %s no longer in catalog" root)
  | Some rel ->
      let n = Join_synopsis.size syn in
      if n = 0 then fail Missing "synopsis sample is empty"
      else if n < min_usable_sample then
        fail Missing (Printf.sprintf "sample truncated to %d rows (< %d usable)" n min_usable_sample)
      else begin
        let live = float_of_int (max 1 (Relation.row_count rel)) in
        let recorded = float_of_int (max 1 (Join_synopsis.root_size syn)) in
        let drift = Float.max (live /. recorded) (recorded /. live) in
        if drift > max_staleness_drift then
          fail Stale
            (Printf.sprintf "recorded root size %.0f vs live %.0f (drift %.1fx)" recorded live
               drift)
        else begin
          let sample_rel = Sample.rows (Join_synopsis.sample syn) in
          let schema = Relation.schema sample_rel in
          let cols = Array.of_list (Schema.columns schema) in
          let checked = min verify_rows (Relation.row_count sample_rel) in
          (* The first [checked] rows, each chunk pinned once. *)
          let iter_checked f =
            Relation.gather sample_rel (Array.init checked Fun.id) ~lo:0 ~hi:checked
              (fun r chunk row -> f r (Chunk.get chunk row))
          in
          let type_error = ref None in
          (try
             iter_checked (fun r tup ->
                 Array.iteri
                   (fun i (col : Schema.column) ->
                     match Value.type_of tup.(i) with
                     | None -> () (* NULLs are legal in any column *)
                     | Some ty ->
                         if ty <> col.Schema.ty && !type_error = None then
                           type_error :=
                             Some
                               (Printf.sprintf "row %d column %s holds %s, declared %s" r
                                  col.Schema.name (Value.ty_to_string ty)
                                  (Value.ty_to_string col.Schema.ty)))
                   cols)
           with _ -> type_error := Some "sample rows unreadable");
          match !type_error with
          | Some detail -> fail Corrupt detail
          | None ->
              (* FK consistency: within one synopsis row, every covered FK
                 edge must link matching key values — that is the defining
                 invariant of a join synopsis. *)
              let tables = Join_synopsis.tables syn in
              let edges =
                List.concat_map
                  (fun table ->
                    List.filter
                      (fun (fk : Catalog.foreign_key) -> List.mem fk.to_table tables)
                      (Catalog.foreign_keys_from catalog table))
                  tables
              in
              let fk_mismatch =
                List.find_map
                  (fun (fk : Catalog.foreign_key) ->
                    let fpos = Schema.index_of schema (fk.from_table ^ "." ^ fk.from_column) in
                    let tpos = Schema.index_of schema (fk.to_table ^ "." ^ fk.to_column) in
                    let bad = ref None in
                    iter_checked (fun r tup ->
                        if !bad = None && not (Value.equal tup.(fpos) tup.(tpos)) then
                          bad :=
                            Some
                              (Printf.sprintf "row %d breaks FK %s.%s = %s.%s" r
                                 fk.from_table fk.from_column fk.to_table fk.to_column));
                    !bad)
                  edges
              in
              (match fk_mismatch with
              | Some detail -> fail Corrupt detail
              | None -> Ok ())
        end
      end

(* ------------------------------------------------------------------ *)
(* Named profiles                                                      *)
(* ------------------------------------------------------------------ *)

let profile_names =
  [ "none"; "missing"; "truncate"; "corrupt"; "stale"; "dangling-fk"; "chaos" ]

let profile_injections rng stats name =
  let roots = Stats_store.synopsis_roots stats in
  match name with
  | "none" -> Ok []
  | "missing" -> Ok (List.map (fun r -> Drop_synopsis r) roots)
  | "truncate" -> Ok (List.map (fun r -> Truncate_synopsis { root = r; keep = 2 }) roots)
  | "corrupt" -> Ok (List.map (fun r -> Corrupt_synopsis r) roots)
  | "stale" -> Ok (List.map (fun r -> Skew_synopsis { root = r; factor = 16.0 }) roots)
  | "dangling-fk" ->
      (* Only roots whose synopsis stitches in at least one other table have
         an FK edge to break; single-table synopses are left alone. *)
      Ok
        (List.filter_map
           (fun r ->
             match Stats_store.synopsis stats ~root:r with
             | Some syn when List.length (Join_synopsis.tables syn) > 1 ->
                 Some (Dangling_fk { root = r; break = max 1 (Join_synopsis.size syn / 2) })
             | _ -> None)
           roots)
  | "chaos" ->
      let per_root root =
        Rq_math.Rng.pick rng
          [|
            Drop_synopsis root;
            Truncate_synopsis { root; keep = 2 };
            Corrupt_synopsis root;
            Skew_synopsis { root; factor = 16.0 };
            Dangling_fk { root; break = 25 };
          |]
      in
      let catalog = Stats_store.catalog stats in
      let hist_drops =
        List.concat_map
          (fun table ->
            let rel = Catalog.find_table catalog table in
            match Schema.columns (Relation.schema rel) with
            | { Schema.name = column; _ } :: _ when Rq_math.Rng.int rng 2 = 0 ->
                [ Drop_histogram { table; column } ]
            | _ -> [])
          (Catalog.table_names catalog)
      in
      Ok (List.map per_root roots @ hist_drops)
  | other ->
      Error
        (Printf.sprintf "unknown fault profile %S (expected one of: %s)" other
           (String.concat ", " profile_names))
