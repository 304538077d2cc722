(* Data-state mutations for the differential fuzzer's data operator:
   change the *data*, so the optimizer's trade-off landscape itself
   moves.  Mutations go through [Catalog.replace_table], so indexes are
   patched to the new rows and the statistics built afterwards are
   honest — only replayability and integrity matter here:

   - [Grow] appends duplicated rows with fresh primary keys above the
     current maximum, so clustering on the PK stays sorted; when the table
     is heap-clustered on a *non-key* column (tpch lineitem on l_orderkey)
     the new rows inherit the last heap row's cluster value, preserving
     sortedness without re-sorting.
   - [Shrink] keeps an order-preserving uniform subset and refuses tables
     with incoming FK edges — dangling references would make the *catalog*
     inconsistent, which is the statistics' job to get wrong, not ours.

   All randomness comes from the caller's seeded [Rng], so a serialized
   mutation list replays to the identical catalog. *)

open Rq_storage

type t =
  | Grow of { table : string; percent : int }
  | Shrink of { table : string; keep_percent : int }

let to_string = function
  | Grow { table; percent } -> Printf.sprintf "grow(%s,%d)" table percent
  | Shrink { table; keep_percent } -> Printf.sprintf "shrink(%s,%d)" table keep_percent

let of_string s =
  match Scanf.sscanf_opt s "grow(%[^,],%d)" (fun table percent -> Grow { table; percent }) with
  | Some m -> Ok m
  | None -> (
      match
        Scanf.sscanf_opt s "shrink(%[^,],%d)" (fun table keep_percent ->
            Shrink { table; keep_percent })
      with
      | Some m -> Ok m
      | None -> Error (Printf.sprintf "unparseable mutation %S (want grow(t,n) or shrink(t,n))" s))

let growable catalog =
  List.filter
    (fun name ->
      match Catalog.primary_key catalog name with
      | None -> false
      | Some pk -> (
          let rel = Catalog.find_table catalog name in
          Relation.row_count rel > 0
          &&
          let pos = Schema.index_of (Relation.schema rel) pk in
          match (Relation.get rel 0).(pos) with Value.Int _ -> true | _ -> false))
    (Catalog.table_names catalog)

let shrinkable catalog =
  List.filter
    (fun name -> Catalog.foreign_keys_into catalog name = [])
    (Catalog.table_names catalog)

let apply rng catalog mutation =
  let find table =
    match Catalog.find_table_opt catalog table with
    | Some rel -> Ok rel
    | None -> Error (Printf.sprintf "mutation targets unknown table %S" table)
  in
  match mutation with
  | Grow { table; percent } ->
      if percent <= 0 then Error "grow: percent must be positive"
      else
        Result.bind (find table) (fun rel ->
            match Catalog.primary_key catalog table with
            | None -> Error (Printf.sprintf "grow(%s): table has no primary key" table)
            | Some pk ->
                let schema = Relation.schema rel in
                let pk_pos = Schema.index_of schema pk in
                let n = Relation.row_count rel in
                if n = 0 then Error (Printf.sprintf "grow(%s): table is empty" table)
                else begin
                  let max_key =
                    Relation.fold
                      (fun acc _ tup ->
                        match (tup.(pk_pos), acc) with
                        | Value.Int k, Some m -> Some (max k m)
                        | Value.Int k, None -> Some k
                        | _ -> acc)
                      None rel
                  in
                  match max_key with
                  | None -> Error (Printf.sprintf "grow(%s): non-integer primary key" table)
                  | Some max_key ->
                      let cluster_pos =
                        match Catalog.clustered_by catalog table with
                        | Some c when c <> pk -> Some (Schema.index_of schema c)
                        | _ -> None
                      in
                      let tail = Relation.get rel (n - 1) in
                      let extra = max 1 (n * percent / 100) in
                      let added =
                        Array.init extra (fun i ->
                            let src = Array.copy (Relation.get rel (Rq_math.Rng.int rng n)) in
                            src.(pk_pos) <- Value.Int (max_key + 1 + i);
                            (match cluster_pos with
                            | Some cp -> src.(cp) <- tail.(cp)
                            | None -> ());
                            src)
                      in
                      let rows = Array.append (Array.of_seq (Relation.to_seq rel)) added in
                      Catalog.replace_table catalog (Relation.create ~name:table ~schema rows);
                      Ok ()
                end)
  | Shrink { table; keep_percent } ->
      if keep_percent < 0 || keep_percent > 100 then Error "shrink: keep_percent must be in [0,100]"
      else if Catalog.foreign_keys_into catalog table <> [] then
        Error (Printf.sprintf "shrink(%s): incoming foreign keys would dangle" table)
      else
        Result.bind (find table) (fun rel ->
            let n = Relation.row_count rel in
            let keep = n * keep_percent / 100 in
            let picked = Rq_math.Rng.sample_without_replacement rng keep n in
            Array.sort compare picked;
            let rows = Array.map (Relation.get rel) picked in
            Catalog.replace_table catalog
              (Relation.create ~name:table ~schema:(Relation.schema rel) rows);
            Ok ())

let apply_all rng catalog mutations =
  List.fold_left
    (fun acc m -> Result.bind acc (fun () -> apply rng catalog m))
    (Ok ()) mutations
