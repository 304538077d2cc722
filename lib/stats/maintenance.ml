open Rq_storage

type t = {
  rng : Rq_math.Rng.t;
  config : Stats_store.config;
  refresh_fraction : float;
  catalog : Catalog.t;
  obs : Rq_obs.Recorder.t option;
  mutable stats : Stats_store.t;
  modified : (string, int) Hashtbl.t;
}

let create ?(config = Stats_store.default_config) ?(refresh_fraction = 0.2) ?obs rng catalog =
  if refresh_fraction <= 0.0 then
    invalid_arg "Maintenance.create: refresh_fraction must be positive";
  {
    rng;
    config;
    refresh_fraction;
    catalog;
    obs;
    stats = Stats_store.update_statistics (Rq_math.Rng.split rng) ~config catalog;
    modified = Hashtbl.create 8;
  }

let catalog t = t.catalog
let stats t = t.stats

let modifications_since_refresh t ~table =
  Option.value ~default:0 (Hashtbl.find_opt t.modified table)

let record_modifications t ~table count =
  if count < 0 then invalid_arg "Maintenance.record_modifications: negative count";
  Hashtbl.replace t.modified table (modifications_since_refresh t ~table + count)

let is_stale t =
  List.exists
    (fun table ->
      let rows = Relation.row_count (Catalog.find_table t.catalog table) in
      float_of_int (modifications_since_refresh t ~table)
      >= t.refresh_fraction *. float_of_int (max 1 rows))
    (Catalog.table_names t.catalog)

let apply_update t ~table f =
  let rel = Catalog.find_table t.catalog table in
  let old_rows = Array.make (Relation.row_count rel) [||] in
  Relation.iter (fun rid tup -> old_rows.(rid) <- tup) rel;
  let new_rows = f old_rows in
  Catalog.replace_table t.catalog
    (Relation.create ~name:table ~schema:(Relation.schema rel) new_rows);
  (* Modification count: positionally-changed rows (physical inequality —
     an updated row is a fresh array) plus net growth or shrinkage. *)
  let common = min (Array.length old_rows) (Array.length new_rows) in
  let changed = ref (max (Array.length old_rows) (Array.length new_rows) - common) in
  for i = 0 to common - 1 do
    if not (old_rows.(i) == new_rows.(i)) then incr changed
  done;
  record_modifications t ~table !changed

let refresh t =
  (* The trace names the tables whose modifications triggered the rebuild;
     a manual refresh with no pending modifications names every table
     (everything is rebuilt either way). *)
  (match t.obs with
  | None -> ()
  | Some r ->
      let dirty =
        List.filter
          (fun table -> modifications_since_refresh t ~table > 0)
          (Catalog.table_names t.catalog)
      in
      let tables =
        match dirty with [] -> Catalog.table_names t.catalog | _ -> dirty
      in
      Rq_obs.Recorder.record r (Rq_obs.Trace.Stats_refresh { tables }));
  t.stats <- Stats_store.update_statistics (Rq_math.Rng.split t.rng) ~config:t.config t.catalog;
  Hashtbl.reset t.modified

let maybe_refresh t =
  if is_stale t then begin
    refresh t;
    true
  end
  else false
