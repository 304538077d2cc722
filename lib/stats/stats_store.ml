open Rq_storage
open Rq_exec

type config = {
  sample_size : int;
  synopsis_roots : string list option;
  follow_foreign_keys : bool;
}

let default_config =
  {
    sample_size = 500;
    synopsis_roots = None;
    follow_foreign_keys = true;
  }

type t = {
  catalog : Catalog.t;
  config : config;
  histograms : (string * string, Histogram.t) Hashtbl.t;
  synopses : (string, Join_synopsis.t) Hashtbl.t;
  version : int;
  table_versions : (string, int) Hashtbl.t;
}

(* Process-wide monotonic clock for statistics versions.  Every store built
   or derived (copy-on-write) within one process gets a strictly larger
   version than anything before it, so a plan cached against version [v]
   can trust that *any* statistics change — a maintenance rebuild, a fault
   injection, a manual synopsis swap — is visible as [version > v].  The
   counter never resets; it is an ordering device, not an identifier. *)
let version_clock = ref 0

let next_version () =
  incr version_clock;
  !version_clock

let update_statistics rng ?(config = default_config) catalog =
  let histograms = Hashtbl.create 64 in
  let synopses = Hashtbl.create 16 in
  let roots =
    match config.synopsis_roots with
    | Some roots -> roots
    | None -> Catalog.table_names catalog
  in
  List.iter
    (fun table ->
      let rel = Catalog.find_table catalog table in
      List.iter
        (fun { Schema.name = column; _ } ->
          Hashtbl.replace histograms (table, column)
            (Histogram.build rel column))
        (Schema.columns (Relation.schema rel)))
    (Catalog.table_names catalog);
  List.iter
    (fun root ->
      (* Empty tables get an empty synopsis (evidence (0, 0)): the
         degradation chain flags it as Missing and falls through to magic
         constants, instead of the build raising on an empty sample. *)
      Hashtbl.replace synopses root
        (Join_synopsis.build (Rq_math.Rng.split rng) catalog ~lenient:true
           ~follow_fks:config.follow_foreign_keys ~size:config.sample_size ~root))
    roots;
  let version = next_version () in
  let table_versions = Hashtbl.create 16 in
  List.iter
    (fun table -> Hashtbl.replace table_versions table version)
    (Catalog.table_names catalog);
  { catalog; config; histograms; synopses; version; table_versions }

let catalog t = t.catalog
let config t = t.config
let version t = t.version

let table_version t table =
  (* Unknown tables report the store version: a cache that asks about a
     table the store has never seen must stay conservative. *)
  Option.value ~default:t.version (Hashtbl.find_opt t.table_versions table)
let histogram t ~table ~column = Hashtbl.find_opt t.histograms (table, column)
let synopsis t ~root = Hashtbl.find_opt t.synopses root

(* Copy-on-write setters: the fault harness derives damaged stores without
   mutating the store under test.  Each derivation advances the store
   version and the touched table's version, so cached plans against the
   original cannot be served from the derived store (or vice versa). *)
let bump t ~table =
  let table_versions = Hashtbl.copy t.table_versions in
  let version = next_version () in
  Hashtbl.replace table_versions table version;
  (version, table_versions)

let with_synopsis t ~root replacement =
  let synopses = Hashtbl.copy t.synopses in
  (match replacement with
  | Some syn -> Hashtbl.replace synopses root syn
  | None -> Hashtbl.remove synopses root);
  let version, table_versions = bump t ~table:root in
  { t with synopses; version; table_versions }

let with_histogram t ~table ~column replacement =
  let histograms = Hashtbl.copy t.histograms in
  (match replacement with
  | Some h -> Hashtbl.replace histograms (table, column) h
  | None -> Hashtbl.remove histograms (table, column));
  let version, table_versions = bump t ~table in
  { t with histograms; version; table_versions }

let synopsis_roots t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.synopses [])

let root_of_expression catalog tables =
  (* The root is the table whose primary key is not the target of an FK edge
     from another table in the set. *)
  let referenced =
    List.concat_map
      (fun table ->
        List.filter_map
          (fun (fk : Catalog.foreign_key) ->
            if List.mem fk.to_table tables then Some fk.to_table else None)
          (Catalog.foreign_keys_from catalog table))
      tables
  in
  match List.filter (fun table -> not (List.mem table referenced)) tables with
  | [ root ] -> Some root
  | _ -> None

let synopsis_for t tables =
  match tables with
  | [] -> None
  | [ table ] -> synopsis t ~root:table
  | _ -> (
      match root_of_expression t.catalog tables with
      | None -> None
      | Some root -> (
          match synopsis t ~root with
          | Some syn when Join_synopsis.covers syn tables -> Some syn
          | _ -> None))

(* Textbook (Selinger) fallback selectivities when the histogram cannot help. *)
let magic_eq = 0.1
let magic_range = 1.0 /. 3.0
let magic_other = 1.0 /. 3.0

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let histogram_selectivity t ~table pred =
  let hist column = Hashtbl.find_opt t.histograms (table, column) in
  let range column ~lo ~hi =
    match hist column with
    | Some h -> Histogram.selectivity_range h ~lo ~hi
    | None -> magic_range
  in
  let rec go = function
    | Pred.True -> 1.0
    | Pred.False -> 0.0
    | Pred.Cmp (op, a, b) -> (
        let flipped = function
          | Pred.Eq -> Pred.Eq
          | Pred.Ne -> Pred.Ne
          | Pred.Lt -> Pred.Gt
          | Pred.Le -> Pred.Ge
          | Pred.Gt -> Pred.Lt
          | Pred.Ge -> Pred.Le
        in
        match (a, b) with
        | Expr.Col c, e -> (
            match Expr.const_value e with
            | Some v -> simple_cmp op c v
            | None -> magic_other)
        | e, Expr.Col c -> (
            match Expr.const_value e with
            | Some v -> simple_cmp (flipped op) c v
            | None -> magic_other)
        | _ -> magic_other)
    | Pred.Between (Expr.Col c, lo_e, hi_e) -> (
        match (Expr.const_value lo_e, Expr.const_value hi_e) with
        | Some lo, Some hi -> range c ~lo:(Some lo) ~hi:(Some hi)
        | _ -> magic_range)
    | Pred.Between _ -> magic_range
    | Pred.Contains _ -> magic_eq
    | Pred.And ps -> List.fold_left (fun acc p -> acc *. go p) 1.0 ps
    | Pred.Or ps -> 1.0 -. List.fold_left (fun acc p -> acc *. (1.0 -. go p)) 1.0 ps
    | Pred.Not p -> 1.0 -. go p
  and simple_cmp op c v =
    match op with
    | Pred.Eq -> (
        match hist c with Some h -> Histogram.selectivity_eq h v | None -> magic_eq)
    | Pred.Ne -> clamp01 (1.0 -. simple_cmp Pred.Eq c v)
    | Pred.Lt | Pred.Le -> range c ~lo:None ~hi:(Some v)
    | Pred.Gt | Pred.Ge -> range c ~lo:(Some v) ~hi:None
  in
  clamp01 (go pred)
