(* Observed-cardinality feedback cache: what guard violations teach the
   optimizer about the running query. *)

type t = { observations : (string list, float) Hashtbl.t }

let create () = { observations = Hashtbl.create 8 }

let key tables = List.sort_uniq String.compare tables

let record t ~tables rows = Hashtbl.replace t.observations (key tables) rows

let observed t ~tables = Hashtbl.find_opt t.observations (key tables)

let names_of refs = List.map (fun (r : Logical.table_ref) -> r.Logical.table) refs

let with_feedback t (base : Cardinality.t) =
  let expression_cardinality refs =
    let names = key (names_of refs) in
    match Hashtbl.find_opt t.observations names with
    | Some rows -> rows
    | None -> (
        (* No exact observation: anchor the base estimate to the largest
           observed sub-expression.  The correction ratio observed/estimated
           on the subset transfers multiplicatively to the superset — the
           classic feedback heuristic. *)
        let subset_of a b = List.for_all (fun x -> List.mem x b) a in
        let best =
          Hashtbl.fold
            (fun k v acc ->
              if subset_of k names && List.length k < List.length names then
                match acc with
                | Some (bk, _) when List.length bk >= List.length k -> acc
                | _ -> Some (k, v)
              else acc)
            t.observations None
        in
        match best with
        | None -> base.Cardinality.expression_cardinality refs
        | Some (sub_tables, observed_rows) ->
            let sub_refs =
              List.filter
                (fun (r : Logical.table_ref) -> List.mem r.Logical.table sub_tables)
                refs
            in
            let est_sub = base.Cardinality.expression_cardinality sub_refs in
            let est_full = base.Cardinality.expression_cardinality refs in
            if est_sub <= 0.0 then est_full
            else est_full *. (observed_rows /. est_sub))
  in
  {
    base with
    Cardinality.name = base.Cardinality.name ^ "+feedback";
    expression_cardinality;
    (* table_selectivity deliberately NOT overridden: costing passes partial
       per-probe predicates through it, which an expression-level observation
       cannot answer. *)
  }
