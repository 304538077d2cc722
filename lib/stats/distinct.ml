open Rq_storage

(* Shared core: frequency-of-frequencies from a per-key count table. *)
let profile_of_counts counts =
  let freq_of_freq = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ c ->
      Hashtbl.replace freq_of_freq c
        (1 + Option.value ~default:0 (Hashtbl.find_opt freq_of_freq c)))
    counts;
  Hashtbl.fold (fun j f acc -> (j, f) :: acc) freq_of_freq []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let counts_of_keys keys =
  let counts = Hashtbl.create 64 in
  let n = ref 0 in
  Seq.iter
    (fun key ->
      incr n;
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    keys;
  (!n, counts)

let frequency_profile values =
  let _, counts = counts_of_keys (Seq.map Value.to_string (Array.to_seq values)) in
  profile_of_counts counts

let observed_distinct profile = List.fold_left (fun acc (_, f) -> acc + f) 0 profile

let clamp ~d ~population_size x =
  Float.max (float_of_int d) (Float.min (float_of_int population_size) x)

let gee_core ~n ~profile ~population_size =
  if n = 0 then 0.0
  else begin
    let d = observed_distinct profile in
    let f1 = Option.value ~default:0 (List.assoc_opt 1 profile) in
    let rest = d - f1 in
    let scale = sqrt (float_of_int population_size /. float_of_int n) in
    clamp ~d ~population_size ((scale *. float_of_int f1) +. float_of_int rest)
  end

(* Single pass over the key stream: nothing is materialized beyond the
   per-key count table (size = observed distinct count, not stream
   length).  This is the entry point for the estimator's GROUP-BY path,
   which feeds it the matching sample rows as a sequence. *)
let gee_of_keys keys ~population_size =
  let n, counts = counts_of_keys keys in
  gee_core ~n ~profile:(profile_of_counts counts) ~population_size

let gee ~sample ~population_size =
  gee_of_keys (Seq.map Value.to_string (Array.to_seq sample)) ~population_size

let scale_up ~sample ~population_size =
  let n = Array.length sample in
  if n = 0 then 0.0
  else begin
    let d = observed_distinct (frequency_profile sample) in
    clamp ~d ~population_size
      (float_of_int d *. float_of_int population_size /. float_of_int n)
  end

let composite_key positions tup =
  (* Encode the composite key as a single string value; [to_key] keeps
     floats that agree to six digits apart. *)
  String.concat "\x00" (List.map (fun p -> Value.to_key tup.(p)) positions)

let key_positions schema columns = List.map (Schema.index_of schema) columns

let estimate_groups_seq ~schema ~columns ~population_size tuples =
  let positions = key_positions schema columns in
  gee_of_keys (Seq.map (composite_key positions) tuples) ~population_size

let estimate_groups ~sample ~columns ~population_size =
  estimate_groups_seq ~schema:(Relation.schema sample) ~columns ~population_size
    (Relation.to_seq sample)
