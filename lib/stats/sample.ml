open Rq_storage

type t = { rows : Relation.t; population_size : int }

let draw rng ?(with_replacement = true) ~size rel =
  if size <= 0 then invalid_arg "Sample.of_relation: size must be positive";
  let population = Relation.row_count rel in
  (* An empty relation yields an empty sample (evidence (0, 0)) rather than
     an error: tables legitimately become empty between maintenance
     refreshes, and the estimation chain degrades on empty evidence. *)
  let indices =
    if population = 0 then [||]
    else if with_replacement then Rq_math.Rng.sample_with_replacement rng size population
    else Rq_math.Rng.sample_without_replacement rng (min size population) population
  in
  (* Read the draws in RID order, one pin per chunk run, and put each
     tuple back at its draw position: the sample's row order is the
     draw order, whatever order the chunks were read in. *)
  let n = Array.length indices in
  let positions = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare indices.(a) indices.(b)) positions;
  let rids = Array.map (fun p -> indices.(p)) positions in
  let tuples = Array.make n [||] in
  Relation.gather rel rids ~lo:0 ~hi:n (fun i chunk r ->
      tuples.(positions.(i)) <- Chunk.get chunk r);
  tuples

let of_relation rng ?with_replacement ~size rel =
  {
    rows =
      Relation.create ~name:(Relation.name rel ^ "__sample") ~schema:(Relation.schema rel)
        (draw rng ?with_replacement ~size rel);
    population_size = Relation.row_count rel;
  }

let of_rows ~rows ~schema ~population_size ~name =
  { rows = Relation.create ~name ~schema rows; population_size }

let reservoir rng ~size ~schema ~name stream =
  if size <= 0 then invalid_arg "Sample.reservoir: size must be positive";
  let buffer = Array.make size [||] in
  let seen = ref 0 in
  Seq.iter
    (fun tuple ->
      if !seen < size then buffer.(!seen) <- tuple
      else begin
        (* Keep each arriving tuple with probability size/seen. *)
        let j = Rq_math.Rng.int rng (!seen + 1) in
        if j < size then buffer.(j) <- tuple
      end;
      incr seen)
    stream;
  if !seen = 0 then invalid_arg "Sample.reservoir: empty stream";
  let rows = if !seen < size then Array.sub buffer 0 !seen else buffer in
  { rows = Relation.create ~name ~schema rows; population_size = !seen }

let rows t = t.rows
let size t = Relation.row_count t.rows
let population_size t = t.population_size

