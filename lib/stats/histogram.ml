open Rq_storage

type bucket = { lo : Value.t; hi : Value.t; rows : int; distinct : int }

type t = {
  table : string;
  column : string;
  buckets : bucket array;
  total_rows : int;
  null_rows : int;
}

let default_bucket_count = 250

let build ?(buckets = default_bucket_count) rel column =
  if buckets <= 0 then invalid_arg "Histogram.build: bucket count must be positive";
  let pos = Schema.index_of (Relation.schema rel) column in
  let total_rows = Relation.row_count rel in
  (* One column, chunk by chunk: a spilled chunk decodes only this column.
     Non-null values fill the array from the back, so its last slots hold
     them in reverse RID order, the order a fold consing them into a list
     gives.  [Array.sort] is not stable and values equal under
     [Value.compare] can differ ([Int 1], [Float 1.]), so a bucket bound
     depends on that input order: it is fixed here, not left to the read. *)
  let values = Array.make total_rows Value.Null in
  let next = ref total_rows in
  for ci = 0 to Relation.chunk_count rel - 1 do
    Relation.with_chunk ~seq:true rel ci (fun chunk ->
        let col = Chunk.column chunk pos in
        for r = 0 to Chunk.n_rows chunk - 1 do
          let v = col.(r) in
          if not (Value.is_null v) then begin
            decr next;
            values.(!next) <- v
          end
        done)
  done;
  let null_rows = !next in
  let values =
    if null_rows = 0 then values else Array.sub values null_rows (total_rows - null_rows)
  in
  Array.sort Value.compare values;
  let n = Array.length values in
  let bucket_array =
    if n = 0 then [||]
    else begin
      (* Equi-depth cuts, with each boundary pushed to the end of the run of
         equal values so a value never straddles buckets — keeping the
         per-bucket distinct counts (and hence equality estimates) honest. *)
      let bucket_count = min buckets n in
      let depth = max 1 (n / bucket_count) in
      let out = ref [] in
      let start = ref 0 in
      while !start < n do
        let stop = ref (min n (!start + depth)) in
        while !stop < n && Value.compare values.(!stop) values.(!stop - 1) = 0 do
          incr stop
        done;
        let rows = !stop - !start in
        let distinct = ref 1 in
        for i = !start + 1 to !stop - 1 do
          if Value.compare values.(i) values.(i - 1) <> 0 then incr distinct
        done;
        out :=
          { lo = values.(!start); hi = values.(!stop - 1); rows; distinct = !distinct }
          :: !out;
        start := !stop
      done;
      Array.of_list (List.rev !out)
    end
  in
  { table = Relation.name rel; column; buckets = bucket_array; total_rows; null_rows }

let table t = t.table
let column t = t.column
let buckets t = Array.to_list t.buckets
let total_rows t = t.total_rows
let null_rows t = t.null_rows

(* Fraction of bucket [blo, bhi] covered by query range [lo, hi], assuming
   values spread uniformly over the bucket's span.  Non-numeric bounds fall
   back to half coverage. *)
let coverage ~blo ~bhi ~lo ~hi =
  let clamp x = Float.max 0.0 (Float.min 1.0 x) in
  match (Value.to_float blo, Value.to_float bhi) with
  | exception Invalid_argument _ -> 0.5
  | b0, b1 ->
      let q0 =
        match lo with
        | None -> neg_infinity
        | Some v -> ( try Value.to_float v with Invalid_argument _ -> b0)
      in
      let q1 =
        match hi with
        | None -> infinity
        | Some v -> ( try Value.to_float v with Invalid_argument _ -> b1)
      in
      if q1 < b0 || q0 > b1 then 0.0
      else if b1 = b0 then 1.0
      else clamp ((Float.min q1 b1 -. Float.max q0 b0) /. (b1 -. b0))

let selectivity_range t ~lo ~hi =
  if t.total_rows = 0 then 0.0
  else begin
    let matched = ref 0.0 in
    Array.iter
      (fun b ->
        let below_lo = match lo with Some v -> Value.compare b.hi v < 0 | None -> false in
        let above_hi = match hi with Some v -> Value.compare b.lo v > 0 | None -> false in
        if not (below_lo || above_hi) then begin
          let fully_in =
            (match lo with Some v -> Value.compare b.lo v >= 0 | None -> true)
            && match hi with Some v -> Value.compare b.hi v <= 0 | None -> true
          in
          if fully_in then matched := !matched +. float_of_int b.rows
          else
            matched :=
              !matched +. (float_of_int b.rows *. coverage ~blo:b.lo ~bhi:b.hi ~lo ~hi)
        end)
      t.buckets;
    !matched /. float_of_int t.total_rows
  end

let selectivity_eq t v =
  if t.total_rows = 0 || Value.is_null v then 0.0
  else
    let containing =
      Array.to_seq t.buckets
      |> Seq.filter (fun b -> Value.compare b.lo v <= 0 && Value.compare v b.hi <= 0)
      |> List.of_seq
    in
    match containing with
    | [] -> 0.0
    | bs ->
        List.fold_left
          (fun acc b -> acc +. (float_of_int b.rows /. float_of_int (max 1 b.distinct)))
          0.0 bs
        /. float_of_int t.total_rows

let estimated_distinct t = Array.fold_left (fun acc b -> acc + b.distinct) 0 t.buckets
