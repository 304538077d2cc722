open Rq_storage

(* Per-group accumulators: count, sum, min, max per aggregate slot. *)
type state = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : Value.t;
  mutable max_v : Value.t;
}

(* Aggregate inputs, evaluated at a physical row index of a batch's column
   arrays — no tuple materialized. *)
type compiled =
  [ `Count
  | `Count_expr of Expr.compiled_cols
  | `Sum of Expr.compiled_cols
  | `Avg of Expr.compiled_cols
  | `Min of Expr.compiled_cols
  | `Max of Expr.compiled_cols ]

type t = {
  group_positions : int list;
  agg_fns : compiled array;
  group_by : string list;
  groups : (Value.t list, state array) Hashtbl.t;
}

let create schema ~group_by ~aggs =
  let group_positions = List.map (Schema.index_of schema) group_by in
  let compile { Plan.fn; _ } =
    match fn with
    | Plan.Count_star -> `Count
    | Plan.Count e -> `Count_expr (Expr.compile_cols schema e)
    | Plan.Sum e -> `Sum (Expr.compile_cols schema e)
    | Plan.Avg e -> `Avg (Expr.compile_cols schema e)
    | Plan.Min e -> `Min (Expr.compile_cols schema e)
    | Plan.Max e -> `Max (Expr.compile_cols schema e)
  in
  let agg_fns = Array.of_list (List.map compile aggs) in
  (* Initial size 64 is part of the output contract: the final fold order —
     hence the output row order — depends on the table's size and its
     key-insertion sequence. *)
  { group_positions; agg_fns; group_by; groups = Hashtbl.create 64 }

let fresh_state () = { count = 0; sum = 0.0; min_v = Value.Null; max_v = Value.Null }

let touch t key =
  match Hashtbl.find_opt t.groups key with
  | Some states -> states
  | None ->
      let states = Array.init (Array.length t.agg_fns) (fun _ -> fresh_state ()) in
      Hashtbl.add t.groups key states;
      states

let update agg_fns states cols r =
  for i = 0 to Array.length agg_fns - 1 do
    let st = states.(i) in
    match agg_fns.(i) with
    | `Count -> st.count <- st.count + 1
    | `Count_expr f -> (
        match f cols r with Value.Null -> () | _ -> st.count <- st.count + 1)
    | `Sum f | `Avg f -> (
        match f cols r with
        | Value.Null -> ()
        | v ->
            st.count <- st.count + 1;
            st.sum <- st.sum +. Value.to_float v)
    | `Min f -> (
        match f cols r with
        | Value.Null -> ()
        | v -> if Value.is_null st.min_v || Value.compare v st.min_v < 0 then st.min_v <- v)
    | `Max f -> (
        match f cols r with
        | Value.Null -> ()
        | v -> if Value.is_null st.max_v || Value.compare v st.max_v > 0 then st.max_v <- v)
  done

(* Visits the selected rows in ascending order, so the key-insertion
   sequence into [groups] — and hence the final fold order — depends only on
   the logical row sequence, never on how it was batched.  A grand total
   looks its one group up once per non-empty batch, which inserts it where
   the batch's first row would have. *)
let feed t cols sel =
  match t.group_positions with
  | [] ->
      if Bitset.popcount sel > 0 then begin
        let states = touch t [] in
        Bitset.iter_set (fun r -> update t.agg_fns states cols r) sel
      end
  | positions ->
      Bitset.iter_set
        (fun r ->
          let key = List.map (fun p -> cols.(p).(r)) positions in
          update t.agg_fns (touch t key) cols r)
        sel

let finalize t =
  (* SQL semantics: grand-total aggregation yields one row even on empty
     input. *)
  if t.group_by = [] && Hashtbl.length t.groups = 0 then ignore (touch t []);
  let finalize_state st = function
    | `Count | `Count_expr _ -> Value.Int st.count
    | `Sum _ -> if st.count = 0 then Value.Null else Value.Float st.sum
    | `Avg _ -> if st.count = 0 then Value.Null else Value.Float (st.sum /. float_of_int st.count)
    | `Min _ -> st.min_v
    | `Max _ -> st.max_v
  in
  let groups = Array.of_list (Hashtbl.fold (fun key states acc -> (key, states) :: acc) t.groups []) in
  let n_keys = List.length t.group_positions in
  let column c =
    Array.map
      (fun (key, states) ->
        if c < n_keys then List.nth key c
        else finalize_state states.(c - n_keys) t.agg_fns.(c - n_keys))
      groups
  in
  (Array.init (n_keys + Array.length t.agg_fns) column, Array.length groups)
