open Rq_storage

(* A float-only record is stored flat, so adding to it allocates nothing. *)
type sum = { mutable total : float }

(* Per-group accumulators: count, sum, min, max per aggregate slot. *)
type state = { mutable count : int; sum : sum; mutable min_v : Value.t; mutable max_v : Value.t }

type fn = Count | Count_non_null | Sum | Avg | Min | Max

(* Where a slot's argument comes from: nowhere (COUNT( * )), a column of
   the input batch, or an expression evaluated at a physical row index of
   the batch's column arrays — no tuple materialized. *)
type input = Nothing | Column of int | Computed of Expr.compiled_cols

type spec = { group_positions : int list; slots : (fn * input) array }

let spec schema ~group_by ~aggs =
  let group_positions = List.map (Schema.index_of schema) group_by in
  let input = function
    | Expr.Col name -> Column (Schema.index_of schema name)
    | e -> Computed (Expr.compile_cols schema e)
  in
  let slot { Plan.fn; _ } =
    match fn with
    | Plan.Count_star -> (Count, Nothing)
    | Plan.Count e -> (Count_non_null, input e)
    | Plan.Sum e -> (Sum, input e)
    | Plan.Avg e -> (Avg, input e)
    | Plan.Min e -> (Min, input e)
    | Plan.Max e -> (Max, input e)
  in
  { group_positions; slots = Array.of_list (List.map slot aggs) }

(* One slot's arguments for a batch's selected rows, evaluated where the
   batch is produced, while its values are in that core's cache: whether
   each is non-NULL ([present]; empty when all are), a [SUM]/[AVG]
   argument already converted to its float, a [MIN]/[MAX] argument as
   the value itself. *)
type args =
  | No_args
  | Present of Bytes.t
  | Floats of float array * Bytes.t
  | Values of Value.t array

(* The selected rows of one batch: a part-local group id per row ([||] for
   a grand total) and each slot's arguments. *)
type run = { len : int; gids : int array; args : args array }

(* Part-local group ids, keyed by the value itself when one column
   groups, so a row's lookup allocates nothing. *)
type local = One of (Value.t, int) Hashtbl.t | Many of (Value.t list, int) Hashtbl.t

type part = {
  spec : spec;
  local : local;
  mutable keys : Value.t list list;  (* local groups, newest first *)
  mutable n_keys : int;
  mutable runs : run list;  (* newest first *)
  rows : int array;  (* the physical rows of the run being built *)
}

(* Runs are cut at the largest array the minor heap allocates, so a part
   folded soon after it is built never reaches the major heap. *)
let run_rows = 256

let part spec =
  let local =
    match spec.group_positions with [ _ ] -> One (Hashtbl.create 16) | _ -> Many (Hashtbl.create 16)
  in
  { spec; local; keys = []; n_keys = 0; runs = []; rows = Array.make run_rows 0 }

let local_id p tbl key group =
  match Hashtbl.find tbl key with
  | g -> g
  | exception Not_found ->
      let g = p.n_keys in
      Hashtbl.add tbl key g;
      p.keys <- group key :: p.keys;
      p.n_keys <- g + 1;
      g

(* The run of rows [p.rows.(0 .. len-1)] of a batch's columns. *)
let add_run p cols len =
  let rows = p.rows in
  let gids =
    match (p.local, p.spec.group_positions) with
    | Many tbl, [] ->
        ignore (local_id p tbl [] Fun.id);
        [||]
    | One tbl, [ c ] ->
        let col = cols.(c) in
        Array.init len (fun j -> local_id p tbl col.(rows.(j)) (fun v -> [ v ]))
    | Many tbl, positions ->
        Array.init len (fun j ->
            let r = rows.(j) in
            local_id p tbl (List.map (fun c -> cols.(c).(r)) positions) Fun.id)
    | One _, _ -> assert false
  in
  let value = function
    | Nothing -> fun _ -> Value.Null
    | Column c ->
        let col = cols.(c) in
        fun r -> col.(r)
    | Computed f -> f cols
  in
  (* [present] stays empty until the first NULL. *)
  let present = ref Bytes.empty in
  let absent j =
    if Bytes.length !present = 0 then present := Bytes.make len '\001';
    Bytes.unsafe_set !present j '\000'
  in
  let args (fn, input) =
    let v = value input in
    present := Bytes.empty;
    match fn with
    | Count -> No_args
    | Count_non_null ->
        for j = 0 to len - 1 do
          if Value.is_null (v rows.(j)) then absent j
        done;
        Present !present
    | Sum | Avg ->
        let xs = Array.make len 0.0 in
        for j = 0 to len - 1 do
          match v rows.(j) with
          | Value.Null -> absent j
          | Value.Float x -> xs.(j) <- x
          | x -> xs.(j) <- Value.to_float x
        done;
        Floats (xs, !present)
    | Min | Max -> Values (Array.init len (fun j -> v rows.(j)))
  in
  p.runs <- { len; gids; args = Array.map args p.spec.slots } :: p.runs

(* Visits the selected rows in ascending order.  A grand total has one
   group, entered by its first row. *)
let add p cols sel =
  let len = ref 0 in
  Bitset.iter_set
    (fun r ->
      p.rows.(!len) <- r;
      incr len;
      if !len = run_rows then begin
        add_run p cols run_rows;
        len := 0
      end)
    sel;
  if !len > 0 then add_run p cols !len

type t = { tspec : spec; groups : (Value.t list, state array) Hashtbl.t }

(* Initial size 64 is part of the output contract: the final fold order —
   hence the output row order — depends on the table's size and its
   key-insertion sequence. *)
let create tspec = { tspec; groups = Hashtbl.create 64 }

let fresh_state () = { count = 0; sum = { total = 0.0 }; min_v = Value.Null; max_v = Value.Null }

let touch t key =
  match Hashtbl.find_opt t.groups key with
  | Some states -> states
  | None ->
      let states = Array.init (Array.length t.tspec.slots) (fun _ -> fresh_state ()) in
      Hashtbl.add t.groups key states;
      states

let is_present present j = Bytes.length present = 0 || Bytes.unsafe_get present j <> '\000'

(* A part's local groups enter the global table in their first-appearance
   order, so the table sees the same insertion sequence as a row-by-row
   feed; then each slot folds every row into its group in row order, so
   float sums add in the serial order, bit for bit. *)
let fold t p =
  let states = Array.of_list (List.map (touch t) (List.rev p.keys)) in
  List.iter
    (fun run ->
      let one = Array.length run.gids = 0 in
      Array.iteri
        (fun i args ->
          let state j = (if one then states.(0) else states.(run.gids.(j))).(i) in
          match args with
          | No_args ->
              if one then
                let st = state 0 in
                st.count <- st.count + run.len
              else
                for j = 0 to run.len - 1 do
                  let st = state j in
                  st.count <- st.count + 1
                done
          | Present present ->
              for j = 0 to run.len - 1 do
                if is_present present j then
                  let st = state j in
                  st.count <- st.count + 1
              done
          | Floats (xs, present) ->
              for j = 0 to run.len - 1 do
                if is_present present j then begin
                  let st = state j in
                  st.count <- st.count + 1;
                  st.sum.total <- st.sum.total +. xs.(j)
                end
              done
          | Values vs -> (
              match fst t.tspec.slots.(i) with
              | Min ->
                  Array.iteri
                    (fun j v ->
                      let st = state j in
                      if (not (Value.is_null v))
                         && (Value.is_null st.min_v || Value.compare v st.min_v < 0)
                      then st.min_v <- v)
                    vs
              | _ ->
                  Array.iteri
                    (fun j v ->
                      let st = state j in
                      if (not (Value.is_null v))
                         && (Value.is_null st.max_v || Value.compare v st.max_v > 0)
                      then st.max_v <- v)
                    vs))
        run.args)
    (List.rev p.runs)

let finalize t =
  let spec = t.tspec in
  (* SQL semantics: grand-total aggregation yields one row even on empty
     input. *)
  if spec.group_positions = [] && Hashtbl.length t.groups = 0 then ignore (touch t []);
  let finalize_state st = function
    | Count | Count_non_null -> Value.Int st.count
    | Sum -> if st.count = 0 then Value.Null else Value.Float st.sum.total
    | Avg -> if st.count = 0 then Value.Null else Value.Float (st.sum.total /. float_of_int st.count)
    | Min -> st.min_v
    | Max -> st.max_v
  in
  let groups = Array.of_list (Hashtbl.fold (fun key states acc -> (key, states) :: acc) t.groups []) in
  let n_keys = List.length spec.group_positions in
  let column c =
    Array.map
      (fun (key, states) ->
        if c < n_keys then List.nth key c
        else finalize_state states.(c - n_keys) (fst spec.slots.(c - n_keys)))
      groups
  in
  (Array.init (n_keys + Array.length spec.slots) column, Array.length groups)
