(* Zone-map chunk pruning: decide from a chunk's per-column min/max/null
   summary whether a predicate can possibly match any row in it.

   Two dual analyses, both conservative:
   - [may_match]  is a *necessary* condition — [false] only when provably
     no row in the chunk satisfies the predicate;
   - [all_match]  is a *sufficient* condition — [true] only when provably
     every row does (needed under [Not], whose rows are exactly those
     where the inner predicate is false).

   Both mirror [Pred.compile]'s collapsed three-valued logic exactly:
   comparisons involving Null are false, [Contains] matches only String
   values, and [Value.compare]'s cross-type total order (Int and Float
   compare numerically) is used throughout, so a skip decision can never
   disagree with row-at-a-time evaluation. *)

open Rq_storage

type col_zone = { lo : Value.t; hi : Value.t; nulls : int; n_rows : int }

let col_zone schema zm c =
  let cs = Zone_map.column zm (Schema.index_of schema c) in
  { lo = cs.Zone_map.lo; hi = cs.Zone_map.hi; nulls = cs.Zone_map.nulls;
    n_rows = Zone_map.n_rows zm }

let all_null z = z.nulls >= z.n_rows
let no_nulls z = z.nulls = 0

(* A [Cmp] side is usable when it is a bare column or folds to a constant
   (handles [Add_days (Const _, d)] and friends via [Expr.const_value]);
   anything else makes the atom unprunable. *)
type side = S_col of string | S_const of Value.t | S_opaque

let side_of expr =
  match expr with
  | Expr.Col c -> S_col c
  | e -> (match Expr.const_value e with Some v -> S_const v | None -> S_opaque)

let flip op =
  match op with
  | Pred.Eq -> Pred.Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(* col `op` v possibly true for some non-null value in [z.lo, z.hi]? *)
let cmp_col_const_may z op v =
  if all_null z || Value.is_null v then false
  else
    match op with
    | Pred.Eq -> Value.compare z.lo v <= 0 && Value.compare v z.hi <= 0
    | Ne -> not (Value.compare z.lo z.hi = 0 && Value.compare z.lo v = 0)
    | Lt -> Value.compare z.lo v < 0
    | Le -> Value.compare z.lo v <= 0
    | Gt -> Value.compare z.hi v > 0
    | Ge -> Value.compare z.hi v >= 0

(* col `op` v provably true for every row (which requires no nulls)? *)
let cmp_col_const_all z op v =
  (not (Value.is_null v))
  && no_nulls z
  &&
  match op with
  | Pred.Eq -> Value.compare z.lo v = 0 && Value.compare z.hi v = 0
  | Ne -> Value.compare v z.lo < 0 || Value.compare v z.hi > 0
  | Lt -> Value.compare z.hi v < 0
  | Le -> Value.compare z.hi v <= 0
  | Gt -> Value.compare z.lo v > 0
  | Ge -> Value.compare z.lo v >= 0

(* a `op` b possibly true given both columns' ranges (per-row both must be
   non-null, so either side all-null kills the atom)? *)
let cmp_col_col_may za op zb =
  if all_null za || all_null zb then false
  else
    match op with
    | Pred.Eq -> Value.compare za.lo zb.hi <= 0 && Value.compare zb.lo za.hi <= 0
    | Ne ->
        not
          (Value.compare za.lo za.hi = 0
          && Value.compare zb.lo zb.hi = 0
          && Value.compare za.lo zb.lo = 0)
    | Lt -> Value.compare za.lo zb.hi < 0
    | Le -> Value.compare za.lo zb.hi <= 0
    | Gt -> Value.compare za.hi zb.lo > 0
    | Ge -> Value.compare za.hi zb.lo >= 0

let cmp_holds op c =
  match op with
  | Pred.Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec may_match schema zm (pred : Pred.t) =
  match pred with
  | True -> true
  | False -> false
  | Cmp (op, a, b) -> (
      match (side_of a, side_of b) with
      | S_const va, S_const vb ->
          (not (Value.is_null va || Value.is_null vb))
          && cmp_holds op (Value.compare va vb)
      | S_col c, S_const v -> cmp_col_const_may (col_zone schema zm c) op v
      | S_const v, S_col c -> cmp_col_const_may (col_zone schema zm c) (flip op) v
      | S_col a, S_col b ->
          cmp_col_col_may (col_zone schema zm a) op (col_zone schema zm b)
      | _ -> true)
  | Between (e, lo_e, hi_e) -> (
      match (side_of e, side_of lo_e, side_of hi_e) with
      | S_const v, S_const lo, S_const hi ->
          (not (Value.is_null v || Value.is_null lo || Value.is_null hi))
          && Value.compare lo v <= 0 && Value.compare v hi <= 0
      | S_col c, S_const lo, S_const hi ->
          let z = col_zone schema zm c in
          if all_null z || Value.is_null lo || Value.is_null hi then false
          else Value.compare z.lo hi <= 0 && Value.compare lo z.hi <= 0
      | _ -> true)
  | Contains (e, _) -> (
      (* Ranges cannot disprove a substring match; only an all-null column
         (or a null/non-string constant) can. *)
      match side_of e with
      | S_col c -> not (all_null (col_zone schema zm c))
      | S_const (Value.String _) -> true
      | S_const _ -> false
      | S_opaque -> true)
  | And ps -> List.for_all (may_match schema zm) ps
  | Or ps -> List.exists (may_match schema zm) ps
  | Not p -> not (all_match schema zm p)

and all_match schema zm (pred : Pred.t) =
  match pred with
  | True -> true
  | False -> false
  | Cmp (op, a, b) -> (
      match (side_of a, side_of b) with
      | S_const va, S_const vb ->
          (not (Value.is_null va || Value.is_null vb))
          && cmp_holds op (Value.compare va vb)
      | S_col c, S_const v -> cmp_col_const_all (col_zone schema zm c) op v
      | S_const v, S_col c -> cmp_col_const_all (col_zone schema zm c) (flip op) v
      | _ -> false)
  | Between (e, lo_e, hi_e) -> (
      match (side_of e, side_of lo_e, side_of hi_e) with
      | S_const v, S_const lo, S_const hi ->
          (not (Value.is_null v || Value.is_null lo || Value.is_null hi))
          && Value.compare lo v <= 0 && Value.compare v hi <= 0
      | S_col c, S_const lo, S_const hi ->
          let z = col_zone schema zm c in
          no_nulls z
          && (not (Value.is_null lo || Value.is_null hi))
          && Value.compare lo z.lo <= 0 && Value.compare z.hi hi <= 0
      | _ -> false)
  | Contains _ -> false
  | And ps -> List.for_all (all_match schema zm) ps
  | Or ps -> List.exists (all_match schema zm) ps
  | Not p -> not (may_match schema zm p)

let chunk_may_match schema zm pred = may_match schema zm pred
