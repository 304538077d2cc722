open Rq_storage

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of cmp * Expr.t * Expr.t
  | Between of Expr.t * Expr.t * Expr.t
  | Contains of Expr.t * string
  | And of t list
  | Or of t list
  | Not of t

let eq a b = Cmp (Eq, a, b)
let lt a b = Cmp (Lt, a, b)
let le a b = Cmp (Le, a, b)
let gt a b = Cmp (Gt, a, b)
let ge a b = Cmp (Ge, a, b)
let between e lo hi = Between (e, lo, hi)

let conj preds =
  let rec flatten acc = function
    | True -> acc
    | And ps -> List.fold_left flatten acc ps
    | p -> p :: acc
  in
  match List.rev (List.fold_left flatten [] preds) with
  | [] -> True
  | [ p ] -> p
  | ps -> if List.mem False ps then False else And ps

let conjuncts = function And ps -> ps | True -> [] | p -> [ p ]

let columns pred =
  let add acc c = if List.mem c acc then acc else c :: acc in
  let rec go acc = function
    | True | False -> acc
    | Cmp (_, a, b) -> List.fold_left add (List.fold_left add acc (Expr.columns a)) (Expr.columns b)
    | Between (e, lo, hi) ->
        List.fold_left add acc (Expr.columns e @ Expr.columns lo @ Expr.columns hi)
    | Contains (e, _) -> List.fold_left add acc (Expr.columns e)
    | And ps | Or ps -> List.fold_left go acc ps
    | Not p -> go acc p
  in
  List.rev (go [] pred)

(* Empty [And]/[Or] are [True]/[False]; otherwise the fold starts from the
   first operand, so a lone atom's bitmap comes back as [atom] made it.
   Top-level recursion with the context passed along: no closure is
   allocated per call (the evidence kernel folds on every estimate). *)
let rec bitmap ~atom x ~len = function
  | True | And [] -> Bitset.full len
  | False | Or [] -> Bitset.create len
  | And (p :: ps) -> fold Bitset.logand ~atom x ~len (bitmap ~atom x ~len p) ps
  | Or (p :: ps) -> fold Bitset.logor ~atom x ~len (bitmap ~atom x ~len p) ps
  | Not p -> Bitset.lognot (bitmap ~atom x ~len p)
  | (Cmp _ | Between _ | Contains _) as a -> atom x a

and fold op ~atom x ~len acc = function
  | [] -> acc
  | q :: qs -> fold op ~atom x ~len (op acc (bitmap ~atom x ~len q)) qs

type compiled = Relation.tuple -> bool

let cmp_holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec compile schema = function
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Cmp (op, a, b) ->
      let fa = Expr.compile schema a and fb = Expr.compile schema b in
      fun tuple ->
        let va = fa tuple and vb = fb tuple in
        (not (Value.is_null va || Value.is_null vb)) && cmp_holds op (Value.compare va vb)
  | Between (e, lo, hi) ->
      let fe = Expr.compile schema e
      and flo = Expr.compile schema lo
      and fhi = Expr.compile schema hi in
      fun tuple ->
        let v = fe tuple and l = flo tuple and h = fhi tuple in
        (not (Value.is_null v || Value.is_null l || Value.is_null h))
        && Value.compare l v <= 0
        && Value.compare v h <= 0
  | Contains (e, needle) ->
      let fe = Expr.compile schema e in
      let contains haystack =
        let nh = String.length haystack and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
        nn = 0 || at 0
      in
      fun tuple -> (
        match fe tuple with Value.String s -> contains s | _ -> false)
  | And ps ->
      let fs = List.map (compile schema) ps in
      fun tuple -> List.for_all (fun f -> f tuple) fs
  | Or ps ->
      let fs = List.map (compile schema) ps in
      fun tuple -> List.exists (fun f -> f tuple) fs
  | Not p ->
      let f = compile schema p in
      fun tuple -> not (f tuple)

let eval schema pred tuple = compile schema pred tuple

let rename_columns f pred =
  let rec expr = function
    | Expr.Col c -> Expr.Col (f c)
    | Expr.Const _ as e -> e
    | Expr.Add (a, b) -> Expr.Add (expr a, expr b)
    | Expr.Sub (a, b) -> Expr.Sub (expr a, expr b)
    | Expr.Mul (a, b) -> Expr.Mul (expr a, expr b)
    | Expr.Div (a, b) -> Expr.Div (expr a, expr b)
    | Expr.Add_days (a, d) -> Expr.Add_days (expr a, d)
  in
  let rec go = function
    | (True | False) as p -> p
    | Cmp (op, a, b) -> Cmp (op, expr a, expr b)
    | Between (e, lo, hi) -> Between (expr e, expr lo, expr hi)
    | Contains (e, s) -> Contains (expr e, s)
    | And ps -> And (List.map go ps)
    | Or ps -> Or (List.map go ps)
    | Not p -> Not (go p)
  in
  go pred

let render_cmp = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Canonical one-line rendering for structural keys: nested And/Or are
   flattened, operand lists sorted by rendering, and the operands of the
   commutative comparisons (=, <>) ordered — predicates equal modulo
   commutation render identically.  [Rq_sql.Fingerprint] keys the plan
   cache on this; literals print exactly ([Expr.render]), so two
   different constants never share a cached plan. *)
let rec render p =
  let flatten_and = function And ps -> ps | p -> [ p ] in
  let flatten_or = function Or ps -> ps | p -> [ p ] in
  match p with
  | True -> "true"
  | False -> "false"
  | Cmp (op, a, b) ->
      let ra = Expr.render a and rb = Expr.render b in
      let ra, rb =
        match op with
        | Eq | Ne -> if String.compare ra rb <= 0 then (ra, rb) else (rb, ra)
        | _ -> (ra, rb)
      in
      "(" ^ render_cmp op ^ " " ^ ra ^ " " ^ rb ^ ")"
  | Between (e, lo, hi) ->
      "(between " ^ Expr.render e ^ " " ^ Expr.render lo ^ " " ^ Expr.render hi ^ ")"
  | Contains (e, s) -> Printf.sprintf "(contains %s %S)" (Expr.render e) s
  | And ps ->
      let parts =
        List.concat_map flatten_and ps |> List.map render |> List.sort String.compare
      in
      "(and " ^ String.concat " " parts ^ ")"
  | Or ps ->
      let parts =
        List.concat_map flatten_or ps |> List.map render |> List.sort String.compare
      in
      "(or " ^ String.concat " " parts ^ ")"
  | Not p -> "(not " ^ render p ^ ")"

let pp_cmp fmt op =
  Format.pp_print_string fmt
    (match op with Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=")

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "TRUE"
  | False -> Format.pp_print_string fmt "FALSE"
  | Cmp (op, a, b) -> Format.fprintf fmt "%a %a %a" Expr.pp a pp_cmp op Expr.pp b
  | Between (e, lo, hi) ->
      Format.fprintf fmt "%a BETWEEN %a AND %a" Expr.pp e Expr.pp lo Expr.pp hi
  | Contains (e, s) -> Format.fprintf fmt "%a CONTAINS %S" Expr.pp e s
  | And ps ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " AND ") pp)
        ps
  | Or ps ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " OR ") pp)
        ps
  | Not p -> Format.fprintf fmt "NOT %a" pp p
