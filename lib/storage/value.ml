type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int

type ty = T_bool | T_int | T_float | T_string | T_date

let type_of = function
  | Null -> None
  | Bool _ -> Some T_bool
  | Int _ -> Some T_int
  | Float _ -> Some T_float
  | String _ -> Some T_string
  | Date _ -> Some T_date

(* Rank for cross-type ordering; Int and Float share a rank and compare
   numerically, mirroring SQL numeric comparison. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | String _ -> 3
  | Date _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let is_null = function Null -> true | _ -> false

let to_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | Date x -> float_of_int x
  | Bool b -> if b then 1.0 else 0.0
  | Null -> invalid_arg "Value.to_float: Null"
  | String _ -> invalid_arg "Value.to_float: String"

let add_days v days =
  match v with
  | Date d -> Date (d + days)
  | _ -> invalid_arg "Value.add_days: not a date"

(* Days-from-civil and civil-from-days, Howard Hinnant's algorithms. *)
let date_of_ymd ~year ~month ~day =
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (month + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  Date ((era * 146097) + doe - 719468)

let ymd_of_date = function
  | Date z ->
      let z = z + 719468 in
      let era = (if z >= 0 then z else z - 146096) / 146097 in
      let doe = z - (era * 146097) in
      let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
      let y = yoe + (era * 400) in
      let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
      let mp = ((5 * doy) + 2) / 153 in
      let d = doy - (((153 * mp) + 2) / 5) + 1 in
      let m = if mp < 10 then mp + 3 else mp - 9 in
      ((if m <= 2 then y + 1 else y), m, d)
  | _ -> invalid_arg "Value.ymd_of_date: not a date"

let pp fmt = function
  | Null -> Format.pp_print_string fmt "NULL"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%g" f
  | String s -> Format.fprintf fmt "%S" s
  | Date _ as d ->
      let y, m, day = ymd_of_date d in
      Format.fprintf fmt "%04d-%02d-%02d" y m day

let to_string v = Format.asprintf "%a" pp v

(* [%g] keeps six significant digits, so 500.0000001 and 499.9999999 both
   print "500"; a key must tell them apart.  A float whose [%g] form parses
   back to it keeps that form, and any other gets the 17 digits that
   round-trip every binary64. *)
let to_key = function
  | Float f ->
      let short = Printf.sprintf "%g" f in
      if Float.equal (float_of_string short) f then short else Printf.sprintf "%.17g" f
  | v -> to_string v

let pp_ty fmt ty =
  Format.pp_print_string fmt
    (match ty with
    | T_bool -> "bool"
    | T_int -> "int"
    | T_float -> "float"
    | T_string -> "string"
    | T_date -> "date")

let ty_to_string ty = Format.asprintf "%a" pp_ty ty

let byte_width = function
  | T_bool -> 1
  | T_int -> 8
  | T_float -> 8
  | T_string -> 20
  | T_date -> 4
