(** Scalar values, logical column types, and date arithmetic.

    Dates are stored as days since 1970-01-01 (negative before), using the
    proleptic Gregorian calendar. *)

type ty = TInt | TFloat | TString | TBool | TDate

type t =
  | VInt of int
  | VFloat of float
  | VString of string
  | VBool of bool
  | VDate of int
  | VNull

let ty_name = function
  | TInt -> "INTEGER"
  | TFloat -> "DOUBLE"
  | TString -> "VARCHAR"
  | TBool -> "BOOLEAN"
  | TDate -> "DATE"

let ty_of_string s =
  match String.uppercase_ascii s with
  | "INTEGER" | "INT" | "BIGINT" | "SMALLINT" -> TInt
  | "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" -> TFloat
  | "VARCHAR" | "TEXT" | "CHAR" | "STRING" -> TString
  | "BOOLEAN" | "BOOL" -> TBool
  | "DATE" -> TDate
  | other -> invalid_arg ("Value.ty_of_string: unknown type " ^ other)

(* Days-from-civil algorithm (Howard Hinnant); exact for the proleptic
   Gregorian calendar. *)
let days_of_ymd y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (m + 9) mod 12 in
  let doy = ((153 * mp + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let ymd_of_days z =
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

let date_of_iso s =
  (* Accepts YYYY-MM-DD. *)
  if String.length s <> 10 || s.[4] <> '-' || s.[7] <> '-' then
    invalid_arg ("Value.date_of_iso: bad date literal " ^ s)
  else
    let y = int_of_string (String.sub s 0 4) in
    let m = int_of_string (String.sub s 5 2) in
    let d = int_of_string (String.sub s 8 2) in
    days_of_ymd y m d

let iso_of_date z =
  let y, m, d = ymd_of_days z in
  Printf.sprintf "%04d-%02d-%02d" y m d

let looks_like_iso_date s =
  String.length s = 10
  && s.[4] = '-'
  && s.[7] = '-'
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || c = '-')
       s

let year_of_days z =
  let y, _, _ = ymd_of_days z in
  y

let month_of_days z =
  let _, m, _ = ymd_of_days z in
  m

let type_of = function
  | VInt _ -> TInt
  | VFloat _ -> TFloat
  | VString _ -> TString
  | VBool _ -> TBool
  | VDate _ -> TDate
  | VNull -> TString (* arbitrary; callers must special-case null *)

let is_null = function VNull -> true | _ -> false

let to_string = function
  | VInt i -> string_of_int i
  | VFloat f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.6g" f
  | VString s -> s
  | VBool b -> string_of_bool b
  | VDate d -> iso_of_date d
  | VNull -> "NULL"

let as_float = function
  | VInt i -> float_of_int i
  | VFloat f -> f
  | VBool true -> 1.
  | VBool false -> 0.
  | VDate d -> float_of_int d
  | VString s -> float_of_string s
  | VNull -> Float.nan

let as_int = function
  | VInt i -> i
  | VFloat f -> int_of_float f
  | VBool true -> 1
  | VBool false -> 0
  | VDate d -> d
  | VString s -> int_of_string s
  | VNull -> invalid_arg "Value.as_int: null"

(* SQL-style three-valued comparison is handled by the executor; this is a
   total order over non-null values used for sorting and grouping. *)
let compare_values a b =
  match (a, b) with
  | VNull, VNull -> 0
  | VNull, _ -> -1
  | _, VNull -> 1
  | VInt x, VInt y -> compare x y
  | VDate x, VDate y -> compare x y
  | VBool x, VBool y -> compare x y
  | VString x, VString y -> compare x y
  | (VInt _ | VFloat _ | VDate _ | VBool _), (VInt _ | VFloat _ | VDate _ | VBool _)
    -> compare (as_float a) (as_float b)
  | VString _, _ | _, VString _ ->
    invalid_arg "Value.compare_values: incomparable types"

let equal_values a b =
  match (a, b) with
  | VNull, _ | _, VNull -> false
  | _ -> compare_values a b = 0

(* Key hashes, shared by every hash structure ({!Hash_util}: the key table,
   bloom filters, radix routing). Equal keys hash equally whatever their
   physical layout: ints (and dates) hash as themselves, strings by value,
   floats by their bits after mapping -0.0 to 0.0 and every NaN to one NaN,
   so hashing agrees with [Float.equal]. Results are non-negative. *)

(* splitmix64 finalizer with multipliers truncated to OCaml's 63-bit ints *)
let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x3f58476d1ce4e5b9 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14d049bb133111eb in
  h lxor (h lsr 31)

let hash_int i = mix i land max_int
let hash_string (s : string) = mix (Hashtbl.hash s) land max_int

(* the high word is folded into the low one first: [Int64.to_int] drops
   bit 63, the sign *)
let hash_float f =
  let f = if f = 0. then 0. else if Float.is_nan f then Float.nan else f in
  let b = Int64.bits_of_float f in
  hash_int (Int64.to_int (Int64.logxor b (Int64.shift_right_logical b 32)))
