(** Expression evaluation: column-at-a-time for projected values
    ({!eval_col}), row-at-a-time closures for everything else
    ({!compile_row}, and {!compile_pred} for predicates). Neither selects
    rows itself: every filter over a row range gets its survivors from
    {!Kernel.selector}, which drives {!compile_pred} closures next to its
    byte masks. *)

open Value
open Plan

(* ------------------------------------------------------------------ *)
(* LIKE                                                               *)
(* ------------------------------------------------------------------ *)

(* SQL LIKE with % (any run) and _ (any char). *)
let like_match (pattern : string) (s : string) : bool =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '%' ->
        if pi + 1 < np && pattern.[pi + 1] = '%' then go (pi + 1) si
        else
          let rec try_from k = k <= ns && (go (pi + 1) k || try_from (k + 1)) in
          try_from si
      | '_' -> si < ns && go (pi + 1) (si + 1)
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

(* Fast paths for the dominant patterns: 'x%', '%x', '%x%'. *)
let compile_like (pattern : string) : string -> bool =
  let n = String.length pattern in
  let plain = not (String.contains pattern '_') in
  (* allocation-free matchers: these run once per row in filter loops, so
     they are plain loops (a local recursive function would be a closure
     allocated on every call) *)
  let eq_at p s i =
    let lp = String.length p in
    let j = ref 0 in
    while !j < lp && String.unsafe_get s (i + !j) = String.unsafe_get p !j do
      incr j
    done;
    !j = lp
  in
  let starts_with p s = String.length s >= String.length p && eq_at p s 0 in
  let ends_with p s =
    let lp = String.length p and ls = String.length s in
    ls >= lp && eq_at p s (ls - lp)
  in
  (* the first char is tested inline, so most positions cost one compare *)
  let contains_sub p s =
    let lp = String.length p in
    let last = String.length s - lp in
    if lp = 0 then last >= 0
    else begin
      let c0 = String.unsafe_get p 0 in
      let i = ref 0 and found = ref false in
      while (not !found) && !i <= last do
        if String.unsafe_get s !i = c0 then begin
          let j = ref 1 in
          while
            !j < lp && String.unsafe_get s (!i + !j) = String.unsafe_get p !j
          do
            incr j
          done;
          if !j = lp then found := true else incr i
        end
        else incr i
      done;
      !found
    end
  in
  if plain && n >= 2 && pattern.[n - 1] = '%'
     && not (String.contains (String.sub pattern 0 (n - 1)) '%')
  then starts_with (String.sub pattern 0 (n - 1))
  else if plain && n >= 2 && pattern.[0] = '%'
          && not (String.contains (String.sub pattern 1 (n - 1)) '%')
  then ends_with (String.sub pattern 1 (n - 1))
  else if plain && n >= 3 && pattern.[0] = '%' && pattern.[n - 1] = '%'
          && not (String.contains (String.sub pattern 1 (n - 2)) '%')
  then contains_sub (String.sub pattern 1 (n - 2))
  else fun s -> like_match pattern s

(* ------------------------------------------------------------------ *)
(* Scalar functions                                                   *)
(* ------------------------------------------------------------------ *)

let round_to f digits =
  let scale = 10. ** float_of_int digits in
  Float.round (f *. scale) /. scale

let apply_func name (args : Value.t list) : Value.t =
  if name <> "coalesce" && List.exists Value.is_null args then VNull
  else
    match (name, args) with
    | "year", [ VDate d ] -> VInt (Value.year_of_days d)
    | "month", [ VDate d ] -> VInt (Value.month_of_days d)
    | "day", [ VDate d ] ->
      let _, _, dd = Value.ymd_of_days d in
      VInt dd
    | "substring", [ VString s; start; len ] ->
      let st = Value.as_int start - 1 and l = Value.as_int len in
      let st = max 0 st in
      let l = max 0 (min l (String.length s - st)) in
      if st >= String.length s then VString "" else VString (String.sub s st l)
    | "round", [ v ] -> VFloat (round_to (Value.as_float v) 0)
    | "round", [ v; d ] -> VFloat (round_to (Value.as_float v) (Value.as_int d))
    | "abs", [ VInt i ] -> VInt (abs i)
    | "abs", [ v ] -> VFloat (Float.abs (Value.as_float v))
    | "sqrt", [ v ] -> VFloat (Float.sqrt (Value.as_float v))
    | "ln", [ v ] -> VFloat (Float.log (Value.as_float v))
    | "exp", [ v ] -> VFloat (Float.exp (Value.as_float v))
    | ("power" | "pow"), [ a; b ] ->
      VFloat (Float.pow (Value.as_float a) (Value.as_float b))
    | "floor", [ v ] -> VInt (int_of_float (Float.floor (Value.as_float v)))
    | "ceil", [ v ] -> VInt (int_of_float (Float.ceil (Value.as_float v)))
    | "upper", [ VString s ] -> VString (String.uppercase_ascii s)
    | "lower", [ VString s ] -> VString (String.lowercase_ascii s)
    | ("length" | "strlen"), [ VString s ] -> VInt (String.length s)
    | "coalesce", args -> (
      match List.find_opt (fun v -> not (Value.is_null v)) args with
      | Some v -> v
      | None -> VNull)
    | "concat", args ->
      VString (String.concat "" (List.map Value.to_string args))
    | name, args ->
      invalid_arg
        (Printf.sprintf "Eval.apply_func: %s/%d not supported" name
           (List.length args))

(* ------------------------------------------------------------------ *)
(* Binary operations on boxed values (null-propagating)               *)
(* ------------------------------------------------------------------ *)

let apply_bin (op : Sql_ast.binop) (a : Value.t) (b : Value.t) : Value.t =
  match op with
  | Sql_ast.And -> (
    match (a, b) with
    | VBool x, VBool y -> VBool (x && y)
    | VNull, _ | _, VNull -> VBool false
    | _ -> invalid_arg "Eval.apply_bin: AND on non-bools")
  | Sql_ast.Or -> (
    match (a, b) with
    | VBool x, VBool y -> VBool (x || y)
    | VNull, VBool y -> VBool y
    | VBool x, VNull -> VBool x
    | VNull, VNull -> VBool false
    | _ -> invalid_arg "Eval.apply_bin: OR on non-bools")
  | _ when Value.is_null a || Value.is_null b -> VNull
  | Sql_ast.Concat -> VString (Value.to_string a ^ Value.to_string b)
  | Sql_ast.Eq -> VBool (Value.compare_values a b = 0)
  | Sql_ast.Ne -> VBool (Value.compare_values a b <> 0)
  | Sql_ast.Lt -> VBool (Value.compare_values a b < 0)
  | Sql_ast.Le -> VBool (Value.compare_values a b <= 0)
  | Sql_ast.Gt -> VBool (Value.compare_values a b > 0)
  | Sql_ast.Ge -> VBool (Value.compare_values a b >= 0)
  | Sql_ast.Div -> VFloat (Value.as_float a /. Value.as_float b)
  | Sql_ast.Add | Sql_ast.Sub | Sql_ast.Mul | Sql_ast.Mod -> (
    let int_op x y =
      match op with
      | Sql_ast.Add -> x + y
      | Sql_ast.Sub -> x - y
      | Sql_ast.Mul -> x * y
      | Sql_ast.Mod -> if y = 0 then 0 else x mod y
      | _ -> assert false
    in
    let float_op x y =
      match op with
      | Sql_ast.Add -> x +. y
      | Sql_ast.Sub -> x -. y
      | Sql_ast.Mul -> x *. y
      | Sql_ast.Mod -> Float.rem x y
      | _ -> assert false
    in
    match (a, b) with
    | VInt x, VInt y -> VInt (int_op x y)
    | VDate x, VInt y -> VDate (int_op x y)
    | VInt x, VDate y -> VDate (int_op x y)
    | VDate x, VDate y -> VInt (int_op x y)
    | _ -> VFloat (float_op (Value.as_float a) (Value.as_float b)))

(* ------------------------------------------------------------------ *)
(* Row-at-a-time evaluation (compiled executor)                       *)
(* ------------------------------------------------------------------ *)

(* Compile [e] into a closure over a row ['r], reading column [i] through
   [col i]. Column accessors are resolved once, ahead of the scan loop. *)
let rec compile_row_by (col : int -> 'r -> Value.t) (e : pexpr) : 'r -> Value.t
    =
  let go = compile_row_by col in
  match e with
  | PCol i -> col i
  | PLit v -> fun _ -> v
  | PParam (i, _) ->
    (* templates are bound ({!Plan.bind_query}) before execution; reaching
       a live slot here is a plan-cache routing bug, not bad user SQL *)
    invalid_arg (Printf.sprintf "Eval: unbound query parameter $%d" (i + 1))
  | PBin (op, a, b) ->
    let fa = go a and fb = go b in
    fun row -> apply_bin op (fa row) (fb row)
  | PNeg a ->
    let fa = go a in
    fun row -> (
      match fa row with
      | VInt i -> VInt (-i)
      | VFloat f -> VFloat (-.f)
      | VNull -> VNull
      | v -> invalid_arg ("Eval: cannot negate " ^ Value.to_string v))
  | PNot a ->
    let fa = go a in
    fun row -> (
      match fa row with
      | VBool b -> VBool (not b)
      | VNull -> VBool false
      | v -> invalid_arg ("Eval: cannot NOT " ^ Value.to_string v))
  | PCase (whens, els) ->
    let whens = List.map (fun (c, v) -> (go c, go v)) whens in
    let els = Option.map go els in
    fun row ->
      let rec pick = function
        | [] -> ( match els with Some f -> f row | None -> VNull)
        | (c, v) :: rest -> (
          match c row with VBool true -> v row | _ -> pick rest)
      in
      pick whens
  | PFunc (name, args) ->
    let fargs = List.map go args in
    fun row -> apply_func name (List.map (fun f -> f row) fargs)
  | PLike (a, pattern, negated) ->
    let fa = go a in
    let matcher = compile_like pattern in
    fun row -> (
      match fa row with
      | VString s -> VBool (matcher s <> negated)
      | VNull -> VBool false
      | v -> invalid_arg ("Eval: LIKE on " ^ Value.to_string v))
  | PInList (a, items, negated) ->
    let fa = go a in
    fun row ->
      let v = fa row in
      if Value.is_null v then VBool false
      else VBool (List.exists (Value.equal_values v) items <> negated)
  | PIsNull (a, negated) ->
    let fa = go a in
    fun row -> VBool (Value.is_null (fa row) <> negated)
  | PCast (a, ty) ->
    let fa = go a in
    fun row -> (
      match (fa row, ty) with
      | VNull, _ -> VNull
      | v, TInt -> VInt (Value.as_int v)
      | v, TFloat -> VFloat (Value.as_float v)
      | v, TString -> VString (Value.to_string v)
      | v, TBool -> VBool (Value.as_int v <> 0)
      | VString s, TDate -> VDate (Value.date_of_iso s)
      | v, TDate -> VDate (Value.as_int v))

(* [e] over a row index of fixed input columns. *)
let compile_row (cols : Column.t array) (e : pexpr) : int -> Value.t =
  compile_row_by
    (fun i ->
      let c = cols.(i) in
      fun row -> Column.get c row)
    e

(* A join residual [e] over the left columns followed by the right ones,
   as a test on a (left row, right row) pair. NULL and non-bool answers are
   false, as in filter position. The right row passes through a cell the
   test owns, so each domain compiles its own. *)
let pair_pred (lcols : Column.t array) (rcols : Column.t array) (e : pexpr) :
    int -> int -> bool =
  let nl = Array.length lcols in
  let right = ref 0 in
  let f =
    compile_row_by
      (fun i ->
        if i < nl then
          let c = lcols.(i) in
          fun l -> Column.get c l
        else
          let c = rcols.(i - nl) in
          fun _ -> Column.get c !right)
      e
  in
  fun l r ->
    right := r;
    match f l with VBool b -> b | _ -> false

let cmp_test (op : Sql_ast.binop) : int -> bool =
  match op with
  | Sql_ast.Eq -> fun c -> c = 0
  | Sql_ast.Ne -> fun c -> c <> 0
  | Sql_ast.Lt -> fun c -> c < 0
  | Sql_ast.Le -> fun c -> c <= 0
  | Sql_ast.Gt -> fun c -> c > 0
  | Sql_ast.Ge -> fun c -> c >= 0
  | _ -> invalid_arg "Eval.cmp_test: not a comparison"

(* ------------------------------------------------------------------ *)
(* Dictionary fast paths                                              *)
(* ------------------------------------------------------------------ *)

(* A string predicate over a dictionary column costs one evaluation per
   *distinct* value: build a bool table indexed by code, then each row is a
   single array lookup. Null rows are always false (SQL three-valued logic
   collapses to false in filter position). *)
let dict_row_pred (c : Column.t) (f : string -> bool) : (int -> bool) option =
  match c.Column.data with
  | Column.D (codes, d) ->
    let tbl = Array.map f d.Column.values in
    Some
      (match c.Column.nulls with
      | None -> fun row -> tbl.(Bigarray.Array1.get codes row)
      | Some m ->
        fun row ->
          (not (Bitset.get m row)) && tbl.(Bigarray.Array1.get codes row))
  | _ -> None

(* Same table, materialized as a full bool column (vectorized executor). *)
let dict_col_pred (c : Column.t) ~(n : int) (f : string -> bool) :
    Column.t option =
  match dict_row_pred c f with
  | None -> None
  | Some pred ->
    let out = Array.make n false in
    for i = 0 to n - 1 do
      out.(i) <- pred i
    done;
    Some (Column.of_bools out)

let with_null_check (c : Column.t) (body : int -> bool) : int -> bool =
  match c.Column.nulls with
  | None -> body
  | Some m -> fun row -> (not (Bitset.get m row)) && body row

(* Materialize a row predicate as a bool column (vectorized executor). *)
let pred_to_col (pred : int -> bool) ~(n : int) : Column.t =
  let out = Array.make n false in
  for i = 0 to n - 1 do
    out.(i) <- pred i
  done;
  Column.of_bools out

(* Equality against a string literal needs no per-distinct table at all:
   the dictionary index resolves the literal to its single code (or
   decides the predicate outright when the value is absent), and each row
   is one integer comparison on the code array. *)
let dict_eq_pred (c : Column.t) (k : string) ~(negated : bool) :
    (int -> bool) option =
  match c.Column.data with
  | Column.D (codes, d) ->
    let body =
      match Column.dict_find d k with
      | Some code ->
        if negated then fun row -> Bigarray.Array1.get codes row <> code
        else fun row -> Bigarray.Array1.get codes row = code
      | None -> fun _ -> negated
    in
    Some (with_null_check c body)
  | _ -> None

(* A plain prefix pattern ('foo%', no other metacharacters) extracted from
   a LIKE. *)
let like_prefix (pattern : string) : string option =
  let n = String.length pattern in
  if n >= 2 && pattern.[n - 1] = '%' then
    let p = String.sub pattern 0 (n - 1) in
    if String.exists (fun ch -> ch = '%' || ch = '_') p then None else Some p
  else None

(* Prefix LIKE on a dictionary column is a rank-range test on codes: the
   values matching [prefix] occupy a contiguous run of lexicographic
   ranks. One string pass over the dictionary finds the run's bounds;
   each row is then a rank lookup and two integer compares — the strings
   themselves are never touched again. *)
(* Lexicographic rank interval [lo, hi) of the values matching [prefix]. *)
let prefix_rank_range (d : Column.dict) (prefix : string) : int * int =
  let lp = String.length prefix in
  let lo = ref 0 and hi = ref 0 in
  Array.iter
    (fun v ->
      let lv = String.length v in
      let cp = String.compare (String.sub v 0 (min lp lv)) prefix in
      (* cp < 0 or a shorter string with an equal head: sorts before the
         prefix run; cp = 0 with enough length: inside the run *)
      if cp < 0 || (cp = 0 && lv < lp) then begin
        incr lo;
        incr hi
      end
      else if cp = 0 then incr hi)
    d.Column.values;
  (!lo, !hi)

let dict_prefix_pred (c : Column.t) (prefix : string) ~(negated : bool) :
    (int -> bool) option =
  match c.Column.data with
  | Column.D (codes, d) ->
    let rank = d.Column.rank in
    let lo, hi = prefix_rank_range d prefix in
    let body =
      if negated then fun row ->
        let r = rank.(Bigarray.Array1.get codes row) in
        r < lo || r >= hi
      else fun row ->
        let r = rank.(Bigarray.Array1.get codes row) in
        r >= lo && r < hi
    in
    Some (with_null_check c body)
  | _ -> None

(* Code-direct string predicate dispatch shared by both executors:
   equality and prefix LIKE run on codes, everything else falls back to
   the per-distinct-value table (still one string evaluation per distinct,
   not per row). *)
let dict_cmp_pred (c : Column.t) (op : Sql_ast.binop) (k : string)
    (test : int -> bool) : (int -> bool) option =
  match op with
  | Sql_ast.Eq -> dict_eq_pred c k ~negated:false
  | Sql_ast.Ne -> dict_eq_pred c k ~negated:true
  | _ -> dict_row_pred c (fun v -> test (String.compare v k))

let dict_like_pred (c : Column.t) (pattern : string) ~(negated : bool) :
    (int -> bool) option =
  match Option.bind (like_prefix pattern) (dict_prefix_pred c ~negated) with
  | Some _ as pred -> pred
  | None -> (
    let matcher = compile_like pattern in
    let test v = matcher v <> negated in
    match (dict_row_pred c test, c.Column.data) with
    | (Some _ as pred), _ -> pred
    | None, Column.S a ->
      (* raw strings: the matcher straight on the array, nothing boxed *)
      Some (with_null_check c (fun row -> test (Array.unsafe_get a row)))
    | None, _ -> None)

(* Compile a predicate into a fast boolean closure. *)
let rec compile_pred (cols : Column.t array) (e : pexpr) : int -> bool =
  let fallback e =
    let f = compile_row cols e in
    fun row -> ( match f row with VBool b -> b | _ -> false)
  in
  match e with
  | PBin (Sql_ast.And, a, b) ->
    let fa = compile_pred cols a and fb = compile_pred cols b in
    fun row -> fa row && fb row
  | PBin (Sql_ast.Or, a, b) ->
    let fa = compile_pred cols a and fb = compile_pred cols b in
    fun row -> fa row || fb row
  | PBin (((Sql_ast.Eq | Ne | Lt | Le | Gt | Ge) as op), PCol i, PLit lit) -> (
    let c = cols.(i) in
    let test = cmp_test op in
    match (c.Column.data, lit) with
    | Column.D _, VString k -> (
      match dict_cmp_pred c op k test with
      | Some f -> f
      | None -> fallback e)
    | _ when Column.has_nulls c -> fallback e
    | Column.I v, (VInt k | VDate k) ->
      fun row -> test (compare (Bigarray.Array1.get v row) k)
    | Column.F v, VFloat k ->
      fun row -> test (compare (Bigarray.Array1.get v row) k)
    | Column.F v, VInt k ->
      let k = float_of_int k in
      fun row -> test (compare (Bigarray.Array1.get v row) k)
    | Column.S a, VString k -> fun row -> test (String.compare a.(row) k)
    | _ -> fallback e)
  | PBin (((Sql_ast.Eq | Ne | Lt | Le | Gt | Ge) as op), PCol i, PCol j) -> (
    let ca = cols.(i) and cb = cols.(j) in
    let test = cmp_test op in
    match (ca.Column.data, cb.Column.data) with
    | _ when Column.has_nulls ca || Column.has_nulls cb -> fallback e
    | Column.I x, Column.I y ->
      fun row ->
        test (Int.compare (Bigarray.Array1.get x row) (Bigarray.Array1.get y row))
    | Column.F x, Column.F y ->
      fun row ->
        test
          (Float.compare (Bigarray.Array1.get x row) (Bigarray.Array1.get y row))
    | Column.S x, Column.S y ->
      fun row -> test (String.compare x.(row) y.(row))
    | Column.D (x, dx), Column.D (y, dy) ->
      let rx, ry =
        if dx == dy then (dx.Column.rank, dx.Column.rank)
        else Column.cross_ranks dx dy
      in
      fun row ->
        test
          (Int.compare
             rx.(Bigarray.Array1.get x row)
             ry.(Bigarray.Array1.get y row))
    | Column.D (x, dx), Column.S y ->
      let vx = dx.Column.values in
      fun row -> test (String.compare vx.(Bigarray.Array1.get x row) y.(row))
    | Column.S x, Column.D (y, dy) ->
      let vy = dy.Column.values in
      fun row -> test (String.compare x.(row) vy.(Bigarray.Array1.get y row))
    | _ -> fallback e)
  | PLike (PCol i, pattern, negated) -> (
    match dict_like_pred cols.(i) pattern ~negated with
    | Some f -> f
    | None -> fallback e)
  | PInList (PCol i, items, negated) -> (
    match
      dict_row_pred cols.(i) (fun v ->
          List.exists (Value.equal_values (VString v)) items <> negated)
    with
    | Some f -> f
    | None -> fallback e)
  | _ -> fallback e

(* ------------------------------------------------------------------ *)
(* Column-at-a-time evaluation (vectorized executor)                  *)
(* ------------------------------------------------------------------ *)

(* Row arithmetic, inlined into the typed loops of {!eval_col}. *)
let[@inline] int_arith (op : Sql_ast.binop) x y =
  match op with Sql_ast.Add -> x + y | Sql_ast.Sub -> x - y | _ -> x * y

let[@inline] float_arith (op : Sql_ast.binop) x y =
  match op with
  | Sql_ast.Add -> x +. y
  | Sql_ast.Sub -> x -. y
  | Sql_ast.Mul -> x *. y
  | _ -> x /. y

let merged_nulls (a : Column.t) (b : Column.t) =
  match (a.Column.nulls, b.Column.nulls) with
  | None, None -> None
  | Some m, None | None, Some m -> Some (Bitset.copy m)
  | Some x, Some y -> Some (Bitset.union x y)

(* Evaluate [e] over all [n] rows of [cols], producing a new column.
   Hot arithmetic/comparison shapes run as typed loops; the general case
   falls back to the row compiler. *)
let eval_col (cols : Column.t array) ~(n : int) (e : pexpr) : Column.t =
  let schema = Array.map (fun (c : Column.t) -> ("", c.Column.ty)) cols in
  let out_ty = type_of_pexpr schema e in
  let rec eval (e : pexpr) : Column.t =
    match e with
    | PCol i -> cols.(i)
    | PLit v -> Column.const (type_of_pexpr schema e) v n
    | PBin (((Sql_ast.Add | Sub | Mul | Div) as op), a, b) -> arith op a b
    | PBin (((Sql_ast.Eq | Ne | Lt | Le | Gt | Ge) as op), a, PLit (VString k))
      -> (
      (* String comparison against a literal: one compare per distinct
         dictionary value instead of one per row. *)
      let ca = eval a in
      let test = cmp_test op in
      match dict_cmp_pred ca op k test with
      | Some pred -> pred_to_col pred ~n
      | None -> cmp_cols op ca (Column.const TString (VString k) n))
    | PBin (((Sql_ast.Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) ->
      cmp_cols op (eval a) (eval b)
    | PBin (Sql_ast.And, a, b) -> boolean ( && ) a b
    | PBin (Sql_ast.Or, a, b) -> boolean ( || ) a b
    | PNot a -> (
      let ca = eval a in
      match ca.Column.data with
      | Column.B x ->
        let out = Array.make n false in
        for i = 0 to n - 1 do
          out.(i) <- (not x.(i)) && not (Column.is_null ca i)
        done;
        Column.of_bools out
      | _ -> fallback e)
    | PLike (a, pattern, negated) -> (
      match dict_like_pred (eval a) pattern ~negated with
      | Some pred -> pred_to_col pred ~n
      | None -> fallback e)
    | PInList (a, items, negated) -> (
      let ca = eval a in
      match
        dict_col_pred ca ~n (fun v ->
            List.exists (Value.equal_values (VString v)) items <> negated)
      with
      | Some col -> col
      | None -> fallback e)
    | _ -> fallback e
  and arith op a b =
    let ca = eval a and cb = eval b in
    let nulls = merged_nulls ca cb in
    let get = Bigarray.Array1.unsafe_get and set = Bigarray.Array1.unsafe_set in
    (* one direct loop per operand pair; the operator is matched per row,
       since a closure call would box every float. Null rows are zeroed
       afterwards: their operands' payloads may combine to anything. *)
    let float_out fill =
      let out = Column.fvec_create n in
      fill out;
      Option.iter (Bitset.iter_set (fun i -> set out i 0.)) nulls;
      { Column.ty = TFloat; data = Column.F out; nulls }
    in
    match (ca.Column.data, cb.Column.data, op) with
    | Column.I x, Column.I y, (Sql_ast.Add | Sub | Mul) ->
      let out = Column.ivec_create n in
      for i = 0 to n - 1 do
        set out i (int_arith op (get x i) (get y i))
      done;
      Option.iter (Bitset.iter_set (fun i -> set out i 0)) nulls;
      let ty =
        match (ca.Column.ty, cb.Column.ty, op) with
        | TDate, TInt, _ | TInt, TDate, Sql_ast.Add -> TDate
        | _ -> TInt
      in
      { Column.ty; data = Column.I out; nulls }
    | Column.I x, Column.I y, _ ->
      float_out (fun out ->
          for i = 0 to n - 1 do
            set out i (float_of_int (get x i) /. float_of_int (get y i))
          done)
    | Column.F x, Column.F y, _ ->
      float_out (fun out ->
          for i = 0 to n - 1 do
            set out i (float_arith op (get x i) (get y i))
          done)
    | Column.I x, Column.F y, _ ->
      float_out (fun out ->
          for i = 0 to n - 1 do
            set out i (float_arith op (float_of_int (get x i)) (get y i))
          done)
    | Column.F x, Column.I y, _ ->
      float_out (fun out ->
          for i = 0 to n - 1 do
            set out i (float_arith op (get x i) (float_of_int (get y i)))
          done)
    | _ -> fallback (PBin (op, a, b))
  and cmp_cols op ca cb =
    let nulls = merged_nulls ca cb in
    let test = cmp_test op in
    let get = Bigarray.Array1.unsafe_get in
    let out = Array.make n false in
    (match (ca.Column.data, cb.Column.data) with
    | Column.I x, Column.I y ->
      for i = 0 to n - 1 do
        out.(i) <- test (compare (get x i) (get y i))
      done
    | Column.F x, Column.F y ->
      for i = 0 to n - 1 do
        out.(i) <- test (compare (get x i) (get y i))
      done
    | Column.S x, Column.S y ->
      for i = 0 to n - 1 do
        out.(i) <- test (String.compare x.(i) y.(i))
      done
    | Column.D (x, dx), Column.D (y, dy) ->
      (* A shared dictionary's rank order substitutes for string
         comparison entirely; distinct dictionaries merge-rank once. *)
      let rx, ry =
        if dx == dy then (dx.Column.rank, dx.Column.rank)
        else Column.cross_ranks dx dy
      in
      for i = 0 to n - 1 do
        out.(i) <- test (Int.compare rx.(get x i) ry.(get y i))
      done
    | Column.D (x, dx), Column.S y ->
      let vx = dx.Column.values in
      for i = 0 to n - 1 do
        out.(i) <- test (String.compare vx.(get x i) y.(i))
      done
    | Column.S x, Column.D (y, dy) ->
      let vy = dy.Column.values in
      for i = 0 to n - 1 do
        out.(i) <- test (String.compare x.(i) vy.(get y i))
      done
    | Column.B x, Column.B y ->
      for i = 0 to n - 1 do
        out.(i) <- test (compare x.(i) y.(i))
      done
    | Column.I x, Column.F y ->
      for i = 0 to n - 1 do
        out.(i) <- test (compare (float_of_int (get x i)) (get y i))
      done
    | Column.F x, Column.I y ->
      for i = 0 to n - 1 do
        out.(i) <- test (compare (get x i) (float_of_int (get y i)))
      done
    | _ ->
      for i = 0 to n - 1 do
        out.(i) <-
          (match apply_bin op (Column.get ca i) (Column.get cb i) with
          | VBool b -> b
          | _ -> false)
      done);
    (* Null in either operand makes the comparison false. *)
    (match nulls with
    | None -> ()
    | Some m -> Bitset.iter_set (fun i -> out.(i) <- false) m);
    Column.of_bools out
  and boolean f a b =
    let ca = eval a and cb = eval b in
    match (ca.Column.data, cb.Column.data) with
    | Column.B x, Column.B y ->
      let out = Array.make n false in
      for i = 0 to n - 1 do
        let xv = x.(i) && not (Column.is_null ca i) in
        let yv = y.(i) && not (Column.is_null cb i) in
        out.(i) <- f xv yv
      done;
      Column.of_bools out
    | _ -> fallback (PBin ((if f true false then Sql_ast.Or else Sql_ast.And), a, b))
  and fallback e =
    let f = compile_row cols e in
    let vs = Array.init n f in
    Column.of_values (type_of_pexpr schema e) vs
  in
  ignore out_ty;
  eval e
