(** Eager, operation-at-a-time DataFrame library — the "Python/Pandas"
    baseline substrate. Every operation fully materializes its result, runs
    single-threaded, and performs no cross-operation fusion, mirroring how
    Pandas executes a pipeline of pre-compiled kernels (paper §I). *)

open Sqldb

type t = Relation.t

exception Df_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Df_error s)) fmt

let of_relation (r : Relation.t) : t = r
let to_relation (t : t) : Relation.t = t

let create (cols : (string * Column.t) list) : t =
  Relation.create
    (Array.of_list (List.map fst cols))
    (Array.of_list (List.map snd cols))

let empty : t = Relation.create [||] [||]
let n_rows = Relation.n_rows
let columns (t : t) = Array.to_list t.Relation.names

let column (t : t) name : Column.t =
  match Relation.col_index t name with
  | Some i -> t.Relation.cols.(i)
  | None -> err "no column %s (have: %s)" name (String.concat ", " (columns t))

let has_column (t : t) name = Relation.col_index t name <> None

(* ------------------------------------------------------------------ *)
(* Selection / filtering                                              *)
(* ------------------------------------------------------------------ *)

let select (t : t) (names : string list) : t =
  create (List.map (fun n -> (n, column t n)) names)

let filter_mask (t : t) (mask : bool array) : t =
  if Array.length mask <> n_rows t then err "mask length mismatch";
  let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask in
  let idx = Array.make count 0 in
  let k = ref 0 in
  Array.iteri
    (fun i b ->
      if b then begin
        idx.(!k) <- i;
        incr k
      end)
    mask;
  Relation.take t idx

let head (t : t) n =
  Relation.take t (Array.init (min n (n_rows t)) Fun.id)

let rename_columns (t : t) (mapping : (string * string) list) : t =
  Relation.rename t
    (Array.map
       (fun n ->
         match List.assoc_opt n mapping with Some n' -> n' | None -> n)
       t.Relation.names)

let drop_columns (t : t) (names : string list) : t =
  select t (List.filter (fun c -> not (List.mem c names)) (columns t))

let assign (t : t) name (c : Column.t) : t =
  if n_rows t > 0 && Column.length c <> n_rows t then
    err "assign: length mismatch";
  if has_column t name then
    create
      (List.map
         (fun n -> (n, if String.equal n name then c else column t n))
         (columns t))
  else create ((columns t |> List.map (fun n -> (n, column t n))) @ [ (name, c) ])

(* ------------------------------------------------------------------ *)
(* Series operations (eager, element-wise, materializing)             *)
(* ------------------------------------------------------------------ *)

(* The interpreter keys every lookup table (groups, distinct rows, join
   builds, [isin]) on boxed values in a generic [Hashtbl], independently
   of the engines' key table, so it stays a separate reference for them.
   [Hashtbl] compares with [compare] and normalizes float hashes, so float
   keys follow SQL key semantics (-0.0 = 0.0, NaN = NaN); dates key as
   their day number like ints. *)
let value_key (v : Value.t) = match v with Value.VDate d -> Value.VInt d | v -> v

let row_key (cols : Column.t array) (idxs : int list) row : Value.t list =
  List.map (fun i -> value_key (Column.get cols.(i) row)) idxs

(* Group id of every row over the key columns at [idxs] (first-seen order,
   NULL a key value), and the group count. *)
let group_ids (cols : Column.t array) (idxs : int list) ~(n : int) :
    int * int array =
  let tbl = Hashtbl.create 64 in
  let ids =
    Array.init n (fun row ->
        let k = row_key cols idxs row in
        match Hashtbl.find_opt tbl k with
        | Some g -> g
        | None ->
          let g = Hashtbl.length tbl in
          Hashtbl.add tbl k g;
          g)
  in
  (Hashtbl.length tbl, ids)

(* The first row of every distinct key over [idxs], ascending. *)
let first_rows (cols : Column.t array) (idxs : int list) ~(n : int) :
    int array =
  let _, ids = group_ids cols idxs ~n in
  let next = ref 0 and keep = ref [] in
  Array.iteri
    (fun row g ->
      if g = !next then begin
        incr next;
        keep := row :: !keep
      end)
    ids;
  Array.of_list (List.rev !keep)

module Series = struct
  open Value

  let length = Column.length

  let map_float f (c : Column.t) : Column.t =
    Column.of_floats (Array.init (length c) (fun i -> f (Column.float_at c i)))

  let binop_num f_int f_float (a : Column.t) (b : Column.t) : Column.t =
    let n = length a in
    if length b <> n then err "series length mismatch";
    match (Column.int_reader a, Column.int_reader b) with
    | Some ga, Some gb when a.Column.ty <> TDate || b.Column.ty <> TDate ->
      Column.of_ints (Array.init n (fun i -> f_int (ga i) (gb i)))
    | _ ->
      Column.of_floats
        (Array.init n (fun i ->
             f_float (Column.float_at a i) (Column.float_at b i)))

    let add = binop_num ( + ) ( +. )
  let sub = binop_num ( - ) ( -. )
  let mul = binop_num ( * ) ( *. )

  let div (a : Column.t) (b : Column.t) : Column.t =
    let n = length a in
    Column.of_floats
      (Array.init n (fun i -> Column.float_at a i /. Column.float_at b i))

  let scalar_of_value v ty n : Column.t =
    Column.of_values ty (Array.make n v)

  let broadcast (v : Value.t) n : Column.t =
    match v with
    | VInt _ -> scalar_of_value v TInt n
    | VFloat _ -> scalar_of_value v TFloat n
    | VString _ -> scalar_of_value v TString n
    | VBool _ -> scalar_of_value v TBool n
    | VDate _ -> scalar_of_value v TDate n
    | VNull -> scalar_of_value v TFloat n

  let compare_op op (a : Column.t) (b : Column.t) : bool array =
    let n = length a in
    if length b <> n then err "series length mismatch";
    let test c =
      match op with
      | `Eq -> c = 0
      | `Ne -> c <> 0
      | `Lt -> c < 0
      | `Le -> c <= 0
      | `Gt -> c > 0
      | `Ge -> c >= 0
    in
    (* coerce string dates against date columns *)
    let coerce (x : Column.t) (other_ty : ty) : Column.t =
      if x.Column.ty = TString && other_ty = TDate then
        match (Column.decode x).Column.data with
        | Column.S arr ->
          Column.of_dates (Array.map Value.date_of_iso arr)
        | _ -> x
      else x
    in
    let a = coerce a b.Column.ty and b = coerce b a.Column.ty in
    let stringish (c : Column.t) =
      match c.Column.data with
      | Column.S _ | Column.D _ -> true
      | _ -> false
    in
    match (a.Column.data, b.Column.data) with
    | Column.D (ca, da), Column.D (cb, db) when da == db ->
      let rank = da.Column.rank in
      Array.init n (fun i -> test (compare rank.(ca.{i}) rank.(cb.{i})))
    | _ -> (
      if stringish a && stringish b then
        Array.init n (fun i ->
            test (String.compare (Column.string_at a i) (Column.string_at b i)))
      else
        match (Column.int_reader a, Column.int_reader b) with
        | Some ga, Some gb -> Array.init n (fun i -> test (compare (ga i) (gb i)))
        | _ -> (
          match (Column.num_reader a, Column.num_reader b) with
          | Some ga, Some gb ->
            Array.init n (fun i -> test (Float.compare (ga i) (gb i)))
          | _ -> (
            match (a.Column.data, b.Column.data) with
            | Column.B x, Column.B y ->
              Array.init n (fun i -> test (compare x.(i) y.(i)))
            | _ -> err "incomparable series")))

  let logical_and a b = Array.map2 ( && ) a b
  let logical_or a b = Array.map2 ( || ) a b
  let logical_not a = Array.map not a

  let sum (c : Column.t) : Value.t =
    match Column.int_reader c with
    | Some get ->
      let acc = ref 0 in
      for i = 0 to length c - 1 do
        if not (Column.is_null c i) then acc := !acc + get i
      done;
      VInt !acc
    | None ->
      (* compensated, like the engine's accumulators, so baseline and
         engine sums agree after output rounding whatever the engine's
         chunking was *)
      let acc = Agg_util.ksum () in
      for i = 0 to length c - 1 do
        if not (Column.is_null c i) then Agg_util.kadd acc (Column.float_at c i)
      done;
      VFloat (Agg_util.kfinish acc)

  let count (c : Column.t) : int =
    let n = ref 0 in
    for i = 0 to length c - 1 do
      if not (Column.is_null c i) then incr n
    done;
    !n

  let mean (c : Column.t) : Value.t =
    let n = count c in
    if n = 0 then VNull
    else
      VFloat
        ((match sum c with
         | VInt i -> float_of_int i
         | VFloat f -> f
         | _ -> 0.)
        /. float_of_int n)

  let min_max which (c : Column.t) : Value.t =
    let best = ref VNull in
    for i = 0 to length c - 1 do
      if not (Column.is_null c i) then begin
        let v = Column.get c i in
        match !best with
        | VNull -> best := v
        | b ->
          let cmp = Value.compare_values v b in
          if (which = `Min && cmp < 0) || (which = `Max && cmp > 0) then
            best := v
      end
    done;
    !best

  let min_ = min_max `Min
  let max_ = min_max `Max

  let unique (c : Column.t) : Column.t =
    Column.take c (first_rows [| c |] [ 0 ] ~n:(length c))

  let nunique (c : Column.t) : int = length (unique c)

  let isin (c : Column.t) (values : Value.t list) : bool array =
    let tbl = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace tbl (value_key v) ()) values;
    Array.init (length c) (fun i -> Hashtbl.mem tbl (value_key (Column.get c i)))

  let isin_col (c : Column.t) (other : Column.t) : bool array =
    let tbl = Hashtbl.create 64 in
    for i = 0 to length other - 1 do
      Hashtbl.replace tbl (value_key (Column.get other i)) ()
    done;
    Array.init (length c) (fun i -> Hashtbl.mem tbl (value_key (Column.get c i)))

  (* str accessor *)
  let str_contains (c : Column.t) (needle : string) : bool array =
    let m = Eval.compile_like ("%" ^ needle ^ "%") in
    Array.init (length c) (fun i -> m (Column.string_at c i))

  let str_startswith (c : Column.t) (prefix : string) : bool array =
    let m = Eval.compile_like (prefix ^ "%") in
    Array.init (length c) (fun i -> m (Column.string_at c i))

  let str_endswith (c : Column.t) (suffix : string) : bool array =
    let m = Eval.compile_like ("%" ^ suffix) in
    Array.init (length c) (fun i -> m (Column.string_at c i))

  let str_slice (c : Column.t) start stop : Column.t =
    Column.of_strings
      (Array.init (length c) (fun i ->
           let s = Column.string_at c i in
           let len = String.length s in
           let a = max 0 (min start len) and b = max 0 (min stop len) in
           if b <= a then "" else String.sub s a (b - a)))

  let dt_year (c : Column.t) : Column.t =
    Column.of_ints
      (Array.init (length c) (fun i -> Value.year_of_days (Column.int_at c i)))

  let dt_month (c : Column.t) : Column.t =
    Column.of_ints
      (Array.init (length c) (fun i -> Value.month_of_days (Column.int_at c i)))

  let apply (f : Value.t -> Value.t) ty (c : Column.t) : Column.t =
    Column.of_values ty (Array.init (length c) (fun i -> f (Column.get c i)))

  let where (mask : bool array) (a : Column.t) (b : Column.t) : Column.t =
    let n = Array.length mask in
    Column.of_values
      (if a.Column.ty = b.Column.ty then a.Column.ty else TFloat)
      (Array.init n (fun i ->
           if mask.(i) then Column.get a i else Column.get b i))
end

(* ------------------------------------------------------------------ *)
(* Merge (pandas semantics incl. implicit suffix renaming)            *)
(* ------------------------------------------------------------------ *)

type how = Inner | Left | Right | Outer | Cross

let merge ?(how = Inner) ~left_on ~right_on (l : t) (r : t) : t =
  let lkeys = List.map (fun k -> Relation.col_index l k |> Option.get) left_on in
  let rkeys = List.map (fun k -> Relation.col_index r k |> Option.get) right_on in
  let nl = n_rows l and nr = n_rows r in
  let li, ri =
    match how with
    | Cross ->
      let li = Array.make (nl * nr) 0 and ri = Array.make (nl * nr) 0 in
      let k = ref 0 in
      for i = 0 to nl - 1 do
        for j = 0 to nr - 1 do
          li.(!k) <- i;
          ri.(!k) <- j;
          incr k
        done
      done;
      (li, ri)
    | _ ->
      (* key -> build rows, descending; NULL keys never match *)
      let tbl = Hashtbl.create 64 in
      for j = 0 to nr - 1 do
        let k = row_key r.Relation.cols rkeys j in
        if not (List.mem Value.VNull k) then
          Hashtbl.replace tbl k
            (j :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
      done;
      let pf i =
        let k = row_key l.Relation.cols lkeys i in
        if List.mem Value.VNull k then []
        else Option.value ~default:[] (Hashtbl.find_opt tbl k)
      in
      let lbuf = ref [] and rbuf = ref [] and count = ref 0 in
      let rmatched = Array.make nr false in
      for i = nl - 1 downto 0 do
        let matches = pf i in
        match matches with
        | [] ->
          if how = Left || how = Outer then begin
            lbuf := i :: !lbuf;
            rbuf := -1 :: !rbuf;
            incr count
          end
        | rows ->
          List.iter
            (fun j ->
              rmatched.(j) <- true;
              lbuf := i :: !lbuf;
              rbuf := j :: !rbuf;
              incr count)
            rows
      done;
      if how = Right || how = Outer then
        for j = nr - 1 downto 0 do
          if not rmatched.(j) then begin
            lbuf := -1 :: !lbuf;
            rbuf := j :: !rbuf;
            incr count
          end
        done;
      (Array.of_list !lbuf, Array.of_list !rbuf)
  in
  (* column naming: join keys with equal names appear once; other shared
     names get _x / _y suffixes (paper §III-C, implicit renaming) *)
  let shared_key_names =
    List.filter_map
      (fun (ln, rn) -> if String.equal ln rn then Some ln else None)
      (if how = Cross then [] else List.combine left_on right_on)
  in
  let lnames = columns l and rnames = columns r in
  let out = ref [] in
  List.iter
    (fun n ->
      let c = Column.take (column l n) li in
      let name =
        if List.mem n shared_key_names then n
        else if List.mem n rnames then n ^ "_x"
        else n
      in
      out := (name, c) :: !out)
    lnames;
  List.iter
    (fun n ->
      if List.mem n shared_key_names then ()
      else begin
        let c = Column.take (column r n) ri in
        let name = if List.mem n lnames then n ^ "_y" else n in
        out := (name, c) :: !out
      end)
    rnames;
  create (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Group-by / aggregation                                             *)
(* ------------------------------------------------------------------ *)

type agg_fn = ASum | AMin | AMax | AMean | ACount | ACountDistinct | ASize

let agg_fn_of_string = function
  | "sum" -> ASum
  | "min" -> AMin
  | "max" -> AMax
  | "mean" | "avg" -> AMean
  | "count" -> ACount
  | "nunique" -> ACountDistinct
  | "size" -> ASize
  | other -> err "unknown aggregation %s" other

(* groupby(by).agg(out_name=(src_col, fn), ...) — the named-agg form. *)
let groupby_agg (t : t) ~(by : string list)
    ~(aggs : (string * string * agg_fn) list) : t =
  let key_idx = List.map (fun k -> Relation.col_index t k |> Option.get) by in
  let n = n_rows t in
  let n_out, ids = group_ids t.Relation.cols key_idx ~n in
  (* per group: first row and member rows, ascending *)
  let reps = Array.make n_out 0 and members = Array.make n_out [] in
  for i = n - 1 downto 0 do
    let g = ids.(i) in
    reps.(g) <- i;
    members.(g) <- i :: members.(g)
  done;
  let key_cols =
    List.map2
      (fun name idx ->
        let src = t.Relation.cols.(idx) in
        (name, Column.of_values src.Column.ty (Array.map (Column.get src) reps)))
      by key_idx
  in
  let agg_cols =
    List.map
      (fun (out_name, src_name, fn) ->
        let src =
          match fn with
          | ASize -> t.Relation.cols.(0)
          | _ -> column t src_name
        in
        let vals =
          Array.make n_out Value.VNull
        in
        Array.iteri
          (fun gi rows ->
            let v =
              match fn with
              | ASize -> Value.VInt (List.length rows)
              | ACount ->
                Value.VInt
                  (List.length
                     (List.filter (fun i -> not (Column.is_null src i)) rows))
              | ACountDistinct ->
                let seen = Hashtbl.create 16 in
                List.iter
                  (fun i ->
                    if not (Column.is_null src i) then
                      Hashtbl.replace seen (value_key (Column.get src i)) ())
                  rows;
                Value.VInt (Hashtbl.length seen)
              | ASum | AMean -> (
                let acc = Agg_util.ksum () and cnt = ref 0 in
                List.iter
                  (fun i ->
                    if not (Column.is_null src i) then begin
                      Agg_util.kadd acc (Column.float_at src i);
                      incr cnt
                    end)
                  rows;
                let total = Agg_util.kfinish acc in
                match fn with
                | AMean ->
                  if !cnt = 0 then Value.VNull
                  else Value.VFloat (total /. float_of_int !cnt)
                | _ ->
                  if src.Column.ty = Value.TInt then
                    Value.VInt (int_of_float total)
                  else Value.VFloat total)
              | AMin | AMax ->
                let best = ref Value.VNull in
                List.iter
                  (fun i ->
                    if not (Column.is_null src i) then begin
                      let v = Column.get src i in
                      match !best with
                      | Value.VNull -> best := v
                      | b ->
                        let c = Value.compare_values v b in
                        if (fn = AMin && c < 0) || (fn = AMax && c > 0) then
                          best := v
                    end)
                  rows;
                !best
            in
            vals.(gi) <- v)
          members;
        let ty =
          match fn with
          | ACount | ACountDistinct | ASize -> Value.TInt
          | AMean -> Value.TFloat
          | ASum -> (
            match src.Column.ty with Value.TInt -> Value.TInt | _ -> Value.TFloat)
          | AMin | AMax -> src.Column.ty
        in
        (out_name, Column.of_values ty vals))
      aggs
  in
  create (key_cols @ agg_cols)

(* ------------------------------------------------------------------ *)
(* Sorting / distinct / pivot                                         *)
(* ------------------------------------------------------------------ *)

let sort_values (t : t) ~(by : (string * bool) list) : t =
  let keys =
    List.map (fun (k, asc) -> (Relation.col_index t k |> Option.get, asc)) by
  in
  let n = n_rows t in
  let idx = Array.init n Fun.id in
  let cmps =
    List.map
      (fun (i, asc) ->
        let c = t.Relation.cols.(i) in
        let cmp x y = Value.compare_values (Column.get c x) (Column.get c y) in
        if asc then cmp else fun x y -> cmp y x)
      keys
  in
  let compare_rows x y =
    let rec go = function
      | [] -> compare x y
      | cmp :: rest ->
        let c = cmp x y in
        if c <> 0 then c else go rest
    in
    go cmps
  in
  Array.sort compare_rows idx;
  Relation.take t idx

let drop_duplicates (t : t) : t =
  let n = n_rows t in
  let all = List.init (Array.length t.Relation.cols) Fun.id in
  Relation.take t (first_rows t.Relation.cols all ~n)

(* pivot_table(index, columns, values, aggfunc='sum'): one output column per
   distinct value of [columns] (paper §II-A). *)
let pivot_table (t : t) ~index ~columns:col_field ~values ~(aggfunc : agg_fn) :
    t =
  let cvals =
    let u = Series.unique (column t col_field) in
    List.init (Column.length u) (fun i -> Column.get u i)
  in
  let cvals =
    List.sort Value.compare_values cvals
  in
  let n = n_rows t in
  let key_idx = [ Relation.col_index t index |> Option.get ] in
  let _, ids = group_ids t.Relation.cols key_idx ~n in
  let col_src = column t col_field and val_src = column t values in
  let groups : (int, int * Agg_util.ksum array * int array) Hashtbl.t =
    Hashtbl.create 256
  in
  let order = ref [] in
  let ncols = List.length cvals in
  let col_pos =
    let tbl = Hashtbl.create 16 in
    List.iteri
      (fun i v -> Hashtbl.replace tbl (value_key v) i)
      cvals;
    tbl
  in
  for i = 0 to n - 1 do
    let k = ids.(i) in
    let rep, sums, counts =
      match Hashtbl.find_opt groups k with
      | Some cell -> cell
      | None ->
        let cell =
          (i, Array.init ncols (fun _ -> Agg_util.ksum ()),
           Array.make ncols 0)
        in
        Hashtbl.add groups k cell;
        order := k :: !order;
        cell
    in
    ignore rep;
    let j =
      Hashtbl.find col_pos (value_key (Column.get col_src i))
    in
    Agg_util.kadd sums.(j) (Column.float_at val_src i);
    counts.(j) <- counts.(j) + 1
  done;
  let order = List.rev !order in
  let idx_src = t.Relation.cols.(List.hd key_idx) in
  let key_col =
    Column.of_values idx_src.Column.ty
      (Array.of_list
         (List.map
            (fun k ->
              let rep, _, _ = Hashtbl.find groups k in
              Column.get idx_src rep)
            order))
  in
  let out_cols =
    List.mapi
      (fun j v ->
        let vals =
          Array.of_list
            (List.map
               (fun k ->
                 let _, sums, counts = Hashtbl.find groups k in
                 match aggfunc with
                 | ASum -> Value.VFloat (Agg_util.kfinish sums.(j))
                 | ACount | ASize -> Value.VInt counts.(j)
                 | AMean ->
                   if counts.(j) = 0 then Value.VFloat 0.
                   else
                     Value.VFloat
                       (Agg_util.kfinish sums.(j) /. float_of_int counts.(j))
                 | _ -> err "pivot_table: unsupported aggfunc")
               order)
        in
        let ty =
          match aggfunc with
          | ACount | ASize -> Value.TInt
          | _ -> Value.TFloat
        in
        (Value.to_string v, Column.of_values ty vals))
      cvals
  in
  create ((index, key_col) :: out_cols)

(* ------------------------------------------------------------------ *)
(* NumPy bridge                                                       *)
(* ------------------------------------------------------------------ *)

let to_matrix (t : t) : Tensor.Dense.t =
  let n = n_rows t in
  let cols = Array.to_list t.Relation.cols in
  let c = List.length cols in
  let data = Array.make (n * c) 0. in
  List.iteri
    (fun j col ->
      for i = 0 to n - 1 do
        data.((i * c) + j) <- Column.float_at col i
      done)
    cols;
  Tensor.Dense.Matrix { rows = n; cols = c; data }

let of_matrix ?(prefix = "c") (m : Tensor.Dense.t) : t =
  match m with
  | Tensor.Dense.Matrix { rows; cols; data } ->
    create
      (List.init cols (fun j ->
           ( Printf.sprintf "%s%d" prefix j,
             Column.of_floats (Array.init rows (fun i -> data.((i * cols) + j)))
           )))
  | Tensor.Dense.Vector v -> create [ (prefix ^ "0", Column.of_floats v) ]
  | Tensor.Dense.Scalar x ->
    create [ (prefix ^ "0", Column.of_floats [| x |]) ]
