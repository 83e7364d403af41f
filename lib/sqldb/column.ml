(** Typed columnar vectors with optional null bitmap.

    String columns come in two physical layouts: raw ([S]) and
    dictionary-encoded ([D], DuckDB-style). A dictionary column stores one
    small [dict] of distinct values plus a vector of codes; gathers copy
    only codes, predicates can be evaluated once per distinct value, and
    sorting compares precomputed lexicographic ranks instead of strings.
    Both layouts carry [ty = TString], so the logical schema is unaffected
    by the encoding choice.

    Every int, date and float payload, and every code vector, is one
    [Bigarray.Array1] ({!ivec}, {!fvec}): contiguous, unboxed C-layout
    memory outside the OCaml heap, the same in base tables and in every
    intermediate, so each operator and the fused kernels ({!Kernel}) run
    one loop shape over one format. Ints use the [Bigarray.int] kind rather
    than [int64_elt]: the cells are the same 8-byte words, but reads yield
    immediate OCaml ints whereas [int64_elt] would box every element. The
    public constructors ({!of_ints}, {!of_dates}, {!of_floats},
    {!of_coded}) take heap arrays and copy them once.

    Invariant: the payload of a null row is a finite zero ([0], [0.], code
    [0]). [Bigarray.Array1.create] leaves its memory unwritten, so every
    producer writes each slot, null or not; the fused kernels' comparison
    masks rely on it (see {!Kernel}). *)

open Value

type ivec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type fvec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A per-column string dictionary, shared by reference across gathers. *)
type dict = {
  values : string array; (* code -> value; entries are unique *)
  rank : int array; (* code -> lexicographic rank among [values] *)
  index : (string, int) Hashtbl.t; (* value -> code *)
  hashes : int array; (* code -> [Value.hash_string] of its value *)
}

type data =
  | I of ivec (* TInt and TDate *)
  | F of fvec
  | S of string array
  | B of bool array
  | D of ivec * dict (* dictionary-encoded TString: one code per row *)

type t = { ty : ty; data : data; nulls : Bitset.t option }

(* ------------------------------------------------------------------ *)
(* Vectors                                                            *)
(* ------------------------------------------------------------------ *)

(* Unwritten: the caller writes every slot. *)
let ivec_create n : ivec = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let fvec_create n : fvec = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let ivec_make n x : ivec =
  let v = ivec_create n in
  Bigarray.Array1.fill v x;
  v

let fvec_make n x : fvec =
  let v = fvec_create n in
  Bigarray.Array1.fill v x;
  v

(* A copy of the first [len] (default: all) cells of [a]. *)
let ivec_of_array ?len (a : int array) : ivec =
  let n = Option.value len ~default:(Array.length a) in
  let v = ivec_create n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i a.(i)
  done;
  v

let fvec_of_array ?len (a : float array) : fvec =
  let n = Option.value len ~default:(Array.length a) in
  let v = fvec_create n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i a.(i)
  done;
  v

(* [v] written at [out.{at} ..]; [Bigarray.Array1.sub] aliases [out]. *)
let blit_at v out at =
  let n = Bigarray.Array1.dim v in
  if n > 0 then Bigarray.Array1.blit v (Bigarray.Array1.sub out at n)

(* One fresh vector holding [vs] end to end. *)
let vec_concat create vs =
  let out = create (List.fold_left (fun n v -> n + Bigarray.Array1.dim v) 0 vs) in
  ignore
    (List.fold_left
       (fun at v ->
         blit_at v out at;
         at + Bigarray.Array1.dim v)
       0 vs);
  out

let make_dict (values : string array) : dict =
  let n = Array.length values in
  let index = Hashtbl.create (2 * max 1 n) in
  Array.iteri (fun i v -> if not (Hashtbl.mem index v) then Hashtbl.add index v i) values;
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> String.compare values.(a) values.(b)) order;
  let rank = Array.make n 0 in
  Array.iteri (fun pos code -> rank.(code) <- pos) order;
  { values; rank; index; hashes = Array.map Value.hash_string values }

let dict_find (d : dict) (s : string) : int option = Hashtbl.find_opt d.index s
let dict_size (d : dict) = Array.length d.values

(* Rank two dictionaries against a merged ordering, so cross-dictionary
   comparisons (e.g. l_commitdate < l_receiptdate) run on ints instead of
   per-row string compares. Equal strings get equal merged ranks. Cost is
   one sort of |dx| + |dy| entries, amortized over every row. *)
let cross_ranks (dx : dict) (dy : dict) : int array * int array =
  let nx = Array.length dx.values and ny = Array.length dy.values in
  let tagged =
    Array.init (nx + ny) (fun k ->
        if k < nx then (dx.values.(k), true, k)
        else (dy.values.(k - nx), false, k - nx))
  in
  Array.sort (fun (a, _, _) (b, _, _) -> String.compare a b) tagged;
  let rx = Array.make nx 0 and ry = Array.make ny 0 in
  let rank = ref 0 in
  Array.iteri
    (fun k (v, from_x, code) ->
      if k > 0 then begin
        let pv, _, _ = tagged.(k - 1) in
        if pv <> v then incr rank
      end;
      if from_x then rx.(code) <- !rank else ry.(code) <- !rank)
    tagged;
  (rx, ry)

let length c =
  match c.data with
  | I v -> Bigarray.Array1.dim v
  | F v -> Bigarray.Array1.dim v
  | S a -> Array.length a
  | B a -> Array.length a
  | D (v, _) -> Bigarray.Array1.dim v

let is_null c i =
  match c.nulls with None -> false | Some m -> Bitset.get m i

let has_nulls c =
  match c.nulls with None -> false | Some m -> not (Bitset.is_empty m)

let of_ints a = { ty = TInt; data = I (ivec_of_array a); nulls = None }
let of_dates a = { ty = TDate; data = I (ivec_of_array a); nulls = None }
let of_floats a = { ty = TFloat; data = F (fvec_of_array a); nulls = None }
let of_strings a = { ty = TString; data = S a; nulls = None }
let of_bools a = { ty = TBool; data = B a; nulls = None }

(* Build a dictionary column directly from distinct values and codes
   (generators that already know the value domain skip per-row strings). *)
let of_coded (values : string array) (codes : int array) : t =
  if Array.length values = 0 then of_strings [||]
  else
    { ty = TString; data = D (ivec_of_array codes, make_dict values); nulls = None }

let is_dict c = match c.data with D _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Unboxed closure accessors                                          *)
(* ------------------------------------------------------------------ *)

(* Row readers that skip boxing. [None] means the column is not of that
   physical family; callers fall through to their generic path. These cost
   one indirect call per row — fine in mid-tier loops, while the hot loops
   ({!Eval.eval_col}, {!Kernel}) match the vectors directly. *)

let int_reader c : (int -> int) option =
  match c.data with
  | I v -> Some (fun i -> Bigarray.Array1.unsafe_get v i)
  | _ -> None

let float_reader c : (int -> float) option =
  match c.data with
  | F v -> Some (fun i -> Bigarray.Array1.unsafe_get v i)
  | _ -> None

(* Any numeric column viewed as floats. *)
let num_reader c : (int -> float) option =
  match c.data with
  | F v -> Some (fun i -> Bigarray.Array1.unsafe_get v i)
  | I v -> Some (fun i -> float_of_int (Bigarray.Array1.unsafe_get v i))
  | _ -> None

(* Dictionary-encode a raw string column when the number of distinct values
   is at most [max_distinct]; null rows get code 0 and keep their null bit.
   Returns the column unchanged for other layouts or high-cardinality data. *)
let encode ?(max_distinct = 1024) (c : t) : t =
  match c.data with
  | S a when Array.length a > 0 ->
    let n = Array.length a in
    let index = Hashtbl.create 64 in
    let values = ref [] and n_values = ref 0 in
    let codes = ivec_make n 0 in
    (try
       for i = 0 to n - 1 do
         if not (is_null c i) then begin
           let s = a.(i) in
           match Hashtbl.find_opt index s with
           | Some code -> Bigarray.Array1.unsafe_set codes i code
           | None ->
             if !n_values >= max_distinct then raise Exit;
             Hashtbl.add index s !n_values;
             Bigarray.Array1.unsafe_set codes i !n_values;
             values := s :: !values;
             incr n_values
         end
       done;
       if !n_values = 0 then c (* all-null column: keep raw *)
       else
         let values = Array.of_list (List.rev !values) in
         { c with data = D (codes, make_dict values) }
     with Exit -> c)
  | _ -> c

(* Decode back to a raw string column (materialization / equivalence tests). *)
let decode (c : t) : t =
  match c.data with
  | D (codes, d) ->
    { c with
      data =
        S (Array.init (Bigarray.Array1.dim codes) (fun i ->
               d.values.(Bigarray.Array1.unsafe_get codes i))) }
  | _ -> c

let get c i =
  if is_null c i then VNull
  else
    match (c.ty, c.data) with
    | TDate, I v -> VDate (Bigarray.Array1.get v i)
    | _, I v -> VInt (Bigarray.Array1.get v i)
    | _, F v -> VFloat (Bigarray.Array1.get v i)
    | _, S a -> VString a.(i)
    | _, B a -> VBool a.(i)
    | _, D (v, d) -> VString d.values.(Bigarray.Array1.get v i)

(* Raw accessors ignoring nulls; used in tight loops after null checks. *)
let int_at c i =
  match c.data with
  | I v -> Bigarray.Array1.get v i
  | B a -> if a.(i) then 1 else 0
  | F v -> int_of_float (Bigarray.Array1.get v i)
  | S _ | D _ -> invalid_arg "Column.int_at: string column"

let float_at c i =
  match c.data with
  | F v -> Bigarray.Array1.get v i
  | I v -> float_of_int (Bigarray.Array1.get v i)
  | B a -> if a.(i) then 1. else 0.
  | S _ | D _ -> invalid_arg "Column.float_at: string column"

let string_at c i =
  match c.data with
  | S a -> a.(i)
  | D (v, d) -> d.values.(Bigarray.Array1.get v i)
  | _ -> Value.to_string (get c i)

let bool_at c i =
  match c.data with
  | B a -> a.(i)
  | I v -> Bigarray.Array1.get v i <> 0
  | F v -> Bigarray.Array1.get v i <> 0.
  | S _ | D _ -> invalid_arg "Column.bool_at: string column"

(* Build a column of type [ty] from boxed values (nulls allowed). *)
let of_values ty (vs : Value.t array) =
  let n = Array.length vs in
  let nulls = ref None in
  let mark_null i =
    let m =
      match !nulls with
      | Some m -> m
      | None ->
        let m = Bitset.create n in
        nulls := Some m;
        m
    in
    Bitset.set m i
  in
  let data =
    match ty with
    | TInt | TDate ->
      let v = ivec_create n in
      Array.iteri
        (fun i x ->
          Bigarray.Array1.unsafe_set v i
            (match x with
            | VNull ->
              mark_null i;
              0
            | x -> Value.as_int x))
        vs;
      I v
    | TFloat ->
      let v = fvec_create n in
      Array.iteri
        (fun i x ->
          match x with
          | VNull ->
            mark_null i;
            Bigarray.Array1.unsafe_set v i 0.
          | x -> Bigarray.Array1.unsafe_set v i (Value.as_float x))
        vs;
      F v
    | TString ->
      let a = Array.make n "" in
      Array.iteri
        (fun i v ->
          match v with
          | VNull -> mark_null i
          | VString s -> a.(i) <- s
          | v -> a.(i) <- Value.to_string v)
        vs;
      S a
    | TBool ->
      let a = Array.make n false in
      Array.iteri
        (fun i v ->
          match v with
          | VNull -> mark_null i
          | VBool b -> a.(i) <- b
          | v -> a.(i) <- Value.as_int v <> 0)
        vs;
      B a
  in
  { ty; data; nulls = !nulls }

(* Gather rows [idx] into a new column. [idx.(k) = -1] produces null, which
   outer joins use for unmatched rows. Dictionary columns gather only codes
   and share the dictionary with the source. *)
let take c idx =
  let n = Array.length idx in
  let any_missing = Array.exists (fun i -> i < 0) idx in
  let src_nulls = c.nulls in
  let nulls =
    if any_missing || src_nulls <> None then begin
      let m = Bitset.create n in
      Array.iteri
        (fun k i ->
          if i < 0 then Bitset.set m k
          else
            match src_nulls with
            | Some sm when Bitset.get sm i -> Bitset.set m k
            | _ -> ())
        idx;
      if Bitset.is_empty m then None else Some m
    end
    else None
  in
  let gather_ivec (v : ivec) =
    let out = ivec_create n in
    for k = 0 to n - 1 do
      let i = Array.unsafe_get idx k in
      Bigarray.Array1.unsafe_set out k
        (if i < 0 then 0 else Bigarray.Array1.get v i)
    done;
    out
  in
  let data =
    match c.data with
    | I v -> I (gather_ivec v)
    | F v ->
      let out = fvec_create n in
      for k = 0 to n - 1 do
        let i = Array.unsafe_get idx k in
        Bigarray.Array1.unsafe_set out k
          (if i < 0 then 0. else Bigarray.Array1.get v i)
      done;
      F out
    | S a -> S (Array.map (fun i -> if i < 0 then "" else a.(i)) idx)
    | B a -> B (Array.map (fun i -> if i < 0 then false else a.(i)) idx)
    | D (v, d) -> D (gather_ivec v, d)
  in
  { ty = c.ty; data; nulls }

(* The null bits of consecutive columns [cs], each shifted to where its
   rows land in their concatenation of [total] rows. *)
let concat_nulls total (cs : t list) : Bitset.t option =
  if List.for_all (fun c -> c.nulls = None) cs then None
  else begin
    let m = Bitset.create total and any = ref false in
    ignore
      (List.fold_left
         (fun at c ->
           (match c.nulls with
           | Some n when not (Bitset.is_empty n) ->
             any := true;
             Bitset.blit n m at
           | _ -> ());
           at + length c)
         0 cs);
    if !any then Some m else None
  end

(* Concatenate same-typed columns. Payloads are blitted and null bits
   shifted; dictionary chunks stay coded when they share one dictionary,
   and only chunks over different dictionaries (or raw strings mixed with
   codes) decode to raw strings. *)
let concat cs =
  match cs with
  | [] -> invalid_arg "Column.concat: empty"
  | [ c ] -> c
  | first :: _ ->
    let total = List.fold_left (fun acc c -> acc + length c) 0 cs in
    let payloads get =
      List.map
        (fun c ->
          match get c.data with
          | Some p -> p
          | None -> invalid_arg "Column.concat: chunks of different types")
        cs
    in
    let data =
      match first.data with
      | I _ -> I (vec_concat ivec_create (payloads (function I v -> Some v | _ -> None)))
      | F _ -> F (vec_concat fvec_create (payloads (function F v -> Some v | _ -> None)))
      | B _ -> B (Array.concat (payloads (function B a -> Some a | _ -> None)))
      | D (_, d)
        when List.for_all
               (fun c -> match c.data with D (_, d') -> d' == d | _ -> false)
               cs ->
        D
          ( vec_concat ivec_create
              (payloads (function D (v, _) -> Some v | _ -> None)),
            d )
      | S _ | D _ ->
        S
          (Array.concat
             (List.map
                (fun c ->
                  match c.data with
                  | S a -> a
                  | _ ->
                    Array.init (length c) (fun i ->
                        if is_null c i then "" else string_at c i))
                cs))
    in
    { ty = first.ty; data; nulls = concat_nulls total cs }

(* Spare capacity behind a base-table column. The column's payload vector
   ([I], [F], or [D]'s codes) is the prefix view [sub back 0 n] of [back]'s
   vector, and [owner] is the length of the newest version: only the
   version of that length may write past its own end. Versions of one
   table share the room by reference ({!Catalog}); a reader holds a view
   of its own length, so it never sees cells written after it. Raw strings
   and bools leave their room unused and copy. *)
type room = { back : data; owner : int Atomic.t }

(* Exact-size room: the first append grows it. *)
let room c = { back = c.data; owner = Atomic.make (length c) }

(* Observability: vector cells written by {!append_chunk} since the last
   reset (resident cells copied into grown room, plus batch cells), so a
   test can pin an append's copying to O(delta). *)
let copied : int Atomic.t = Atomic.make 0
let reset_cells_copied () = Atomic.set copied 0
let cells_copied () = Atomic.get copied

(* Append batch [b]'s rows after resident column [a], whose room is [r];
   returns the merged column and its room. The batch goes into [r]'s
   spare capacity when [a]'s version owns it ([owner] moves from |a| to
   |a|+|b|); otherwise (too little room, or a newer version took it) a
   fresh backing with half the rows again spare takes [a]'s cells once.
   The merged column keeps [a]'s physical family (raw/dict), and a
   dictionary grows code-stably — resident codes keep their meaning,
   unseen batch values get fresh codes at the end — so per-code state
   computed against the old dictionary (zone maps, cached ranks) stays
   valid for the resident prefix. *)
let append_chunk (r : room) (a : t) (b : t) : t * room =
  if a.ty <> b.ty then invalid_arg "Column.append_chunk: type mismatch";
  let na = length a and nb = length b in
  let n = na + nb in
  let nulls = concat_nulls n [ a; b ] in
  let claim create v back =
    ignore (Atomic.fetch_and_add copied nb);
    if n <= Bigarray.Array1.dim back && Atomic.compare_and_set r.owner na n
    then (back, r.owner)
    else begin
      let back = create (n + (n / 2)) in
      blit_at v back 0;
      ignore (Atomic.fetch_and_add copied na);
      (back, Atomic.make n)
    end
  in
  (* Extend [d] with the batch's unseen values, writing the batch's codes
     against the (possibly grown) dictionary at [out.{na} ..]. Null rows
     get code 0 and keep their null bit. The dictionary can grow past the
     ingest encoding cap: appends are incremental by design, and falling
     back to raw here would force an O(table) decode of the resident
     rows. *)
  let extend_dict (d : dict) (out : ivec) : dict =
    let fresh = Hashtbl.create 8 and values = ref [] in
    let base = dict_size d in
    for i = 0 to nb - 1 do
      let code =
        if is_null b i then 0
        else
          let s = string_at b i in
          match Hashtbl.find_opt d.index s with
          | Some c -> c
          | None -> (
            match Hashtbl.find_opt fresh s with
            | Some c -> c
            | None ->
              let c = base + Hashtbl.length fresh in
              Hashtbl.add fresh s c;
              values := s :: !values;
              c)
      in
      Bigarray.Array1.unsafe_set out (na + i) code
    done;
    if !values = [] then d
    else make_dict (Array.append d.values (Array.of_list (List.rev !values)))
  in
  let sub v = Bigarray.Array1.sub v 0 n in
  let data, room' =
    match (a.data, b.data, r.back) with
    | I v, I w, I back ->
      let back, owner = claim ivec_create v back in
      blit_at w back na;
      (I (sub back), { back = I back; owner })
    | F v, F w, F back ->
      let back, owner = claim fvec_create v back in
      blit_at w back na;
      (F (sub back), { back = F back; owner })
    | D (v, d), _, D (back, _) ->
      let back, owner = claim ivec_create v back in
      let d = extend_dict d back in
      (D (sub back, d), { back = D (back, d); owner })
    | B x, B y, _ -> (B (Array.append x y), r)
    | S x, _, _ ->
      ( S (Array.append x
             (Array.init nb (fun i -> if is_null b i then "" else string_at b i))),
        r )
    | (I _ | F _ | B _ | D _), _, _ ->
      invalid_arg "Column.append_chunk: type mismatch"
  in
  ({ ty = a.ty; data; nulls }, room')

(* [n] copies of [v] in [ty]'s typed payload, converted as {!of_values}
   would; a NULL [v] gives zero payloads under a full null bitmap. *)
let const ty (v : Value.t) n =
  match (v, ty) with
  | VNull, _ ->
    let m = Bitset.create n in
    for i = 0 to n - 1 do
      Bitset.set m i
    done;
    let data =
      match ty with
      | TInt | TDate -> I (ivec_make n 0)
      | TFloat -> F (fvec_make n 0.)
      | TString -> S (Array.make n "")
      | TBool -> B (Array.make n false)
    in
    { ty; data; nulls = (if n = 0 then None else Some m) }
  | _, (TInt | TDate) -> { ty; data = I (ivec_make n (Value.as_int v)); nulls = None }
  | _, TFloat -> { ty; data = F (fvec_make n (Value.as_float v)); nulls = None }
  | VString s, TString -> { ty; data = S (Array.make n s); nulls = None }
  | _, TString ->
    { ty; data = S (Array.make n (Value.to_string v)); nulls = None }
  | VBool b, TBool -> { ty; data = B (Array.make n b); nulls = None }
  | _, TBool ->
    { ty; data = B (Array.make n (Value.as_int v <> 0)); nulls = None }
