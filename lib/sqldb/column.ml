(** Typed columnar vectors with optional null bitmap.

    String columns come in two physical layouts: raw ([S]) and
    dictionary-encoded ([D], DuckDB-style). A dictionary column stores one
    small [dict] of distinct values plus an [int array] of codes; gathers
    copy only codes, predicates can be evaluated once per distinct value,
    and sorting compares precomputed lexicographic ranks instead of
    strings. Both layouts carry [ty = TString], so the logical schema is
    unaffected by the encoding choice.

    Numeric payloads additionally come in two physical backings: plain
    OCaml arrays ([I]/[F], and [D] codes) and [Bigarray.Array1] vectors
    ([BI]/[BF]/[BD]) — contiguous, unboxed, off-heap C-layout memory that
    the fused kernels ({!Kernel}) stream over without GC-visited headers
    between elements. Ints use the [Bigarray.int] kind rather than
    [int64_elt]: the cells are the same 8-byte words, but reads yield
    immediate OCaml ints whereas [int64_elt] would box every element and
    lose the point of the exercise. Base tables are converted to the
    bigarray backing at catalog ingest ({!Catalog.add}); small
    intermediates stay on the GC heap where allocation is cheaper.
    [set_bigarray false] disables the conversion and keeps heap arrays
    everywhere. *)

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
  | I of int array (* TInt and TDate *)
  | F of float array
  | S of string array
  | B of bool array
  | D of int array * dict (* dictionary-encoded TString *)
  | BI of ivec (* bigarray TInt / TDate *)
  | BF of fvec (* bigarray TFloat *)
  | BD of ivec * dict (* bigarray dictionary codes *)

type t = { ty : ty; data : data; nulls : Bitset.t option }

(* ------------------------------------------------------------------ *)
(* Bigarray backing                                                   *)
(* ------------------------------------------------------------------ *)

let use_bigarray = ref true
let set_bigarray b = use_bigarray := b
let bigarray_enabled () = !use_bigarray

let ivec_create n : ivec = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let fvec_create n : fvec = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let ivec_of_array (a : int array) : ivec =
  let v = ivec_create (Array.length a) in
  Array.iteri (fun i x -> Bigarray.Array1.unsafe_set v i x) a;
  v

let fvec_of_array (a : float array) : fvec =
  let v = fvec_create (Array.length a) in
  Array.iteri (fun i x -> Bigarray.Array1.unsafe_set v i x) a;
  v

let ivec_to_array (v : ivec) : int array =
  Array.init (Bigarray.Array1.dim v) (Bigarray.Array1.unsafe_get v)

let fvec_to_array (v : fvec) : float array =
  Array.init (Bigarray.Array1.dim v) (Bigarray.Array1.unsafe_get v)

(* Convert one column to / from the bigarray backing. Payload bits are
   identical either way, so stats, hashes and query results cannot depend
   on which backing a column uses. *)
let to_bigarray (c : t) : t =
  match c.data with
  | I a -> { c with data = BI (ivec_of_array a) }
  | F a -> { c with data = BF (fvec_of_array a) }
  | D (a, d) -> { c with data = BD (ivec_of_array a, d) }
  | S _ | B _ | BI _ | BF _ | BD _ -> c

let to_legacy (c : t) : t =
  match c.data with
  | BI v -> { c with data = I (ivec_to_array v) }
  | BF v -> { c with data = F (fvec_to_array v) }
  | BD (v, d) -> { c with data = D (ivec_to_array v, d) }
  | I _ | F _ | S _ | B _ | D _ -> c

let is_bigarray c = match c.data with BI _ | BF _ | BD _ -> true | _ -> false

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
  | I a -> Array.length a
  | F a -> Array.length a
  | S a -> Array.length a
  | B a -> Array.length a
  | D (a, _) -> Array.length a
  | BI v -> Bigarray.Array1.dim v
  | BF v -> Bigarray.Array1.dim v
  | BD (v, _) -> Bigarray.Array1.dim v

let is_null c i =
  match c.nulls with None -> false | Some m -> Bitset.get m i

let has_nulls c =
  match c.nulls with None -> false | Some m -> not (Bitset.is_empty m)

let of_ints a = { ty = TInt; data = I a; nulls = None }
let of_dates a = { ty = TDate; data = I a; nulls = None }
let of_floats a = { ty = TFloat; data = F a; nulls = None }
let of_strings a = { ty = TString; data = S a; nulls = None }
let of_bools a = { ty = TBool; data = B a; nulls = None }

(* Build a dictionary column directly from distinct values and codes
   (generators that already know the value domain skip per-row strings). *)
let of_coded (values : string array) (codes : int array) : t =
  if Array.length values = 0 then of_strings [||]
  else { ty = TString; data = D (codes, make_dict values); nulls = None }

let is_dict c = match c.data with D _ | BD _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Unboxed closure accessors over both physical backings              *)
(* ------------------------------------------------------------------ *)

(* Row readers that skip boxing. [None] means the column is not of that
   physical family; callers fall through to their generic path. These cost
   one indirect call per row — fine in mid-tier loops, while the fused
   kernels ({!Kernel}) match the backing directly for call-free loops. *)

let int_reader c : (int -> int) option =
  match c.data with
  | I a -> Some (fun i -> Array.unsafe_get a i)
  | BI v -> Some (fun i -> Bigarray.Array1.unsafe_get v i)
  | _ -> None

let float_reader c : (int -> float) option =
  match c.data with
  | F a -> Some (fun i -> Array.unsafe_get a i)
  | BF v -> Some (fun i -> Bigarray.Array1.unsafe_get v i)
  | _ -> None

(* Any numeric column viewed as floats. *)
let num_reader c : (int -> float) option =
  match c.data with
  | F a -> Some (fun i -> Array.unsafe_get a i)
  | BF v -> Some (fun i -> Bigarray.Array1.unsafe_get v i)
  | I a -> Some (fun i -> float_of_int (Array.unsafe_get a i))
  | BI v -> Some (fun i -> float_of_int (Bigarray.Array1.unsafe_get v i))
  | _ -> None

(* Dictionary code reader plus the dictionary, for either backing. *)
let codes_reader c : ((int -> int) * dict) option =
  match c.data with
  | D (a, d) -> Some ((fun i -> Array.unsafe_get a i), d)
  | BD (v, d) -> Some ((fun i -> Bigarray.Array1.unsafe_get v i), d)
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
    let codes = Array.make n 0 in
    (try
       for i = 0 to n - 1 do
         if not (is_null c i) then begin
           let s = a.(i) in
           match Hashtbl.find_opt index s with
           | Some code -> codes.(i) <- code
           | None ->
             if !n_values >= max_distinct then raise Exit;
             Hashtbl.add index s !n_values;
             codes.(i) <- !n_values;
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
    { c with data = S (Array.map (fun code -> d.values.(code)) codes) }
  | BD (codes, d) ->
    { c with
      data =
        S (Array.init (Bigarray.Array1.dim codes) (fun i ->
               d.values.(Bigarray.Array1.unsafe_get codes i))) }
  | _ -> c

let get c i =
  if is_null c i then VNull
  else
    match (c.ty, c.data) with
    | TDate, I a -> VDate a.(i)
    | _, I a -> VInt a.(i)
    | _, F a -> VFloat a.(i)
    | _, S a -> VString a.(i)
    | _, B a -> VBool a.(i)
    | _, D (a, d) -> VString d.values.(a.(i))
    | TDate, BI v -> VDate (Bigarray.Array1.get v i)
    | _, BI v -> VInt (Bigarray.Array1.get v i)
    | _, BF v -> VFloat (Bigarray.Array1.get v i)
    | _, BD (v, d) -> VString d.values.(Bigarray.Array1.get v i)

(* Raw accessors ignoring nulls; used in tight loops after null checks. *)
let int_at c i =
  match c.data with
  | I a -> a.(i)
  | BI v -> Bigarray.Array1.get v i
  | B a -> if a.(i) then 1 else 0
  | F a -> int_of_float a.(i)
  | BF v -> int_of_float (Bigarray.Array1.get v i)
  | S _ | D _ | BD _ -> invalid_arg "Column.int_at: string column"

let float_at c i =
  match c.data with
  | F a -> a.(i)
  | BF v -> Bigarray.Array1.get v i
  | I a -> float_of_int a.(i)
  | BI v -> float_of_int (Bigarray.Array1.get v i)
  | B a -> if a.(i) then 1. else 0.
  | S _ | D _ | BD _ -> invalid_arg "Column.float_at: string column"

let string_at c i =
  match c.data with
  | S a -> a.(i)
  | D (a, d) -> d.values.(a.(i))
  | BD (v, d) -> d.values.(Bigarray.Array1.get v i)
  | _ -> Value.to_string (get c i)

let bool_at c i =
  match c.data with
  | B a -> a.(i)
  | I a -> a.(i) <> 0
  | BI v -> Bigarray.Array1.get v i <> 0
  | F a -> a.(i) <> 0.
  | BF v -> Bigarray.Array1.get v i <> 0.
  | S _ | D _ | BD _ -> invalid_arg "Column.bool_at: string column"

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
      let a = Array.make n 0 in
      Array.iteri
        (fun i v ->
          match v with VNull -> mark_null i | v -> a.(i) <- Value.as_int v)
        vs;
      I a
    | TFloat ->
      let a = Array.make n 0. in
      Array.iteri
        (fun i v ->
          match v with VNull -> mark_null i | v -> a.(i) <- Value.as_float v)
        vs;
      F a
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
   and share the dictionary with the source. Bigarray sources scatter into
   fresh bigarray outputs, so radix partitions of base tables keep the
   unboxed backing for the join and group loops that re-scan them. *)
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
  let gather_ivec (get : int -> int) =
    let out = ivec_create n in
    for k = 0 to n - 1 do
      let i = Array.unsafe_get idx k in
      Bigarray.Array1.unsafe_set out k (if i < 0 then 0 else get i)
    done;
    out
  in
  let data =
    match c.data with
    | I a -> I (Array.map (fun i -> if i < 0 then 0 else a.(i)) idx)
    | F a -> F (Array.map (fun i -> if i < 0 then 0. else a.(i)) idx)
    | S a -> S (Array.map (fun i -> if i < 0 then "" else a.(i)) idx)
    | B a -> B (Array.map (fun i -> if i < 0 then false else a.(i)) idx)
    | D (a, d) -> D (Array.map (fun i -> if i < 0 then 0 else a.(i)) idx, d)
    | BI v -> BI (gather_ivec (Bigarray.Array1.unsafe_get v))
    | BF v ->
      let out = fvec_create n in
      for k = 0 to n - 1 do
        let i = Array.unsafe_get idx k in
        Bigarray.Array1.unsafe_set out k
          (if i < 0 then 0. else Bigarray.Array1.unsafe_get v i)
      done;
      BF out
    | BD (v, d) -> BD (gather_ivec (Bigarray.Array1.unsafe_get v), d)
  in
  { ty = c.ty; data; nulls }

let concat cs =
  match cs with
  | [] -> invalid_arg "Column.concat: empty"
  | [ c ] -> c
  | first :: _ ->
    let no_nulls = List.for_all (fun c -> c.nulls = None) cs in
    let same_shape =
      List.for_all
        (fun c ->
          match (first.data, c.data) with
          | I _, I _ | F _, F _ | S _, S _ | B _, B _ -> true
          | BI _, BI _ | BF _, BF _ -> true
          | D (_, d1), D (_, d2) -> d1 == d2 (* shared dictionary only *)
          | BD (_, d1), BD (_, d2) -> d1 == d2
          | (I _ | F _ | S _ | B _ | D _ | BI _ | BF _ | BD _), _ -> false)
        cs
    in
    if no_nulls && same_shape then
      let ivecs sel =
        let total = List.fold_left (fun acc c -> acc + length c) 0 cs in
        let out = ivec_create total in
        let k = ref 0 in
        List.iter
          (fun c ->
            let v = sel c in
            let n = Bigarray.Array1.dim v in
            Bigarray.Array1.blit v (Bigarray.Array1.sub out !k n);
            k := !k + n)
          cs;
        out
      in
      let data =
        match first.data with
        | I _ ->
          I (Array.concat
               (List.map
                  (fun c ->
                    match c.data with I a -> a | _ -> assert false)
                  cs))
        | F _ ->
          F (Array.concat
               (List.map
                  (fun c ->
                    match c.data with F a -> a | _ -> assert false)
                  cs))
        | S _ ->
          S (Array.concat
               (List.map
                  (fun c ->
                    match c.data with S a -> a | _ -> assert false)
                  cs))
        | B _ ->
          B (Array.concat
               (List.map
                  (fun c ->
                    match c.data with B a -> a | _ -> assert false)
                  cs))
        | D (_, d) ->
          D (Array.concat
               (List.map
                  (fun c ->
                    match c.data with D (a, _) -> a | _ -> assert false)
                  cs),
             d)
        | BI _ ->
          BI (ivecs (fun c ->
                  match c.data with BI v -> v | _ -> assert false))
        | BD (_, d) ->
          BD (ivecs (fun c ->
                  match c.data with BD (v, _) -> v | _ -> assert false),
              d)
        | BF _ ->
          let total = List.fold_left (fun acc c -> acc + length c) 0 cs in
          let out = fvec_create total in
          let k = ref 0 in
          List.iter
            (fun c ->
              match c.data with
              | BF v ->
                let n = Bigarray.Array1.dim v in
                Bigarray.Array1.blit v (Bigarray.Array1.sub out !k n);
                k := !k + n
              | _ -> assert false)
            cs;
          BF out
      in
      { ty = first.ty; data; nulls = None }
    else begin
      let total = List.fold_left (fun acc c -> acc + length c) 0 cs in
      let vs = Array.make total VNull in
      let k = ref 0 in
      List.iter
        (fun c ->
          for i = 0 to length c - 1 do
            vs.(!k) <- get c i;
            incr k
          done)
        cs;
      of_values first.ty vs
    end

(* Append batch [b]'s rows after resident column [a] without decoding or
   rebuilding [a]'s payload: one blit of [a]'s cells into the merged backing
   plus an O(|b|) pass over the batch. The merged column keeps [a]'s
   physical family (raw/dict, array/bigarray), and a dictionary grows
   code-stably — resident codes keep their meaning, unseen batch values get
   fresh codes at the end — so per-code state computed against the old
   dictionary (zone maps, cached ranks) stays valid for the resident prefix.
   This is what keeps {!Catalog.append} at O(delta) instead of O(table). *)
let append_chunk (a : t) (b : t) : t =
  if a.ty <> b.ty then invalid_arg "Column.append_chunk: type mismatch";
  let na = length a and nb = length b in
  let nulls =
    if a.nulls = None && b.nulls = None then None
    else begin
      let m = Bitset.create (na + nb) in
      (match a.nulls with
      | Some ma -> Bitset.iter_set (fun i -> Bitset.set m i) ma
      | None -> ());
      (match b.nulls with
      | Some mb -> Bitset.iter_set (fun i -> Bitset.set m (na + i)) mb
      | None -> ());
      if Bitset.is_empty m then None else Some m
    end
  in
  (* Extend [d] with the batch's unseen values; returns the batch's codes
     against the (possibly grown) dictionary. Null rows keep code 0 and
     their null bit. The dictionary can grow past the ingest encoding cap:
     appends are incremental by design, and falling back to raw here would
     force an O(table) decode of the resident rows. *)
  let extend_dict (d : dict) : int array * dict =
    let index = Hashtbl.copy d.index in
    let fresh = ref [] and n_fresh = ref 0 in
    let base = dict_size d in
    let codes_b = Array.make nb 0 in
    for i = 0 to nb - 1 do
      if not (is_null b i) then begin
        let s = string_at b i in
        match Hashtbl.find_opt index s with
        | Some c -> codes_b.(i) <- c
        | None ->
          let c = base + !n_fresh in
          Hashtbl.add index s c;
          fresh := s :: !fresh;
          incr n_fresh;
          codes_b.(i) <- c
      end
    done;
    let d' =
      if !n_fresh = 0 then d
      else make_dict (Array.append d.values (Array.of_list (List.rev !fresh)))
    in
    (codes_b, d')
  in
  let int_src =
    match b.data with
    | I xs -> fun i -> Array.unsafe_get xs i
    | BI v -> fun i -> Bigarray.Array1.unsafe_get v i
    | _ -> fun i -> int_at b i
  in
  let float_src =
    match b.data with
    | F xs -> fun i -> Array.unsafe_get xs i
    | BF v -> fun i -> Bigarray.Array1.unsafe_get v i
    | _ -> fun i -> float_at b i
  in
  let data =
    match a.data with
    | I xs ->
      let out = Array.make (na + nb) 0 in
      Array.blit xs 0 out 0 na;
      for i = 0 to nb - 1 do
        out.(na + i) <- (if is_null b i then 0 else int_src i)
      done;
      I out
    | F xs ->
      let out = Array.make (na + nb) 0. in
      Array.blit xs 0 out 0 na;
      for i = 0 to nb - 1 do
        out.(na + i) <- (if is_null b i then 0. else float_src i)
      done;
      F out
    | B xs ->
      let out = Array.make (na + nb) false in
      Array.blit xs 0 out 0 na;
      for i = 0 to nb - 1 do
        out.(na + i) <- (if is_null b i then false else bool_at b i)
      done;
      B out
    | S xs ->
      let out = Array.make (na + nb) "" in
      Array.blit xs 0 out 0 na;
      for i = 0 to nb - 1 do
        out.(na + i) <- (if is_null b i then "" else string_at b i)
      done;
      S out
    | D (codes, d) ->
      let codes_b, d' = extend_dict d in
      let out = Array.make (na + nb) 0 in
      Array.blit codes 0 out 0 na;
      Array.blit codes_b 0 out na nb;
      D (out, d')
    | BI v ->
      let out = ivec_create (na + nb) in
      if na > 0 then Bigarray.Array1.blit v (Bigarray.Array1.sub out 0 na);
      for i = 0 to nb - 1 do
        Bigarray.Array1.unsafe_set out (na + i)
          (if is_null b i then 0 else int_src i)
      done;
      BI out
    | BF v ->
      let out = fvec_create (na + nb) in
      if na > 0 then Bigarray.Array1.blit v (Bigarray.Array1.sub out 0 na);
      for i = 0 to nb - 1 do
        Bigarray.Array1.unsafe_set out (na + i)
          (if is_null b i then 0. else float_src i)
      done;
      BF out
    | BD (v, d) ->
      let codes_b, d' = extend_dict d in
      let out = ivec_create (na + nb) in
      if na > 0 then Bigarray.Array1.blit v (Bigarray.Array1.sub out 0 na);
      for i = 0 to nb - 1 do
        Bigarray.Array1.unsafe_set out (na + i) codes_b.(i)
      done;
      BD (out, d')
  in
  { ty = a.ty; data; nulls }

(* [n] copies of [v] in [ty]'s typed array, converted as {!of_values}
   would; a NULL [v] gives an all-NULL column. *)
let const ty (v : Value.t) n =
  match (v, ty) with
  | VNull, _ -> of_values ty (Array.make n v)
  | _, (TInt | TDate) ->
    { ty; data = I (Array.make n (Value.as_int v)); nulls = None }
  | _, TFloat ->
    { ty; data = F (Array.make n (Value.as_float v)); nulls = None }
  | VString s, TString -> { ty; data = S (Array.make n s); nulls = None }
  | _, TString ->
    { ty; data = S (Array.make n (Value.to_string v)); nulls = None }
  | VBool b, TBool -> { ty; data = B (Array.make n b); nulls = None }
  | _, TBool ->
    { ty; data = B (Array.make n (Value.as_int v <> 0)); nulls = None }
