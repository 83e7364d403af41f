(** Table statistics: per-column min/max, null and distinct counts, plus
    per-block zone maps that power scan skipping in both executors.

    Statistics are computed once at catalog ingest ({!Catalog.add}) and
    drive the planner's cost model (range-predicate selectivity from
    min/max, equi-join output size from distinct counts). Distinct counts
    are exact when cheap — dictionary columns read the dictionary size,
    low-cardinality data is counted outright — and otherwise estimated from
    a deterministic stride sample with a GEE-style estimator, so the
    numbers are identical with dictionary encoding on or off.

    Zone maps cover numeric columns (ints, dates, floats) in
    [block_size]-row blocks — the same granularity as the compiled
    executor's morsels. They are resolved by the physical identity of the
    column's data array ({!data_key}), so they remain valid through
    zero-copy projections and selection-vector wrapping, and silently
    disappear for gathered (re-materialized) columns whose row numbering no
    longer matches the base table. *)

open Value

let block_size = 4096

(* Observability: rows iterated by statistics / zone-map passes since the
   last reset. Each per-column pass accounts the row range it walks, so the
   ingest-cost regression test can pin an append's statistics work to
   O(delta) regardless of resident table size. *)
let scanned : int Atomic.t = Atomic.make 0
let reset_rows_scanned () = Atomic.set scanned 0
let rows_scanned () = Atomic.get scanned
let note_scanned n = if n > 0 then ignore (Atomic.fetch_and_add scanned n)

type col_stats = {
  null_count : int;
  null_frac : float; (* null_count / column length *)
  distinct : float; (* >= 1; estimate unless exact was cheap *)
  range : (float * float) option; (* numeric min/max over non-null rows *)
  str_range : (string * string) option; (* string min/max, both layouts *)
}

(* Per-block min/max over non-null rows; an all-null or empty block is
   encoded as the empty interval [zmin > zmax] and never matches. *)
type zone = { zmin : float; zmax : float }

type table_stats = {
  row_count : int;
  cols : col_stats array;
  zones : zone array option array; (* numeric columns only *)
}

(* ------------------------------------------------------------------ *)
(* Distinct-count estimation                                          *)
(* ------------------------------------------------------------------ *)

let exact_cap = 4096
let sample_target = 2048

exception Cap

(* Count distinct non-null keys exactly up to [exact_cap]; past the cap,
   fall back to a stride sample and the GEE estimator
   d = f1 * sqrt(n/s) + (d_seen - f1). *)
let distinct_estimate (key_at : int -> 'a option) n : float =
  if n = 0 then 1.
  else
    let tbl = Hashtbl.create 256 in
    try
      for i = 0 to n - 1 do
        match key_at i with
        | None -> ()
        | Some k ->
          if not (Hashtbl.mem tbl k) then begin
            if Hashtbl.length tbl >= exact_cap then raise Cap;
            Hashtbl.add tbl k ()
          end
      done;
      float_of_int (max 1 (Hashtbl.length tbl))
    with Cap ->
      let step = max 1 (n / sample_target) in
      let counts = Hashtbl.create (2 * sample_target) in
      let sampled = ref 0 in
      let i = ref 0 in
      while !i < n do
        (match key_at !i with
        | None -> ()
        | Some k ->
          incr sampled;
          Hashtbl.replace counts k
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)));
        i := !i + step
      done;
      let d_seen = Hashtbl.length counts in
      let f1 =
        Hashtbl.fold (fun _ c acc -> if c = 1 then acc + 1 else acc) counts 0
      in
      let s = float_of_int (max 1 !sampled) in
      let est =
        (float_of_int f1 *. sqrt (float_of_int n /. s))
        +. float_of_int (d_seen - f1)
      in
      Float.max 1. (Float.min (float_of_int n) est)

(* ------------------------------------------------------------------ *)
(* Per-column statistics                                              *)
(* ------------------------------------------------------------------ *)

let null_count_of (c : Column.t) _n =
  match c.Column.nulls with None -> 0 | Some m -> Bitset.popcount m

let stats_of_col ~unique (c : Column.t) : col_stats =
  let n = Column.length c in
  note_scanned n;
  let nulls = null_count_of c n in
  let live = n - nulls in
  let is_null i = Column.is_null c i in
  let numeric_range get =
    let lo = ref infinity and hi = ref neg_infinity in
    for i = 0 to n - 1 do
      if not (is_null i) then begin
        let v = get i in
        if v < !lo then lo := v;
        if v > !hi then hi := v
      end
    done;
    if !lo > !hi then None else Some (!lo, !hi)
  in
  let distinct =
    if unique then float_of_int (max 1 live)
    else
      match c.Column.data with
      | Column.D (_, d) -> float_of_int (max 1 (Column.dict_size d))
      | Column.B _ -> 2.
      | Column.I v ->
        distinct_estimate
          (fun i -> if is_null i then None else Some (Bigarray.Array1.get v i))
          n
      | Column.F v ->
        distinct_estimate
          (fun i -> if is_null i then None else Some (Bigarray.Array1.get v i))
          n
      | Column.S a ->
        distinct_estimate (fun i -> if is_null i then None else Some a.(i)) n
  in
  let range =
    match Column.num_reader c with
    | Some get when c.Column.ty <> TBool -> numeric_range get
    | _ -> None
  in
  let str_range =
    let fold_str get =
      let lo = ref None and hi = ref None in
      for i = 0 to n - 1 do
        if not (is_null i) then begin
          let s = get i in
          (match !lo with
          | Some l when String.compare s l >= 0 -> ()
          | _ -> lo := Some s);
          match !hi with
          | Some h when String.compare s h <= 0 -> ()
          | _ -> hi := Some s
        end
      done;
      match (!lo, !hi) with Some l, Some h -> Some (l, h) | _ -> None
    in
    match c.Column.data with
    | Column.S a -> fold_str (fun i -> a.(i))
    | Column.D (_, d) ->
      (* every dictionary entry occurs in the column, so the value-array
         extremes are the column extremes *)
      let vs = d.Column.values in
      if Array.length vs = 0 || live = 0 then None
      else begin
        let lo = ref vs.(0) and hi = ref vs.(0) in
        Array.iter
          (fun s ->
            if String.compare s !lo < 0 then lo := s;
            if String.compare s !hi > 0 then hi := s)
          vs;
        Some (!lo, !hi)
      end
    | _ -> None
  in
  { null_count = nulls;
    null_frac = (if n = 0 then 0. else float_of_int nulls /. float_of_int n);
    distinct; range; str_range }

(* ------------------------------------------------------------------ *)
(* Zone maps                                                          *)
(* ------------------------------------------------------------------ *)

let empty_zone = { zmin = infinity; zmax = neg_infinity }

let zones_of_col (c : Column.t) : zone array option =
  let build get =
    let n = Column.length c in
    note_scanned n;
    let nb = (n + block_size - 1) / block_size in
    let zs = Array.make (max 1 nb) empty_zone in
    for b = 0 to nb - 1 do
      let lo = b * block_size and hi = min n ((b + 1) * block_size) - 1 in
      let zmin = ref infinity and zmax = ref neg_infinity in
      for i = lo to hi do
        if not (Column.is_null c i) then begin
          let v = get i in
          if v < !zmin then zmin := v;
          if v > !zmax then zmax := v
        end
      done;
      zs.(b) <- { zmin = !zmin; zmax = !zmax }
    done;
    Some zs
  in
  match Column.num_reader c with
  | Some get when c.Column.ty <> TBool -> build get
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Table entry point                                                  *)
(* ------------------------------------------------------------------ *)

(* [unique.(i)] marks columns known unique from constraints (single-column
   primary keys), giving an exact distinct count for free. Columns are
   independent, so ingest statistics fan out one column per worker. *)
(* Minimal statistics for short-lived relations (delta slices the view
   engine replays exactly once): row and null counts only — no ranges, no
   distinct estimation, no zone maps. The planner never sees these tables;
   they exist inside an already-planned stream replay, so the expensive
   fields would be computed and immediately discarded. *)
let trivial (rel : Relation.t) : table_stats =
  let n = Relation.n_rows rel in
  { row_count = n;
    cols =
      Array.map
        (fun c ->
          let nulls = null_count_of c n in
          { null_count = nulls;
            null_frac =
              (if n = 0 then 0. else float_of_int nulls /. float_of_int n);
            distinct = 1.;
            range = None;
            str_range = None })
        rel.Relation.cols;
    zones = Array.map (fun _ -> None) rel.Relation.cols }

let compute ?unique ?(grain = Settings.default.grain) ?(threads = 1)
    (rel : Relation.t) : table_stats =
  let uniq i =
    match unique with Some u when i < Array.length u -> u.(i) | _ -> false
  in
  let per_col =
    Parallel.map_list ~grain ~threads ~rows:(Relation.n_rows rel)
      (fun (i, c) -> (stats_of_col ~unique:(uniq i) c, zones_of_col c))
      (List.mapi (fun i c -> (i, c)) (Array.to_list rel.Relation.cols))
  in
  let per_col = Array.of_list per_col in
  { row_count = Relation.n_rows rel;
    cols = Array.map fst per_col;
    zones = Array.map snd per_col }

(* ------------------------------------------------------------------ *)
(* O(delta) maintenance for appends                                   *)
(* ------------------------------------------------------------------ *)

(* Fold the appended rows [from..n) of the merged column into [old]'s
   statistics without revisiting resident rows. Null counts and ranges
   merge exactly; distinct counts stay exact on the cheap paths (unique
   columns, dictionaries, booleans) and otherwise become the capped sum of
   the old estimate and a delta-only estimate — an upper bound, which only
   makes the planner more conservative. *)
let append_col_stats ~unique (old : col_stats) (c : Column.t) ~from :
    col_stats =
  let n = Column.length c in
  let d = n - from in
  let is_null i = Column.is_null c i in
  let nulls_delta = ref 0 in
  for i = from to n - 1 do
    if is_null i then incr nulls_delta
  done;
  note_scanned d;
  let nulls = old.null_count + !nulls_delta in
  let live = n - nulls in
  let range =
    match Column.num_reader c with
    | Some get when c.Column.ty <> TBool ->
      note_scanned d;
      let lo = ref infinity and hi = ref neg_infinity in
      for i = from to n - 1 do
        if not (is_null i) then begin
          let v = get i in
          if v < !lo then lo := v;
          if v > !hi then hi := v
        end
      done;
      (match old.range with
      | Some (olo, ohi) -> Some (Float.min olo !lo, Float.max ohi !hi)
      | None -> if !lo > !hi then None else Some (!lo, !hi))
    | _ -> None
  in
  let str_range =
    match c.Column.data with
    | Column.S _ | Column.D _ ->
      note_scanned d;
      let merged = ref old.str_range in
      for i = from to n - 1 do
        if not (is_null i) then begin
          let s = Column.string_at c i in
          merged :=
            (match !merged with
            | None -> Some (s, s)
            | Some (l, h) ->
              Some
                ( (if String.compare s l < 0 then s else l),
                  if String.compare s h > 0 then s else h ))
        end
      done;
      !merged
    | _ -> old.str_range
  in
  let distinct =
    if unique then float_of_int (max 1 live)
    else
      match c.Column.data with
      | Column.D (_, dd) ->
        float_of_int (max 1 (Column.dict_size dd))
      | Column.B _ -> 2.
      | _ ->
        note_scanned d;
        let at key_at =
          distinct_estimate
            (fun i ->
              let i = from + i in
              if is_null i then None else Some (key_at i))
            d
        in
        let delta_d =
          match c.Column.data with
          | Column.I v -> at (Bigarray.Array1.get v)
          | Column.F v -> at (Bigarray.Array1.get v)
          | Column.S a -> at (fun i -> a.(i))
          | Column.B _ | Column.D _ -> 1.
        in
        Float.max 1. (Float.min (float_of_int (max 1 live)) (old.distinct +. delta_d))
  in
  { null_count = nulls;
    null_frac = (if n = 0 then 0. else float_of_int nulls /. float_of_int n);
    distinct; range; str_range }

(* Zone maps after an append: blocks entirely inside the resident prefix
   are carried over as-is, the block the append landed in folds only the
   appended rows into its resident min/max, and fresh tail blocks are
   computed — O(delta) rows. The fold continues from the resident state
   row by row, so every zone equals a full recompute's. *)
let extend_zones (old : zone array option) (c : Column.t) ~from :
    zone array option =
  match Column.num_reader c with
  | Some get when c.Column.ty <> TBool ->
    let n = Column.length c in
    let nb = max 1 ((n + block_size - 1) / block_size) in
    let zs = Array.make nb empty_zone in
    (* the first row to fold: [from] when the resident zones cover every
       row below it, else the start of the first block they miss *)
    let first =
      match old with
      | Some ozs ->
        let full = from / block_size in
        let keep = min (Array.length ozs) full in
        Array.blit ozs 0 zs 0 keep;
        if keep = full && keep < Array.length ozs && keep < nb then begin
          zs.(keep) <- ozs.(keep);
          from
        end
        else keep * block_size
      | None -> 0
    in
    note_scanned (n - first);
    for b = first / block_size to nb - 1 do
      let lo = max first (b * block_size)
      and hi = min n ((b + 1) * block_size) - 1 in
      let zmin = ref zs.(b).zmin and zmax = ref zs.(b).zmax in
      for i = lo to hi do
        if not (Column.is_null c i) then begin
          let v = get i in
          if v < !zmin then zmin := v;
          if v > !zmax then zmax := v
        end
      done;
      zs.(b) <- { zmin = !zmin; zmax = !zmax }
    done;
    Some zs
  | _ -> None

(** Statistics for [rel] after appending rows [from..n): every per-column
    pass walks only the appended suffix, so ingest cost is O(delta), not
    O(table). [rel] must be the merged relation whose first [from] rows
    carried [old]. *)
let append_table (old : table_stats) ?unique
    ?(grain = Settings.default.grain) ?(threads = 1) (rel : Relation.t) ~from :
    table_stats =
  let uniq i =
    match unique with Some u when i < Array.length u -> u.(i) | _ -> false
  in
  let per_col =
    Parallel.map_list ~grain ~threads ~rows:(Relation.n_rows rel - from)
      (fun (i, c) ->
        ( append_col_stats ~unique:(uniq i) old.cols.(i) c ~from,
          extend_zones old.zones.(i) c ~from ))
      (List.mapi (fun i c -> (i, c)) (Array.to_list rel.Relation.cols))
  in
  let per_col = Array.of_list per_col in
  { row_count = Relation.n_rows rel;
    cols = Array.map fst per_col;
    zones = Array.map snd per_col }

(* Physical identity of a column's payload vector: zone maps attach to the
   vector, not the Column.t wrapper, so they survive re-wrapping. *)
let data_key (c : Column.t) : Obj.t option =
  match c.Column.data with
  | Column.I v -> Some (Obj.repr v)
  | Column.F v -> Some (Obj.repr v)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Zone tests for predicates                                          *)
(* ------------------------------------------------------------------ *)

let lit_num (v : Value.t) =
  match v with
  | VInt n -> Some (float_of_int n)
  | VDate d -> Some (float_of_int d)
  | VFloat f -> Some f
  | VBool _ | VString _ | VNull -> None

(* Could any row of a block with extremes [z] satisfy [col <op> l]?
   Conservative: zone min/max ignore nulls, and null rows never satisfy a
   comparison, so an empty interval means the block is skippable. *)
let may_cmp (op : Sql_ast.binop) (z : zone) l =
  z.zmin <= z.zmax
  &&
  match op with
  | Sql_ast.Eq -> l >= z.zmin && l <= z.zmax
  | Sql_ast.Ne -> not (z.zmin = z.zmax && z.zmin = l)
  | Sql_ast.Lt -> z.zmin < l
  | Sql_ast.Le -> z.zmin <= l
  | Sql_ast.Gt -> z.zmax > l
  | Sql_ast.Ge -> z.zmax >= l
  | _ -> true

let flip_cmp (op : Sql_ast.binop) =
  match op with
  | Sql_ast.Lt -> Sql_ast.Gt
  | Sql_ast.Le -> Sql_ast.Ge
  | Sql_ast.Gt -> Sql_ast.Lt
  | Sql_ast.Ge -> Sql_ast.Le
  | op -> op

(* Build a per-block may-match test for [e] given per-column zone maps
   [zcols] (indexed like the source columns [e] refers to). Returns [None]
   when the predicate shape offers nothing to skip on. *)
let rec test_with (zcols : zone array option array) (e : Plan.pexpr) :
    (int -> bool) option =
  let leaf i op l =
    if i < 0 || i >= Array.length zcols then None
    else
      match (lit_num l, zcols.(i)) with
      | Some lv, Some zs ->
        let nb = Array.length zs in
        Some (fun b -> b < 0 || b >= nb || may_cmp op zs.(b) lv)
      | _ -> None
  in
  match e with
  | Plan.PBin (Sql_ast.And, a, b) -> (
    match (test_with zcols a, test_with zcols b) with
    | Some ta, Some tb -> Some (fun i -> ta i && tb i)
    | (Some _ as t), None | None, (Some _ as t) -> t
    | None, None -> None)
  | Plan.PBin (Sql_ast.Or, a, b) -> (
    (* sound only if both arms are zone-checkable *)
    match (test_with zcols a, test_with zcols b) with
    | Some ta, Some tb -> Some (fun i -> ta i || tb i)
    | _ -> None)
  | Plan.PBin
      ((Sql_ast.Eq | Sql_ast.Ne | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge) as op,
       Plan.PCol i, Plan.PLit l) -> leaf i op l
  | Plan.PBin
      ((Sql_ast.Eq | Sql_ast.Ne | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge) as op,
       Plan.PLit l, Plan.PCol i) -> leaf i (flip_cmp op) l
  | Plan.PInList (Plan.PCol i, items, false) -> (
    if i < 0 || i >= Array.length zcols then None
    else
      match zcols.(i) with
      | Some zs when items <> [] && List.for_all (fun v -> lit_num v <> None) items ->
        let vals = List.filter_map lit_num items in
        let nb = Array.length zs in
        Some
          (fun b ->
            b < 0 || b >= nb
            ||
            let z = zs.(b) in
            z.zmin <= z.zmax
            && List.exists (fun v -> v >= z.zmin && v <= z.zmax) vals)
      | _ -> None)
  | _ -> None

(* Conjunction of [preds]: a block survives only if every conjunct may
   match. *)
let zone_tests_with (zcols : zone array option array) (preds : Plan.pexpr list)
    : (int -> bool) option =
  List.fold_left
    (fun acc p ->
      match (acc, test_with zcols p) with
      | None, t -> t
      | Some a, Some t -> Some (fun b -> a b && t b)
      | Some _, None -> acc)
    None preds

(* Any block overlapping rows [lo..hi] (inclusive) may match? *)
let range_may_match (test : int -> bool) ~lo ~hi =
  let b1 = hi / block_size in
  let rec go b = b <= b1 && (test b || go (b + 1)) in
  go (lo / block_size)

(* Split [lo..hi] (inclusive) into maximal sub-ranges whose zone blocks may
   all match; with no test the whole range survives. Every selection over
   a base-table scan ({!Kernel.select}, the fused aggregate, the compiled
   executor's source folds) walks only the surviving ranges, so zone-dead
   blocks never render a mask. *)
let alive_ranges (ztest : (int -> bool) option) lo hi : (int * int) list =
  if lo > hi then []
  else
    match ztest with
    | None -> [ (lo, hi) ]
    | Some t ->
      let bs = block_size in
      let out = ref [] and cur = ref None in
      for b = lo / bs to hi / bs do
        let blo = max lo (b * bs) and bhi = min hi (((b + 1) * bs) - 1) in
        if t b then
          match !cur with
          | Some (clo, chi) when chi + 1 = blo -> cur := Some (clo, bhi)
          | Some r ->
            out := r :: !out;
            cur := Some (blo, bhi)
          | None -> cur := Some (blo, bhi)
      done;
      (match !cur with Some r -> out := r :: !out | None -> ());
      List.rev !out
