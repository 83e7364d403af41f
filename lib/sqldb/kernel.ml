(** Fused branch-free filter→aggregate kernels over base-table scans.

    The mid-tier executors evaluate predicates row-at-a-time through
    closures ({!Eval.compile_pred}) and aggregate through per-spec updater
    closures ({!Agg_util.update_fn}) — several indirect calls per row. This
    module compiles the hot pipeline shape [SELECT aggs FROM t WHERE p
    (GROUP BY cols)] down to tight loops over the physical column storage:

    - {b Masks.} Predicates render into byte masks (0/1 per row) over a
      fixed [stride] of rows. Comparison leaves over {!Column.ivec} /
      {!Column.fvec} bigarrays are branch-free: the comparison sign indexes
      a 3-byte truth table, so all six operators share one loop shape with
      no data-dependent branch. Dictionary leaves evaluate the string
      predicate once per *distinct* value into a per-code byte table
      (mirroring {!Eval}'s dictionary fast paths), then each row is one
      table load. Conjunctions and disjunctions combine masks with byte
      [land]/[lor] — no short-circuit branches. Leaves the compiler does
      not specialize fall back to a {!Eval.compile_pred} closure rendered
      into the same mask, so fused and unfused paths agree on semantics by
      construction.

    - {b Fused aggregation.} For a gated plan ({!Planner.fusible_agg}) the
      Filter/Project chain is peeled back onto the base table
      ({!Plan.subst_cols}) and its conjuncts run as a selection cascade
      per stride, ordered estimated-most-selective-first from table
      statistics ({!Planner.pred_selectivity}): the first conjunct
      renders branch-free into a mask and
      compacts survivor indices, each later conjunct refines the survivor
      list with a compiled per-row predicate (touching its columns only
      at surviving rows), and sum/count/avg/min/max then fold the
      survivors through compiled argument readers — no projected column
      or intermediate relation ever materializes, and every float add
      replays the unfused updater's exact compensated sequence
      ({!Agg_util.acc_add_f}). Grouped aggregation reuses the dense
      packed-key domain ({!Hash_util.dense_domain}) with unboxed per-slot
      accumulators and first-seen emission order, matching the compiled
      executor's unfused output exactly.

    - {b Checkpoints.} Fused loops have no morsel boundaries, so
      {!Guard.check} and a {!Faults.slow_point} run at every [stride]
      boundary, and {!Stats.alive_ranges} drops zone-dead blocks before
      any mask is rendered.

    Caveats: float comparison leaves classify NaN as "equal" (the
    comparison-sign trick); the engine never stores NaN — null payloads
    are finite zeros — so this is unobservable. Compiled fillers carry
    private scratch buffers and must be built on the worker that runs
    them (one [compile] per chunk, like {!Eval.compile_pred}).

    [set_fuse false] disables every fused path; the executors then run
    exactly the pre-fusion code. *)

open Plan

(* Mask/aggregation stride: fused loops process this many rows between
   Guard/Faults checkpoints. Matches the unfused aggregate loops' cadence
   ((row - lo) land 8191 = 0) so fused and unfused pipelines hit deadline
   checks at the same granularity. *)
let stride = 8192

let use_fuse = ref true
let fuse_enabled () = !use_fuse
let set_fuse b = use_fuse := b

(* ------------------------------------------------------------------ *)
(* Mask rendering                                                     *)
(* ------------------------------------------------------------------ *)

(* A mask renderer: writes 0/1 bytes for source rows [lo, lo+len) into the
   first [len] bytes of the buffer ([len <= stride]). Closures may own
   scratch buffers, so a filler must stay on the worker it was compiled
   on. *)
type filler = Bytes.t -> lo:int -> len:int -> unit

(* 3-byte truth table indexed by [1 + sign (compare x k)]: turns all six
   comparison operators into one branch-free loop body. *)
let cmp_table (op : Sql_ast.binop) : string option =
  let t lt eq gt =
    let b v = if v then '\001' else '\000' in
    Some (Printf.sprintf "%c%c%c" (b lt) (b eq) (b gt))
  in
  match op with
  | Sql_ast.Lt -> t true false false
  | Sql_ast.Le -> t true true false
  | Sql_ast.Gt -> t false false true
  | Sql_ast.Ge -> t false true true
  | Sql_ast.Eq -> t false true false
  | Sql_ast.Ne -> t true false true
  | _ -> None

let fill_cmp_ivec (v : Column.ivec) (k : int) (tbl : string) : filler =
 fun m ~lo ~len ->
  for j = 0 to len - 1 do
    let x = Bigarray.Array1.unsafe_get v (lo + j) in
    let s = 1 + Bool.to_int (x > k) - Bool.to_int (x < k) in
    Bytes.unsafe_set m j (String.unsafe_get tbl s)
  done

let fill_cmp_fvec (v : Column.fvec) (k : float) (tbl : string) : filler =
 fun m ~lo ~len ->
  for j = 0 to len - 1 do
    let x = Bigarray.Array1.unsafe_get v (lo + j) in
    let s = 1 + Bool.to_int (x > k) - Bool.to_int (x < k) in
    Bytes.unsafe_set m j (String.unsafe_get tbl s)
  done

let fill_cmp_iarr (a : int array) (k : int) (tbl : string) : filler =
 fun m ~lo ~len ->
  for j = 0 to len - 1 do
    let x = Array.unsafe_get a (lo + j) in
    let s = 1 + Bool.to_int (x > k) - Bool.to_int (x < k) in
    Bytes.unsafe_set m j (String.unsafe_get tbl s)
  done

let fill_cmp_farr (a : float array) (k : float) (tbl : string) : filler =
 fun m ~lo ~len ->
  for j = 0 to len - 1 do
    let x = Array.unsafe_get a (lo + j) in
    let s = 1 + Bool.to_int (x > k) - Bool.to_int (x < k) in
    Bytes.unsafe_set m j (String.unsafe_get tbl s)
  done

(* Per-code byte table for a dictionary leaf: [f] evaluated once per
   distinct value — the byte-rendered twin of {!Eval.dict_row_pred}. *)
let code_table (d : Column.dict) (f : string -> bool) : Bytes.t =
  let nv = Column.dict_size d in
  let tbl = Bytes.create nv in
  for c = 0 to nv - 1 do
    Bytes.unsafe_set tbl c
      (if f d.Column.values.(c) then '\001' else '\000')
  done;
  tbl

let fill_codes_vec (codes : Column.ivec) (tbl : Bytes.t) : filler =
 fun m ~lo ~len ->
  for j = 0 to len - 1 do
    Bytes.unsafe_set m j
      (Bytes.unsafe_get tbl (Bigarray.Array1.unsafe_get codes (lo + j)))
  done

let fill_codes_arr (codes : int array) (tbl : Bytes.t) : filler =
 fun m ~lo ~len ->
  for j = 0 to len - 1 do
    Bytes.unsafe_set m j (Bytes.unsafe_get tbl (Array.unsafe_get codes (lo + j)))
  done

(* Null rows of a filter leaf are always false (SQL three-valued logic in
   filter position), matching {!Eval.with_null_check} / the compile_pred
   null fallback. *)
let with_nulls (c : Column.t) (f : filler) : filler =
  match c.Column.nulls with
  | None -> f
  | Some bs ->
    fun m ~lo ~len ->
      f m ~lo ~len;
      for j = 0 to len - 1 do
        if Bitset.get bs (lo + j) then Bytes.unsafe_set m j '\000'
      done

let fill_const (b : bool) : filler =
  let ch = if b then '\001' else '\000' in
  fun m ~lo:_ ~len -> Bytes.fill m 0 len ch

(* Generic leaf: any predicate shape renders through its compile_pred
   closure, so fused filters can never disagree with the unfused path. *)
let fill_generic (cols : Column.t array) (e : pexpr) : filler =
  let pred = Eval.compile_pred cols e in
  fun m ~lo ~len ->
    for j = 0 to len - 1 do
      Bytes.unsafe_set m j (if pred (lo + j) then '\001' else '\000')
    done

let fill_and (fa : filler) (fb : filler) : filler =
  let scratch = Bytes.create stride in
  fun m ~lo ~len ->
    fa m ~lo ~len;
    fb scratch ~lo ~len;
    for j = 0 to len - 1 do
      Bytes.unsafe_set m j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get m j)
           land Char.code (Bytes.unsafe_get scratch j)))
    done

let fill_or (fa : filler) (fb : filler) : filler =
  let scratch = Bytes.create stride in
  fun m ~lo ~len ->
    fa m ~lo ~len;
    fb scratch ~lo ~len;
    for j = 0 to len - 1 do
      Bytes.unsafe_set m j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get m j)
           lor Char.code (Bytes.unsafe_get scratch j)))
    done

let fill_not (f : filler) : filler =
 fun m ~lo ~len ->
  f m ~lo ~len;
  for j = 0 to len - 1 do
    Bytes.unsafe_set m j
      (Char.unsafe_chr (1 - Char.code (Bytes.unsafe_get m j)))
  done

(* May [NOT e] be computed by flipping [e]'s mask? Only when [e] can never
   evaluate to SQL NULL: compile_row maps NOT NULL to false while the
   flipped mask would say true. Comparison/LIKE/IN leaves qualify when
   every referenced column is null-free and their operands cannot conjure
   a null (no NULL literals, CASE, functions or casts); IS NULL leaves are
   exact under nulls and always qualify. *)
let rec null_free_operand (cols : Column.t array) = function
  | PCol i -> cols.(i).Column.nulls = None
  | PLit v -> not (Value.is_null v)
  | PBin
      ( ( Sql_ast.Add | Sql_ast.Sub | Sql_ast.Mul | Sql_ast.Div | Sql_ast.Mod
        | Sql_ast.Concat ),
        a,
        b ) -> null_free_operand cols a && null_free_operand cols b
  | PNeg a -> null_free_operand cols a
  | _ -> false

let rec flippable (cols : Column.t array) = function
  | PIsNull (PCol _, _) -> true
  | PBin ((Sql_ast.And | Sql_ast.Or), a, b) ->
    flippable cols a && flippable cols b
  | PNot a -> flippable cols a
  | PBin
      ( (Sql_ast.Eq | Sql_ast.Ne | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge),
        a,
        b ) -> null_free_operand cols a && null_free_operand cols b
  | PLike (a, _, _) | PInList (a, _, _) -> null_free_operand cols a
  | _ -> false

(* Compile [e] into a mask renderer. The bool is true when every leaf took
   a specialized branch-free form (no per-row closure anywhere). *)
let rec compile_mask (cols : Column.t array) (e : pexpr) : filler * bool =
  let dict_leaf (c : Column.t) (f : string -> bool) : (filler * bool) option =
    match c.Column.data with
    | Column.D (codes, d) ->
      Some (with_nulls c (fill_codes_arr codes (code_table d f)), true)
    | Column.BD (codes, d) ->
      Some (with_nulls c (fill_codes_vec codes (code_table d f)), true)
    | _ -> None
  in
  let cmp_leaf op i (lit : Value.t) : (filler * bool) option =
    let c = cols.(i) in
    match cmp_table op with
    | None -> None
    | Some tbl -> (
      match (c.Column.data, lit) with
      | Column.BI v, (Value.VInt k | Value.VDate k) ->
        Some (with_nulls c (fill_cmp_ivec v k tbl), true)
      | Column.I a, (Value.VInt k | Value.VDate k) ->
        Some (with_nulls c (fill_cmp_iarr a k tbl), true)
      | Column.BF v, Value.VFloat k ->
        Some (with_nulls c (fill_cmp_fvec v k tbl), true)
      | Column.BF v, Value.VInt k ->
        Some (with_nulls c (fill_cmp_fvec v (float_of_int k) tbl), true)
      | Column.F a, Value.VFloat k ->
        Some (with_nulls c (fill_cmp_farr a k tbl), true)
      | Column.F a, Value.VInt k ->
        Some (with_nulls c (fill_cmp_farr a (float_of_int k) tbl), true)
      | (Column.D _ | Column.BD _), Value.VString k -> (
        match Column.codes_reader c with
        | None -> None
        | Some (_, d) ->
          (* mirror Eval.dict_cmp_pred: Eq/Ne resolve the literal through
             the dictionary index; ordered compares evaluate per distinct *)
          let tbl =
            match op with
            | Sql_ast.Eq | Sql_ast.Ne -> (
              let negated = op = Sql_ast.Ne in
              match Column.dict_find d k with
              | Some code ->
                code_table d (fun _ -> negated)
                |> fun t ->
                Bytes.set t code (if negated then '\000' else '\001');
                t
              | None -> code_table d (fun _ -> negated))
            | _ ->
              let test = Eval.cmp_test op in
              code_table d (fun v -> test (String.compare v k))
          in
          let fill =
            match c.Column.data with
            | Column.D (codes, _) -> fill_codes_arr codes tbl
            | Column.BD (codes, _) -> fill_codes_vec codes tbl
            | _ -> assert false
          in
          Some (with_nulls c fill, true))
      | _ -> None)
  in
  match e with
  | PBin (Sql_ast.And, a, b) ->
    let fa, ea = compile_mask cols a and fb, eb = compile_mask cols b in
    (fill_and fa fb, ea && eb)
  | PBin (Sql_ast.Or, a, b) ->
    let fa, ea = compile_mask cols a and fb, eb = compile_mask cols b in
    (fill_or fa fb, ea && eb)
  | PNot a when flippable cols a ->
    let fa, ea = compile_mask cols a in
    (fill_not fa, ea)
  | PBin
      ( ((Sql_ast.Eq | Sql_ast.Ne | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge) as op),
        PCol i,
        PLit lit ) -> (
    match cmp_leaf op i lit with
    | Some r -> r
    | None -> (fill_generic cols e, false))
  | PBin
      ( ((Sql_ast.Eq | Sql_ast.Ne | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge) as op),
        PLit lit,
        PCol i ) -> (
    let flip =
      match op with
      | Sql_ast.Lt -> Sql_ast.Gt
      | Sql_ast.Le -> Sql_ast.Ge
      | Sql_ast.Gt -> Sql_ast.Lt
      | Sql_ast.Ge -> Sql_ast.Le
      | op -> op
    in
    match cmp_leaf flip i lit with
    | Some r -> r
    | None -> (fill_generic cols e, false))
  | PLike (PCol i, pattern, negated) -> (
    let matcher = Eval.compile_like pattern in
    match dict_leaf cols.(i) (fun v -> matcher v <> negated) with
    | Some r -> r
    | None -> (fill_generic cols e, false))
  | PInList (PCol i, items, negated) -> (
    match
      dict_leaf cols.(i) (fun v ->
          List.exists (Value.equal_values (Value.VString v)) items <> negated)
    with
    | Some r -> r
    | None -> (fill_generic cols e, false))
  | PIsNull (PCol i, negated) -> (
    match cols.(i).Column.nulls with
    | None -> (fill_const negated, true)
    | Some bs ->
      ( (fun m ~lo ~len ->
          for j = 0 to len - 1 do
            Bytes.unsafe_set m j
              (if Bitset.get bs (lo + j) <> negated then '\001' else '\000')
          done),
        true ))
  | PLit (Value.VBool b) -> (fill_const b, true)
  | _ -> (fill_generic cols e, false)

(* Conjunction of filter predicates as one mask renderer. *)
let compile_masks (cols : Column.t array) (preds : pexpr list) : filler * bool
    =
  match preds with
  | [] -> (fill_const true, true)
  | p :: rest ->
    List.fold_left
      (fun (f, ex) p ->
        let g, eg = compile_mask cols p in
        (fill_and f g, ex && eg))
      (compile_mask cols p) rest

(* ------------------------------------------------------------------ *)
(* Mask-driven filtering (vectorized scan paths)                      *)
(* ------------------------------------------------------------------ *)

(* A filter predicate qualifies for the mask kernels only when every leaf
   specialized: a mask whose leaves are compile_pred closures would pay
   mask traffic on top of the closure calls the plain path already does. *)
let filter_supported (cols : Column.t array) (pred : pexpr) : bool =
  fuse_enabled () && snd (compile_mask cols pred)

(* Render [fill] over [lo..hi] (inclusive) and append surviving row indices
   to [out] at [count]. [m] is caller scratch of length [stride]. Guard and
   fault checkpoints run per stride — fused scans have no morsel
   boundaries. *)
let fill_collect (fill : filler) (m : Bytes.t) ~lo ~hi (out : int array)
    (count : int ref) : unit =
  let pos = ref lo in
  while !pos <= hi do
    Guard.check ();
    Faults.slow_point ~site:"kernel.filter";
    let slen = min stride (hi - !pos + 1) in
    fill m ~lo:!pos ~len:slen;
    for j = 0 to slen - 1 do
      if Bytes.unsafe_get m j <> '\000' then begin
        Array.unsafe_set out !count (!pos + j);
        incr count
      end
    done;
    pos := !pos + slen
  done

(* Survivors of [pred] in [start, start+len) as a (rows, count) pair — the
   chunk shape the vectorized collectors consume. Compiles its own mask
   (fillers own scratch), so safe to call from any worker. [None] when the
   predicate has an unspecialized leaf or fusion is disabled. *)
let filter_chunk (cols : Column.t array) (pred : pexpr) ~(start : int)
    ~(len : int) : (int array * int) option =
  if not (fuse_enabled ()) then None
  else
    let fill, exact = compile_mask cols pred in
    if not exact then None
    else begin
      let m = Bytes.create stride in
      let out = Array.make (max 1 len) 0 and count = ref 0 in
      fill_collect fill m ~lo:start ~hi:(start + len - 1) out count;
      Some (out, !count)
    end

(* Mask renderer for callers that drive their own block loops (the
   vectorized zone filter). *)
let mask_fill (cols : Column.t array) (pred : pexpr) : filler option =
  if not (fuse_enabled ()) then None
  else
    let fill, exact = compile_mask cols pred in
    if exact then Some fill else None

(* ------------------------------------------------------------------ *)
(* Numeric expression readers (aggregate arguments)                   *)
(* ------------------------------------------------------------------ *)

type num = NInt of (int -> int) | NFloat of (int -> float)

let num_as_float = function
  | NInt g -> fun r -> float_of_int (g r)
  | NFloat g -> g

(* Compile an arithmetic expression over base columns into a per-row
   reader, mirroring {!Eval}'s promotion rules exactly: int ⊕ int stays
   int for +,-,×; ÷ is always float; mixed operands promote through
   float_of_int. Anything outside {col, literal, + - × ÷} is unsupported
   (the caller falls back to the unfused pipeline). *)
let rec compile_num (cols : Column.t array) (e : pexpr) : num option =
  match e with
  | PCol i -> (
    match cols.(i).Column.data with
    | Column.BI v -> Some (NInt (fun r -> Bigarray.Array1.unsafe_get v r))
    | Column.I a -> Some (NInt (fun r -> Array.unsafe_get a r))
    | Column.BF v -> Some (NFloat (fun r -> Bigarray.Array1.unsafe_get v r))
    | Column.F a -> Some (NFloat (fun r -> Array.unsafe_get a r))
    | _ -> None)
  | PLit (Value.VInt k) | PLit (Value.VDate k) -> Some (NInt (fun _ -> k))
  | PLit (Value.VFloat x) -> Some (NFloat (fun _ -> x))
  | PBin
      ( ((Sql_ast.Add | Sql_ast.Sub | Sql_ast.Mul | Sql_ast.Div) as op),
        a,
        b ) -> (
    match (compile_num cols a, compile_num cols b) with
    | Some na, Some nb -> (
      match (na, nb, op) with
      | NInt ga, NInt gb, (Sql_ast.Add | Sql_ast.Sub | Sql_ast.Mul) ->
        let f =
          match op with
          | Sql_ast.Add -> ( + )
          | Sql_ast.Sub -> ( - )
          | _ -> ( * )
        in
        Some (NInt (fun r -> f (ga r) (gb r)))
      | _ ->
        let fa = num_as_float na and fb = num_as_float nb in
        let f =
          match op with
          | Sql_ast.Add -> ( +. )
          | Sql_ast.Sub -> ( -. )
          | Sql_ast.Mul -> ( *. )
          | _ -> ( /. )
        in
        Some (NFloat (fun r -> f (fa r) (fb r))))
    | _ -> None)
  | _ -> None

(* Division can overflow to ±inf on rows the filter rejected; inf × 0
   is NaN, which would poison a branch-free masked sum. Such arguments
   take the branch-on-mask accumulate instead. *)
(* Null masks of the base columns an argument expression reads: its
   evaluated null set is exactly their union (arith propagates null from
   either side; literals are never null here). *)
let expr_nulls (cols : Column.t array) (e : pexpr) : Bitset.t list =
  List.sort_uniq compare (pexpr_cols [] e)
  |> List.filter_map (fun i ->
         if i >= 0 && i < Array.length cols then cols.(i).Column.nulls
         else None)

(* ------------------------------------------------------------------ *)
(* Plan decomposition                                                 *)
(* ------------------------------------------------------------------ *)

(* Peel the Filter/Project chain over a single Scan: the table name, a
   rewrite taking expressions over the chain's output schema back onto the
   base-table schema, and the filter conjuncts (base schema, scan order —
   innermost first, matching the compiled executor's prefilter order). *)
let rec peel (p : plan) : (string * (pexpr -> pexpr) * pexpr list) option =
  match p.node with
  | Scan name -> Some (name, Fun.id, [])
  | Filter (sub, pred) ->
    Option.map
      (fun (nm, rw, fs) -> (nm, rw, fs @ [ rw pred ]))
      (peel sub)
  | Project (sub, items) ->
    Option.map
      (fun (nm, rw, fs) ->
        (* expressions over this Project's output substitute through the
           item expressions (already rewritten onto the base schema) *)
        let reps = Array.of_list (List.map (fun (e, _) -> rw e) items) in
        (nm, subst_cols reps, fs))
      (peel sub)
  | _ -> None

(* Flatten an AND tree into its conjuncts, left to right — the cascade
   evaluates them as successive refinement stages, so a single Filter node
   holding [a AND b AND c] costs the same as three stacked Filters. *)
let rec conjuncts (e : pexpr) : pexpr list =
  match e with
  | PBin (Sql_ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* ------------------------------------------------------------------ *)
(* Fused aggregation                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-spec fused accumulation shape, resolved once per query from the
   rewritten argument expression. The shapes mirror the accumulator the
   unfused executors would have used on the projected chunk column —
   compile_num returning [NInt] corresponds exactly to {!Eval.eval_col}
   producing an int column — so fused results match field-for-field. *)
type gkind =
  | GCount (* Count/CountStar: survivor count *)
  | GSumI of (int -> int) (* int Sum *)
  | GAvgI of (int -> int) (* int Avg: int sum + compensated float mirror *)
  | GSumF of (int -> float) (* float Sum/Avg: compensated *)
  | GMinI of (int -> int) * bool * Value.ty (* is_min; VInt/VDate boxing *)
  | GMinF of (int -> float) * bool

type gspec = {
  spec : Plan.agg_spec;
  kind : gkind;
  snulls : Bitset.t list;
      (* null masks whose union is the argument's null set; rows with a bit
         set are excluded from the validity mask (the [counting] skip in
         {!Agg_util.update_fn}) *)
}

(* Resolve one aggregate spec against the base table. [None] aborts fusion
   (the unfused pipeline handles every shape). *)
let resolve_spec (cols : Column.t array) (bschema : (string * Value.ty) array)
    (rw : pexpr -> pexpr) (spec : Plan.agg_spec) : gspec option =
  if spec.distinct then None
  else
    match spec.arg with
    | None -> Some { spec; kind = GCount; snulls = [] }
    | Some i -> (
      let e = rw (PCol i) in
      let num = compile_num cols e in
      let arg_ok =
        (* validity-by-column-nulls is only sound for shapes whose null set
           is exactly the union of their columns' nulls *)
        match e with PCol _ -> true | _ -> num <> None
      in
      let snulls = expr_nulls cols e in
      match spec.fn with
      | Sql_ast.Count | Sql_ast.CountStar ->
        if arg_ok then Some { spec; kind = GCount; snulls } else None
      | Sql_ast.Sum -> (
        match num with
        | Some (NInt get) when spec.out_ty = Value.TInt ->
          Some { spec; kind = GSumI get; snulls }
        | Some (NFloat get) when spec.out_ty <> Value.TInt ->
          Some { spec; kind = GSumF get; snulls }
        | _ -> None)
      | Sql_ast.Avg -> (
        match num with
        | Some (NInt get) -> Some { spec; kind = GAvgI get; snulls }
        | Some (NFloat get) -> Some { spec; kind = GSumF get; snulls }
        | _ -> None)
      | Sql_ast.Min | Sql_ast.Max -> (
        let is_min = spec.fn = Sql_ast.Min in
        match num with
        | Some (NInt get) ->
          Some
            { spec;
              kind = GMinI (get, is_min, Plan.type_of_pexpr bschema e);
              snulls }
        | Some (NFloat get) -> Some { spec; kind = GMinF (get, is_min); snulls }
        | None -> None))

(* Skip test for null aggregate arguments: the fused twin of the
   [counting] null-skip wrapper in {!Agg_util.update_fn} (a null argument
   row contributes neither to the count nor to the body). *)
let valid_of : Bitset.t list -> int -> bool = function
  | [] -> fun _ -> true
  | [ b ] -> fun row -> not (Bitset.get b row)
  | bss -> fun row -> not (List.exists (fun b -> Bitset.get b row) bss)

(* Per-survivor accumulation into a boxed [Agg_util.acc]. [idx.(0..k-1)]
   are the rows that passed the filter cascade, in ascending order — the
   same order the unfused executor visits them — and every update replays
   the exact arithmetic of {!Agg_util.update_fn} (count before body, null
   argument skips both, compensated float adds via
   {!Agg_util.acc_add_f}), so fused results match field-for-field
   including the low bits of compensated float sums. Min/max keep a
   chunk-local unboxed best and merge it through [Value.compare_values]
   once per call, like the unfused chunk fold. *)
let gupdate (g : gspec) : Agg_util.acc -> int array -> int -> unit =
  let valid = valid_of g.snulls in
  match g.kind with
  | GCount -> (
    match g.snulls with
    | [] -> fun acc _ k -> acc.Agg_util.count <- acc.Agg_util.count + k
    | _ ->
      fun acc idx k ->
        let c = ref 0 in
        for t = 0 to k - 1 do
          if valid (Array.unsafe_get idx t) then incr c
        done;
        acc.Agg_util.count <- acc.Agg_util.count + !c)
  | GSumI get ->
    fun acc idx k ->
      let c = ref 0 and s = ref 0 in
      for t = 0 to k - 1 do
        let row = Array.unsafe_get idx t in
        if valid row then begin
          incr c;
          s := !s + get row
        end
      done;
      acc.Agg_util.count <- acc.Agg_util.count + !c;
      acc.Agg_util.sumi <- acc.Agg_util.sumi + !s
  | GAvgI get ->
    fun acc idx k ->
      for t = 0 to k - 1 do
        let row = Array.unsafe_get idx t in
        if valid row then begin
          acc.Agg_util.count <- acc.Agg_util.count + 1;
          let x = get row in
          acc.Agg_util.sumi <- acc.Agg_util.sumi + x;
          Agg_util.acc_add_f acc (float_of_int x)
        end
      done
  | GSumF get ->
    fun acc idx k ->
      for t = 0 to k - 1 do
        let row = Array.unsafe_get idx t in
        if valid row then begin
          acc.Agg_util.count <- acc.Agg_util.count + 1;
          Agg_util.acc_add_f acc (get row)
        end
      done
  | GMinI (get, is_min, ty) ->
    fun acc idx k ->
      let c = ref 0 and found = ref false and best = ref 0 in
      for t = 0 to k - 1 do
        let row = Array.unsafe_get idx t in
        if valid row then begin
          incr c;
          let x = get row in
          if not !found then begin
            found := true;
            best := x
          end
          else if (if is_min then x < !best else x > !best) then best := x
        end
      done;
      acc.Agg_util.count <- acc.Agg_util.count + !c;
      if !found then begin
        let v =
          match ty with
          | Value.TDate -> Value.VDate !best
          | _ -> Value.VInt !best
        in
        if is_min then begin
          if
            Value.is_null acc.Agg_util.minv
            || Value.compare_values v acc.Agg_util.minv < 0
          then acc.Agg_util.minv <- v
        end
        else if
          Value.is_null acc.Agg_util.maxv
          || Value.compare_values v acc.Agg_util.maxv > 0
        then acc.Agg_util.maxv <- v
      end
  | GMinF (get, is_min) ->
    fun acc idx k ->
      let c = ref 0 and found = ref false and best = ref 0. in
      for t = 0 to k - 1 do
        let row = Array.unsafe_get idx t in
        if valid row then begin
          incr c;
          let x = get row in
          if not !found then begin
            found := true;
            best := x
          end
          else if (if is_min then x < !best else x > !best) then best := x
        end
      done;
      acc.Agg_util.count <- acc.Agg_util.count + !c;
      if !found then begin
        let v = Value.VFloat !best in
        if is_min then begin
          if
            Value.is_null acc.Agg_util.minv
            || Value.compare_values v acc.Agg_util.minv < 0
          then acc.Agg_util.minv <- v
        end
        else if
          Value.is_null acc.Agg_util.maxv
          || Value.compare_values v acc.Agg_util.maxv > 0
        then acc.Agg_util.maxv <- v
      end

(* ---- dense grouped state (slot-indexed, unboxed) ------------------ *)

(* The fused twin of {!Agg_util.dense}, but reading aggregate arguments
   through compiled expression readers over the base columns instead of a
   materialized chunk column. Same update, merge and finish arithmetic, so
   grouped results match the unfused dense path exactly. *)
type dstate =
  | KCount of int array
  | KSumI of int array * int array (* count, sum *)
  | KSumF of int array * float array * float array (* count, sum, comp *)
  | KMinI of int array * int array * bool (* count, best, is_min *)
  | KMinF of int array * float array * bool

let dstate_create (g : gspec) ~(card : int) : dstate =
  match g.kind with
  | GCount -> KCount (Array.make card 0)
  | GSumI _ -> KSumI (Array.make card 0, Array.make card 0)
  | GAvgI _ | GSumF _ ->
    KSumF (Array.make card 0, Array.make card 0., Array.make card 0.)
  | GMinI (_, is_min, _) -> KMinI (Array.make card 0, Array.make card 0, is_min)
  | GMinF (_, is_min) -> KMinF (Array.make card 0, Array.make card 0., is_min)

(* Per-row slot updater; validity (argument nulls) checked inside, like
   {!Agg_util.dense_update}. *)
let dstate_update (g : gspec) (d : dstate) : int -> int -> unit =
  let valid =
    match g.snulls with
    | [] -> fun _ -> true
    | bss -> fun row -> List.for_all (fun bs -> not (Bitset.get bs row)) bss
  in
  let getf =
    match g.kind with
    | GAvgI get -> fun row -> float_of_int (get row)
    | GSumF get | GMinF (get, _) -> get
    | _ -> fun _ -> 0.
  in
  match d with
  | KCount count ->
    fun slot row -> if valid row then count.(slot) <- count.(slot) + 1
  | KSumI (count, sum) ->
    let get = match g.kind with GSumI get -> get | _ -> fun _ -> 0 in
    fun slot row ->
      if valid row then begin
        count.(slot) <- count.(slot) + 1;
        sum.(slot) <- sum.(slot) + get row
      end
  | KSumF (count, sum, comp) ->
    fun slot row ->
      if valid row then begin
        count.(slot) <- count.(slot) + 1;
        Agg_util.kadd_slot sum comp slot (getf row)
      end
  | KMinI (count, best, is_min) ->
    let get = match g.kind with GMinI (get, _, _) -> get | _ -> fun _ -> 0 in
    fun slot row ->
      if valid row then begin
        let v = get row in
        (if count.(slot) = 0 then best.(slot) <- v
         else if (if is_min then v < best.(slot) else v > best.(slot)) then
           best.(slot) <- v);
        count.(slot) <- count.(slot) + 1
      end
  | KMinF (count, best, is_min) ->
    fun slot row ->
      if valid row then begin
        let v = getf row in
        (if count.(slot) = 0 then best.(slot) <- v
         else if (if is_min then v < best.(slot) else v > best.(slot)) then
           best.(slot) <- v);
        count.(slot) <- count.(slot) + 1
      end

let dstate_merge (a : dstate) (b : dstate) : unit =
  match (a, b) with
  | KCount ca, KCount cb -> Array.iteri (fun k c -> ca.(k) <- ca.(k) + c) cb
  | KSumI (ca, sa), KSumI (cb, sb) ->
    Array.iteri
      (fun k c ->
        if c > 0 then begin
          ca.(k) <- ca.(k) + c;
          sa.(k) <- sa.(k) + sb.(k)
        end)
      cb
  | KSumF (ca, sa, xa), KSumF (cb, sb, xb) ->
    Array.iteri
      (fun k c ->
        if c > 0 then begin
          ca.(k) <- ca.(k) + c;
          Agg_util.kadd_slot sa xa k sb.(k);
          Agg_util.kadd_slot sa xa k xb.(k)
        end)
      cb
  | KMinI (ca, ba, is_min), KMinI (cb, bb, _) ->
    Array.iteri
      (fun k c ->
        if c > 0 then begin
          let v = bb.(k) in
          (if ca.(k) = 0 then ba.(k) <- v
           else if (if is_min then v < ba.(k) else v > ba.(k)) then ba.(k) <- v);
          ca.(k) <- ca.(k) + c
        end)
      cb
  | KMinF (ca, ba, is_min), KMinF (cb, bb, _) ->
    Array.iteri
      (fun k c ->
        if c > 0 then begin
          let v = bb.(k) in
          (if ca.(k) = 0 then ba.(k) <- v
           else if (if is_min then v < ba.(k) else v > ba.(k)) then ba.(k) <- v);
          ca.(k) <- ca.(k) + c
        end)
      cb
  | _ -> invalid_arg "Kernel.dstate_merge: shape mismatch"

(* Mirrors {!Agg_util.dense_finish} (a date min still boxes as VInt there;
   {!Column.of_values} re-types it through the output schema). *)
let dstate_finish (g : gspec) (d : dstate) (slot : int) : Value.t =
  match d with
  | KCount count -> Value.VInt count.(slot)
  | KSumI (count, sum) ->
    if count.(slot) = 0 then Value.VNull else Value.VInt sum.(slot)
  | KSumF (count, sum, comp) ->
    if count.(slot) = 0 then Value.VNull
    else if g.spec.fn = Sql_ast.Avg then
      Value.VFloat ((sum.(slot) +. comp.(slot)) /. float_of_int count.(slot))
    else Value.VFloat (sum.(slot) +. comp.(slot))
  | KMinI (count, best, _) ->
    if count.(slot) = 0 then Value.VNull else Value.VInt best.(slot)
  | KMinF (count, best, _) ->
    if count.(slot) = 0 then Value.VNull else Value.VFloat best.(slot)

(* ---- entry point -------------------------------------------------- *)

(* Run [p] (an Aggregate) as a fused kernel over its base table, or [None]
   when any part of the pipeline falls outside the fused subset — the
   caller then runs its ordinary path. [lookup] resolves the scanned
   relation (and carries the executor's fault injection points with it).
   Grouped fusion reproduces the compiled executor's first-seen emission
   order, which is why only that executor calls in here. *)
let fused_aggregate ~(threads : int) ~(catalog : Catalog.t)
    ~(lookup : string -> Relation.t) (p : plan) :
    Relation.t option =
  if not (fuse_enabled () && Planner.fusible_agg p) then None
  else
    match p.node with
    | Aggregate (sub, groups, specs) -> (
      match peel sub with
      | None -> None
      | Some (name, rw, filters) -> (
        let gidx =
          List.map (fun g -> match rw (PCol g) with PCol b -> b | _ -> -1) groups
        in
        if List.exists (fun b -> b < 0) gidx then None
        else begin
          (* Conjunct order is semantically free (same survivor set, same
             ascending row order into the accumulators), so run the
             estimated-most-selective conjunct first: it becomes the
             branch-free mask stage, and every later test touches only
             its survivors. *)
          let filters = List.concat_map conjuncts filters in
          let filters =
            match Catalog.stats_opt catalog name with
            | Some ts ->
              let lookup i =
                if i >= 0 && i < Array.length ts.Stats.cols then
                  Some ts.Stats.cols.(i)
                else None
              in
              List.stable_sort
                (fun a b ->
                  Float.compare
                    (Planner.pred_selectivity lookup a)
                    (Planner.pred_selectivity lookup b))
                filters
            | None -> filters
          in
          let rel = lookup name in
          let cols = rel.Relation.cols in
          let n = Relation.n_rows rel in
          let bschema = Array.of_list (Relation.schema rel) in
          let specs_arr = Array.of_list specs in
          let gspecs =
            Array.map (resolve_spec cols bschema rw) specs_arr
          in
          if Array.exists Option.is_none gspecs then None
          else begin
            let gspecs = Array.map Option.get gspecs in
            let ztest =
              match filters with
              | [] -> None
              | preds ->
                let zcols = Array.map (Catalog.zones_for catalog) cols in
                if Array.for_all Option.is_none zcols then None
                else Stats.zone_tests_with zcols preds
            in
            let emit out_cols =
              Some
                { Relation.names = Array.map fst p.schema;
                  cols =
                    Array.mapi
                      (fun i (_, ty) -> Column.of_values ty out_cols.(i))
                      p.schema }
            in
            (* Selection cascade: the first conjunct renders branch-free
               into a mask and compacts survivors; the remaining conjuncts
               refine the survivor list with compiled per-row predicates,
               touching their columns only at surviving rows — on selective
               conjunctions this is the difference between one full-column
               scan and one per conjunct. Compiled per worker: fillers own
               their scratch. *)
            let compile_cascade () =
              match filters with
              | [] -> (fill_const true, [])
              | p0 :: rest ->
                ( fst (compile_mask cols p0),
                  List.map (Eval.compile_pred cols) rest )
            in
            (* Survivors of one stride, ascending, into [idx]; returns the
               survivor count. *)
            let collect_stride fill tests m idx ~pos ~slen =
              fill m ~lo:pos ~len:slen;
              let k = ref 0 in
              for j = 0 to slen - 1 do
                if Bytes.unsafe_get m j <> '\000' then begin
                  Array.unsafe_set idx !k (pos + j);
                  incr k
                end
              done;
              List.iter
                (fun test ->
                  let k' = ref 0 in
                  for t = 0 to !k - 1 do
                    let row = Array.unsafe_get idx t in
                    if test row then begin
                      Array.unsafe_set idx !k' row;
                      incr k'
                    end
                  done;
                  k := !k')
                tests;
              !k
            in
            match gidx with
            | [] ->
              (* global aggregate: boxed accs, merged like the compiled
                 executor's unfused fold *)
              let fold_range start len =
                let accs = Array.map (fun g -> Agg_util.create g.spec) gspecs in
                let upds = Array.map gupdate gspecs in
                let fill, tests = compile_cascade () in
                let m = Bytes.create stride in
                let idx = Array.make stride 0 in
                List.iter
                  (fun (lo, hi) ->
                    let pos = ref lo in
                    while !pos <= hi do
                      Guard.check ();
                      Faults.slow_point ~site:"kernel.agg";
                      let slen = min stride (hi - !pos + 1) in
                      let k =
                        collect_stride fill tests m idx ~pos:!pos ~slen
                      in
                      for i = 0 to Array.length gspecs - 1 do
                        upds.(i) accs.(i) idx k
                      done;
                      pos := !pos + slen
                    done)
                  (Stats.alive_ranges ztest start (start + len - 1));
                accs
              in
              let partials =
                if n = 0 then [ fold_range 0 0 ]
                else Parallel.map_chunks ~threads n fold_range
              in
              let accs =
                match partials with
                | [] -> Array.map (fun g -> Agg_util.create g.spec) gspecs
                | first :: rest ->
                  List.iter
                    (fun part ->
                      Array.iteri
                        (fun i spec -> Agg_util.merge spec first.(i) part.(i))
                        specs_arr)
                    rest;
                  first
              in
              emit
                (Array.mapi
                   (fun i spec -> [| Agg_util.finish spec accs.(i) |])
                   specs_arr)
            | gidx -> (
              (* grouped: dense packed-key slots only (wide domains keep the
                 unfused hash path) *)
              match
                Hash_util.dense_domain ~cross_chunk:false ~limit:(1 lsl 16)
                  cols gidx
              with
              | None -> None
              | Some (pack, card) ->
                let n_specs = Array.length gspecs in
                (* first-seen group values go to a key table through the
                   shared dense index ({!Agg_util.dense_see}) *)
                let fold_range start len =
                  let keys =
                    Hash_util.keytab
                      ~size:(min card (Agg_util.size_hint p.est n))
                      cols gidx
                  in
                  let rd =
                    Option.get
                      (Hash_util.reader ~null_as_key:true keys cols gidx)
                  in
                  let dix = Agg_util.dense_index card in
                  let states =
                    Array.map (fun g -> dstate_create g ~card) gspecs
                  in
                  let upds =
                    Array.map2 dstate_update gspecs states
                  in
                  let fill, tests = compile_cascade () in
                  let m = Bytes.create stride in
                  let idx = Array.make stride 0 in
                  List.iter
                    (fun (lo, hi) ->
                      let pos = ref lo in
                      while !pos <= hi do
                        Guard.check ();
                        Faults.slow_point ~site:"kernel.agg";
                        let slen = min stride (hi - !pos + 1) in
                        let kcnt =
                          collect_stride fill tests m idx ~pos:!pos ~slen
                        in
                        for t = 0 to kcnt - 1 do
                          let row = Array.unsafe_get idx t in
                          let k = pack row in
                          Agg_util.dense_see keys dix rd k row;
                          for i = 0 to n_specs - 1 do
                            upds.(i) k row
                          done
                        done;
                        pos := !pos + slen
                      done)
                    (Stats.alive_ranges ztest start (start + len - 1));
                  (keys, dix, states)
                in
                let keys, dix, states, rest =
                  match
                    if n = 0 then [] else Parallel.map_chunks ~threads n fold_range
                  with
                  | [] ->
                    let keys, dix, states = fold_range 0 0 in
                    (keys, dix, states, [])
                  | (keys, dix, states) :: rest -> (keys, dix, states, rest)
                in
                (* partials merge in chunk order, appending unseen groups
                   in their first-seen order *)
                List.iter
                  (fun (kb, db, sb) ->
                    Array.iteri (fun i s -> dstate_merge states.(i) s) sb;
                    Agg_util.dense_merge_keys keys dix kb db)
                  rest;
                let n_groups = List.length gidx in
                let kcols = Hash_util.key_columns keys in
                let n_out = Hash_util.length keys in
                Some
                  { Relation.names = Array.map fst p.schema;
                    cols =
                      Array.mapi
                        (fun i (_, ty) ->
                          if i < n_groups then Agg_util.key_column ty kcols.(i)
                          else
                            let g = gspecs.(i - n_groups)
                            and st = states.(i - n_groups) in
                            Column.of_values ty
                              (Array.init n_out (fun e ->
                                   dstate_finish g st dix.entry_slot.(e))))
                        p.schema })
          end
        end))
    | _ -> None
