(** Fused branch-free filter→aggregate kernels over base-table scans.

    The mid-tier executors evaluate predicates row-at-a-time through
    closures ({!Eval.compile_pred}) over projected chunk columns. This
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
      at surviving rows). What is fused ends there: the survivors, in
      ascending row order, fold through compiled argument readers
      ({!compile_num}) into the executors' own aggregate state — the
      {!Agg_util} slot states for a global aggregate, an {!Agg_util.groups}
      over the dense packed-key domain ({!Hash_util.dense_domain}) for a
      grouped one — which merge and emit as in the unfused compiled path.
      No projected column or intermediate relation ever materializes, and
      the results, low float bits and first-seen group order included,
      are the unfused ones.

    - {b Checkpoints.} Fused loops have no morsel boundaries, so
      {!Guard.check} and a {!Faults.slow_point} run at every [stride]
      boundary, and {!Stats.alive_ranges} drops zone-dead blocks before
      any mask is rendered.

    Caveats: float comparison leaves classify NaN as "equal" (the
    comparison-sign trick); the engine never stores NaN — null payloads
    are finite zeros — so this is unobservable. Compiled fillers carry
    private scratch buffers and must be built on the worker that runs
    them (one [compile] per chunk, like {!Eval.compile_pred}).

    [set_fuse false] disables every fused path: the executors then
    evaluate predicates through closures and feed the same aggregate state
    from projected chunk columns. *)

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

(* The reader of one aggregate argument over the base columns, or [None]
   when it has none (the unfused pipeline handles every shape). A column
   argument reads like the executors' ({!Agg_util.column_arg}); an
   arithmetic one through {!compile_num}, whose [NInt] is exactly
   {!Eval.eval_col} producing an int column, so the slot states take the
   shapes the unfused fold would. Its null set is the union of its
   columns' ({!expr_nulls}). *)
let arg_reader (cols : Column.t array) (rw : pexpr -> pexpr)
    (spec : Plan.agg_spec) : Agg_util.arg option option =
  match spec.arg with
  | None -> Some None
  | Some i -> (
    match rw (PCol i) with
    | PCol b -> Some (Some (Agg_util.column_arg cols.(b)))
    | e -> (
      let reader get =
        Some (Some { Agg_util.get; nulls = expr_nulls cols e; col = None })
      in
      match compile_num cols e with
      | Some (NInt g) -> reader (Agg_util.GInt g)
      | Some (NFloat g) -> reader (Agg_util.GFloat g)
      | None -> None))

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
          let specs_arr = Array.of_list specs in
          let args = Array.map (arg_reader cols rw) specs_arr in
          if Array.exists Option.is_none args then None
          else begin
            let args = Array.map Option.get args in
            let n_specs = Array.length specs_arr in
            let ztest =
              match filters with
              | [] -> None
              | preds ->
                let zcols = Array.map (Catalog.zones_for catalog) cols in
                if Array.for_all Option.is_none zcols then None
                else Stats.zone_tests_with zcols preds
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
            (* Hand the survivors of [start, start+len) to [consume], one
               stride at a time, in ascending row order — the order the
               unfused fold visits them. *)
            let fold_survivors start len consume =
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
                    consume idx
                      (collect_stride fill tests m idx ~pos:!pos ~slen);
                    pos := !pos + slen
                  done)
                (Stats.alive_ranges ztest start (start + len - 1))
            in
            (* one partial per chunk, in chunk order *)
            let partials fold_range =
              if n = 0 then [ fold_range 0 0 ]
              else Parallel.map_chunks ~threads n fold_range
            in
            match gidx with
            | [] -> (
              (* global aggregate: slot 0 of the slot states, merged like
                 the compiled executor's unfused fold *)
              let fold_range start len =
                let st = Agg_util.slot_states specs_arr args ~card:1 in
                let upds = Agg_util.slot_updates specs_arr args st in
                fold_survivors start len (fun idx k ->
                    for i = 0 to n_specs - 1 do
                      let upd = upds.(i) in
                      for t = 0 to k - 1 do
                        upd 0 (Array.unsafe_get idx t)
                      done
                    done);
                st
              in
              match partials fold_range with
              | [] -> None
              | first :: rest ->
                List.iter
                  (fun part ->
                    Array.iteri
                      (fun i spec ->
                        Agg_util.slot_merge spec first.(i) part.(i))
                      specs_arr)
                  rest;
                Some
                  { Relation.names = Array.map fst p.schema;
                    cols =
                      Array.mapi
                        (fun i (_, ty) ->
                          Column.of_values ty
                            [| Agg_util.slot_finish specs_arr.(i) first.(i)
                                 0 |])
                        p.schema })
            | gidx -> (
              (* grouped: dense packed-key grouping only (wide domains keep
                 the unfused hash path) *)
              match
                Hash_util.dense_domain ~cross_chunk:false ~limit:(1 lsl 16)
                  cols gidx
              with
              | None -> None
              | Some (_, card) as dense -> (
                let fold_range start len =
                  let g =
                    Agg_util.groups_create
                      ~size:(Agg_util.size_hint p.est n)
                      ~card specs_arr args cols gidx
                  in
                  let feed = Agg_util.groups_feeder ?dense g args cols gidx in
                  fold_survivors start len (fun idx k ->
                      for t = 0 to k - 1 do
                        feed (Array.unsafe_get idx t)
                      done);
                  g
                in
                (* partials merge in chunk order, appending unseen groups
                   in their first-seen order *)
                match partials fold_range with
                | [] -> None
                | first :: rest ->
                  List.iter (Agg_util.groups_merge first) rest;
                  Some (Agg_util.groups_relation first p.schema)))
          end
        end))
    | _ -> None
