(** Row selection and the fused filter→aggregate source over base columns.

    This module answers one question for both executors and the fused
    aggregate: which rows of [lo, hi] pass these conjuncts?

    - {b Masks.} Predicates render into byte masks (0/1 per row) over a
      fixed [stride] of rows. Comparison leaves over {!Column.ivec} /
      {!Column.fvec} bigarrays are branch-free: the comparison sign indexes
      a 3-byte truth table, so all six operators share one loop shape with
      no data-dependent branch. Dictionary leaves evaluate the string
      predicate once per *distinct* value into a per-code byte table
      (mirroring {!Eval}'s dictionary fast paths), then each row is one
      table load. Conjunctions and disjunctions combine masks with byte
      [land]/[lor] — no short-circuit branches. A predicate with any leaf
      the compiler does not specialize renders no mask at all.

    - {b Selection} ({!selector}, {!select}). Filter conjuncts are
      flattened; the first that renders fully into a mask is rendered per
      stride, and its set bytes compact into a survivor list. The other
      conjuncts refine that list as {!Eval.compile_pred} closures (the
      other maskable ones first, then the rest in written order), then
      the caller's row tests (the bloom prescan). Maskable conjuncts never
      raise, so running them first only ever evaluates another closure on
      fewer rows than written order would. Survivors come out per stride in
      ascending row order. {!select} runs a selector morsel-parallel over
      the zone-alive ranges ({!Stats.alive_ranges}) and returns every
      survivor; the compiled executor's morsel loop and aggregate survivor
      loop call a selector directly.

    - {b Fused aggregation.} For a gated plan ({!Planner.fusible_agg})
      {!fused_source} peels the Filter/Project chain back onto the base
      table ({!Plan.subst_cols}), orders its conjuncts
      estimated-most-selective-first from table statistics
      ({!Planner.pred_selectivity}), and compiles one argument reader per
      aggregate ({!compile_num}); a grouped aggregate also needs a dense
      packed-key domain ({!Hash_util.dense_domain}). That is only a row
      source: the compiled executor runs it through the same survivor loop
      and {!Agg_util} fold as an unfused scan, so no projected column or
      intermediate relation ever materializes, and the results, low float
      bits and first-seen group order included, are the unfused ones.

    - {b Checkpoints.} Selector loops have no morsel boundaries, so
      {!Guard.check} and a {!Faults.slow_point} run at every [stride]
      boundary, and zone-dead blocks drop out before any mask renders.

    Caveats: float comparison leaves classify NaN as "equal" (the
    comparison-sign trick); the engine never stores NaN — null payloads
    are finite zeros — so this is unobservable. Selectors carry private
    scratch buffers and must be built on the worker that runs them (like
    {!Eval.compile_pred} closures).

    Settings [fuse = false] disable masks and the fused source: selectors
    then evaluate every conjunct through closures, and the compiled
    executor feeds the same {!Agg_util} fold from projected chunk columns. *)

open Plan

(* Selection stride: selector loops process this many rows between
   Guard/Faults checkpoints, and it bounds their scratch buffers. *)
let stride = 8192

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

(* Scratch for the second operand of a mask combination: it grows to the
   longest [len] asked for, so short selections allocate short buffers. *)
let scratch_of (r : Bytes.t ref) len =
  if Bytes.length !r < len then r := Bytes.create len;
  !r

let fill_and (fa : filler) (fb : filler) : filler =
  let scratch = ref Bytes.empty in
  fun m ~lo ~len ->
    let sc = scratch_of scratch len in
    fa m ~lo ~len;
    fb sc ~lo ~len;
    for j = 0 to len - 1 do
      Bytes.unsafe_set m j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get m j)
           land Char.code (Bytes.unsafe_get sc j)))
    done

let fill_or (fa : filler) (fb : filler) : filler =
  let scratch = ref Bytes.empty in
  fun m ~lo ~len ->
    let sc = scratch_of scratch len in
    fa m ~lo ~len;
    fb sc ~lo ~len;
    for j = 0 to len - 1 do
      Bytes.unsafe_set m j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get m j)
           lor Char.code (Bytes.unsafe_get sc j)))
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

(* Compile [e] into a mask renderer, or [None] when some leaf has no
   specialized branch-free form: a mask over per-row closures would pay
   mask traffic on top of the closure calls, so such a predicate runs as a
   closure instead. *)
let rec compile_mask (cols : Column.t array) (e : pexpr) : filler option =
  let ( let* ) = Option.bind in
  (* a per-code byte table over a dictionary column's codes *)
  let dict_leaf (c : Column.t) (f : string -> bool) : filler option =
    match c.Column.data with
    | Column.D (codes, d) ->
      Some (with_nulls c (fill_codes_vec codes (code_table d f)))
    | _ -> None
  in
  let cmp_leaf op i (lit : Value.t) : filler option =
    let c = cols.(i) in
    let* tbl = cmp_table op in
    match (c.Column.data, lit) with
    | Column.I v, (Value.VInt k | Value.VDate k) ->
      Some (with_nulls c (fill_cmp_ivec v k tbl))
    | Column.F v, Value.VFloat k -> Some (with_nulls c (fill_cmp_fvec v k tbl))
    | Column.F v, Value.VInt k ->
      Some (with_nulls c (fill_cmp_fvec v (float_of_int k) tbl))
    | Column.D (codes, d), Value.VString k ->
      (* mirror Eval.dict_cmp_pred: Eq/Ne resolve the literal through the
         dictionary index; ordered compares evaluate per distinct *)
      let tbl =
        match op with
        | Sql_ast.Eq | Sql_ast.Ne ->
          let negated = op = Sql_ast.Ne in
          let t = code_table d (fun _ -> negated) in
          Option.iter
            (fun code -> Bytes.set t code (if negated then '\000' else '\001'))
            (Column.dict_find d k);
          t
        | _ ->
          let test = Eval.cmp_test op in
          code_table d (fun v -> test (String.compare v k))
      in
      Some (with_nulls c (fill_codes_vec codes tbl))
    | _ -> None
  in
  match e with
  | PBin (Sql_ast.And, a, b) ->
    let* fa = compile_mask cols a in
    let* fb = compile_mask cols b in
    Some (fill_and fa fb)
  | PBin (Sql_ast.Or, a, b) ->
    let* fa = compile_mask cols a in
    let* fb = compile_mask cols b in
    Some (fill_or fa fb)
  | PNot a when flippable cols a -> Option.map fill_not (compile_mask cols a)
  | PBin
      ( ((Sql_ast.Eq | Sql_ast.Ne | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge) as op),
        PCol i,
        PLit lit ) -> cmp_leaf op i lit
  | PBin
      ( ((Sql_ast.Eq | Sql_ast.Ne | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge) as op),
        PLit lit,
        PCol i ) -> cmp_leaf (Stats.flip_cmp op) i lit
  | PLike (PCol i, pattern, negated) ->
    let matcher = Eval.compile_like pattern in
    dict_leaf cols.(i) (fun v -> matcher v <> negated)
  | PInList (PCol i, items, negated) ->
    dict_leaf cols.(i) (fun v ->
        List.exists (Value.equal_values (Value.VString v)) items <> negated)
  | PIsNull (PCol i, negated) -> (
    match cols.(i).Column.nulls with
    | None -> Some (fill_const negated)
    | Some bs ->
      Some
        (fun m ~lo ~len ->
          for j = 0 to len - 1 do
            Bytes.unsafe_set m j
              (if Bitset.get bs (lo + j) <> negated then '\001' else '\000')
          done))
  | PLit (Value.VBool b) -> Some (fill_const b)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Row selection                                                      *)
(* ------------------------------------------------------------------ *)

(* Flatten an AND tree into its conjuncts, left to right, so a single
   Filter node holding [a AND b AND c] selects like three stacked
   Filters. *)
let rec conjuncts (e : pexpr) : pexpr list =
  match e with
  | PBin (Sql_ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* A survivor routine: [sel ~lo ~hi consume] hands the survivors of rows
   [lo, hi] (inclusive) to [consume idx k] — rows [idx.(0 .. k-1)],
   ascending — one stride at a time. [idx] is the selector's scratch: the
   next stride overwrites it. *)
type selector = lo:int -> hi:int -> (int array -> int -> unit) -> unit

(* Survivor-list stages over one stride. Each writes survivors ascending
   into [idx] from slot 0 and returns their count; none captures its
   counter in a closure, so it stays in a register. *)

(* Rows [p0, p0+len) whose mask byte is set. Branch-free: mask bytes are
   exactly 0 or 1. *)
let compact_mask (m : Bytes.t) (idx : int array) ~p0 ~len : int =
  let k = ref 0 in
  for j = 0 to len - 1 do
    Array.unsafe_set idx !k (p0 + j);
    k := !k + Char.code (Bytes.unsafe_get m j)
  done;
  !k

(* Rows [p0, p0+len) that pass [t]. *)
let compact_test (t : int -> bool) (idx : int array) ~p0 ~len : int =
  let k = ref 0 in
  for row = p0 to p0 + len - 1 do
    if t row then begin
      Array.unsafe_set idx !k row;
      incr k
    end
  done;
  !k

(* The rows of [idx.(0 .. k-1)] that pass [t], in place. *)
let refine_test (idx : int array) (k : int) (t : int -> bool) : int =
  let k' = ref 0 in
  for i = 0 to k - 1 do
    let row = Array.unsafe_get idx i in
    if t row then begin
      Array.unsafe_set idx !k' row;
      incr k'
    end
  done;
  !k'

(* The selector of the conjunction of [preds] and the row [tests]. The
   first conjunct that renders fully into a mask is rendered per stride
   and its set bytes compact into the survivor list; the others refine
   that list as closures: the other maskable conjuncts first, then the
   rest in written order, then [tests]. Refining the survivors of one mask
   is cheaper than rendering and AND-ing a full-stride mask per conjunct.
   With no mask, the first closure runs over every row. Compiled per
   worker: it owns its scratch. *)
let selector ~fuse (cols : Column.t array) (preds : pexpr list)
    (tests : (int -> bool) list) : selector =
  let preds = List.concat_map conjuncts preds in
  let masks, rest =
    if fuse then
      List.partition_map
        (fun p ->
          match compile_mask cols p with
          | Some f -> Left (f, p)
          | None -> Right p)
        preds
    else ([], preds)
  in
  let mask, rest =
    match masks with
    | [] -> (None, rest)
    | (f, _) :: others -> (Some f, List.map snd others @ rest)
  in
  let closures = List.map (Eval.compile_pred cols) rest @ tests in
  let first, refine =
    match (mask, closures) with
    | None, t :: ts -> (Some t, ts)
    | _ -> (None, closures)
  in
  let m = ref Bytes.empty and scratch = ref [||] in
  fun ~lo ~hi consume ->
    let pos = ref lo in
    while !pos <= hi do
      Guard.check ();
      Faults.slow_point ~site:"kernel.select";
      let p0 = !pos in
      let len = min stride (hi - p0 + 1) in
      if Array.length !scratch < len then scratch := Array.make len 0;
      let idx = !scratch in
      let k =
        match (mask, first) with
        | Some fill, _ ->
          let m = scratch_of m len in
          fill m ~lo:p0 ~len;
          compact_mask m idx ~p0 ~len
        | None, Some t -> compact_test t idx ~p0 ~len
        | None, None ->
          for j = 0 to len - 1 do
            Array.unsafe_set idx j (p0 + j)
          done;
          len
      in
      consume idx (List.fold_left (refine_test idx) k refine);
      pos := p0 + len
    done

(* Concatenate per-morsel [(rows, count)] parts in part order. Each part
   blits into its own disjoint region, so the scatter is one parallel work
   item per part. *)
let collect_parts ?(threads = 1) ~grain parts =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 parts in
  let idx = Array.make total 0 in
  let placed, _ =
    List.fold_left
      (fun (placed, off) (rows, count) ->
        ((rows, count, off) :: placed, off + count))
      ([], 0) parts
  in
  ignore
    (Parallel.map_list ~grain ~threads ~rows:total
       (fun (rows, count, off) -> Array.blit rows 0 idx off count)
       (List.rev placed));
  idx

(* The zone-map block test of [preds] over [cols]. Columns of a base-table
   scan (even narrowed zero-copy) are the ingest arrays, so
   {!Catalog.zones_for} recovers their block min/max; gathered columns
   have none. *)
let zone_test (catalog : Catalog.t) (cols : Column.t array)
    (preds : pexpr list) : (int -> bool) option =
  match preds with
  | [] -> None
  | preds ->
    let zcols = Array.map (Catalog.zones_for catalog) cols in
    if Array.for_all Option.is_none zcols then None
    else Stats.zone_tests_with zcols preds

(* Every survivor of rows [0, n) in row order. Zone-dead blocks ([zones])
   are never read. Each morsel of {!Parallel.map_chunks} runs its own
   selector. *)
let select ~(settings : Settings.t) ~threads ?zones (cols : Column.t array)
    (preds : pexpr list) (tests : (int -> bool) list) ~(n : int) :
    int array =
  let grain = settings.grain in
  let run start len =
    let sel = selector ~fuse:settings.fuse cols preds tests in
    let out = Array.make (max 1 len) 0 and count = ref 0 in
    List.iter
      (fun (lo, hi) ->
        sel ~lo ~hi (fun idx k ->
            Array.blit idx 0 out !count k;
            count := !count + k))
      (Stats.alive_ranges zones start (start + len - 1));
    (out, !count)
  in
  collect_parts ~grain ~threads (Parallel.map_chunks ~grain ~threads n run)

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
    | Column.I v -> Some (NInt (fun r -> Bigarray.Array1.unsafe_get v r))
    | Column.F v -> Some (NFloat (fun r -> Bigarray.Array1.unsafe_get v r))
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

(* A fused aggregate's row source: the base table, its filter conjuncts
   (base schema, most selective first), one reader per aggregate argument,
   and the group columns in the base table with their packed-key domain
   (grouped fusion is dense only). *)
type fused = {
  rel : Relation.t;
  filters : pexpr list;
  args : Agg_util.arg option array;
  gidx : int list;
  dense : ((int -> int) * int) option;
}

(* The fused source of [p] (an Aggregate), or [None] when any part of the
   pipeline falls outside the fused subset — the caller then aggregates
   its ordinary input. [lookup] resolves the scanned relation (and carries
   the executor's fault injection points with it). Grouped fusion keeps
   the compiled executor's first-seen emission order, which is why only
   that executor calls in here. *)
let fused_source ~fuse ~(catalog : Catalog.t)
    ~(lookup : string -> Relation.t) (p : plan) : fused option =
  let ( let* ) = Option.bind in
  let* sub, groups, specs =
    match p.node with
    | Aggregate (sub, groups, specs) when fuse && Planner.fusible_agg p ->
      Some (sub, groups, specs)
    | _ -> None
  in
  let* name, rw, filters = peel sub in
  let gidx =
    List.map (fun g -> match rw (PCol g) with PCol b -> b | _ -> -1) groups
  in
  if List.exists (fun b -> b < 0) gidx then None
  else begin
    (* Conjunct order is semantically free (same survivor set, same
       ascending row order into the accumulators), so order them
       estimated-most-selective-first: the closure conjuncts refine the
       survivor list in this order, each touching only the rows the ones
       before it kept. *)
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
    let args = Array.map (arg_reader cols rw) (Array.of_list specs) in
    if Array.exists Option.is_none args then None
    else
      (* grouped: dense packed-key grouping only (wide domains keep the
         unfused hash path) *)
      match
        Hash_util.dense_domain ~cross_chunk:false ~limit:(1 lsl 16) cols gidx
      with
      | None when gidx <> [] -> None
      | dense ->
        Some { rel; filters; args = Array.map Option.get args; gidx; dense }
  end
