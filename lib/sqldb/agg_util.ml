(** The one aggregate state of the engine and the one way to run it: the
    accumulators and group tables that both executors, the fused kernels
    ({!Kernel}) and the views ({!Matview}) fold through, and the fold,
    merge and emit of per-range partials ({!fold}, {!emit}) that every
    aggregate operator runs. The executors only say where the rows come
    from, and whether they bring each group as one run ({!in_runs}): a
    DISTINCT aggregate over an int argument then folds run by run through
    a small per-run set, and every other DISTINCT aggregate probes a key
    table of (group, value) pairs. *)

open Value

(* Neumaier compensated summation. Float sums are accumulated as
   (total, compensation) pairs: each add also recovers the low-order bits
   the naive add drops, so the finished sum is exact to ~1 ulp of the
   total *regardless of association order*. This is what keeps chunked
   and radix-partitioned partial sums bit-stable against the serial
   single-threaded baseline after output rounding — naive partial sums
   drift by chunk-count-dependent amounts (~1e-3 absolute on a 1e5-row
   1e8-magnitude TPC-H q1 aggregate), enough to flip a rounded digit. *)
type ksum = { mutable total : float; mutable comp : float }

let ksum () = { total = 0.; comp = 0. }

(* The compensation recovered when adding [x] to a running total [s],
   where [t = s +. x]. This is THE Neumaier step: every compensated
   accumulator in the engine (ksum, boxed acc, dense slot arrays) goes
   through this one function, so chunked, radix-partitioned, fused and
   view sums all round identically. *)
let[@inline] comp_step s x t =
  if Float.abs s >= Float.abs x then (s -. t) +. x else (x -. t) +. s

let kadd (k : ksum) (x : float) =
  let s = k.total in
  let t = s +. x in
  k.comp <- k.comp +. comp_step s x t;
  k.total <- t

let kfinish (k : ksum) = k.total +. k.comp

(* Compensated add into a (sum, comp) float-array slot pair — the unboxed
   accumulator shape of the slot states below (float stores into float
   arrays don't box, unlike record fields). *)
let[@inline] kadd_slot (sum : float array) (comp : float array) k x =
  let s = Array.unsafe_get sum k in
  let t = s +. x in
  Array.unsafe_set comp k (Array.unsafe_get comp k +. comp_step s x t);
  Array.unsafe_set sum k t

(* ------------------------------------------------------------------ *)
(* Argument readers                                                   *)
(* ------------------------------------------------------------------ *)

(* An aggregate's argument as a per-row reader. The executors build it from
   the argument column ({!column_arg}); the fused kernels ({!Kernel}) from
   a compiled arithmetic expression over base columns. Either way the
   accumulators below see the same values in the same row order, so every
   path folds through the same arithmetic. *)
type getter =
  | GInt of (int -> int)
  | GFloat of (int -> float)
  | GBoxed of (int -> Value.t) (* strings, bools: boxed accumulators *)

type arg = {
  get : getter;
  nulls : Bitset.t list; (* their union is the argument's null set *)
  col : Column.t option; (* the argument column: keys a DISTINCT set *)
}

let column_arg (c : Column.t) : arg =
  { get =
      (match (Column.int_reader c, Column.float_reader c) with
      | Some g, _ -> GInt g
      | None, Some g -> GFloat g
      | None, None -> GBoxed (Column.get c));
    nulls = Option.to_list c.Column.nulls;
    col = Some c }

(* One reader per spec over [cols]; [None] for COUNT( * ). *)
let column_args (specs : Plan.agg_spec array) (cols : Column.t array) :
    arg option array =
  Array.map
    (fun (s : Plan.agg_spec) -> Option.map (fun i -> column_arg cols.(i)) s.arg)
    specs

(* A NULL argument row contributes neither to the count nor to the body. *)
let valid_row (a : arg option) : int -> bool =
  match a with
  | None | Some { nulls = []; _ } -> fun _ -> true
  | Some { nulls = [ b ]; _ } -> fun row -> not (Bitset.get b row)
  | Some { nulls; _ } ->
    fun row -> not (List.exists (fun b -> Bitset.get b row) nulls)

let int_get (a : arg option) : int -> int =
  match a with
  | Some { get = GInt g; _ } -> g
  | _ -> invalid_arg "Agg_util: argument is not an int reader"

let float_get (a : arg option) : int -> float =
  match a with
  | Some { get = GFloat g; _ } -> g
  | Some { get = GInt g; _ } -> fun row -> float_of_int (g row)
  | _ -> invalid_arg "Agg_util: argument is not a numeric reader"

(* ------------------------------------------------------------------ *)
(* Boxed accumulators                                                 *)
(* ------------------------------------------------------------------ *)

(* The fallback state of the shapes without an unboxed one below: MIN/MAX
   over strings, and aggregates over bool columns. *)
type acc = {
  mutable count : int; (* rows contributing (non-null for arg aggregates) *)
  mutable sumi : int;
  mutable sumf : float;
  mutable sumc : float; (* compensation term of [sumf] *)
  mutable minv : Value.t;
  mutable maxv : Value.t;
}

(* Boxed accumulators hold no DISTINCT state: the caller filters the rows
   of a distinct aggregate first (through a [slot_state] [SDistinct] or
   [SRun] set) and updates with the [plain] spec. *)
let create (_ : Plan.agg_spec) : acc =
  { count = 0; sumi = 0; sumf = 0.; sumc = 0.; minv = VNull; maxv = VNull }

(* Compensated [acc.sumf <- acc.sumf +. x]. *)
let acc_add_f (acc : acc) (x : float) =
  let s = acc.sumf in
  let t = s +. x in
  acc.sumc <- acc.sumc +. comp_step s x t;
  acc.sumf <- t

let acc_sum_f (acc : acc) = acc.sumf +. acc.sumc

(* Per-row updater of a boxed accumulator: count before body, NULL rows
   skip both. *)
let boxed_update (spec : Plan.agg_spec) (a : arg option) : acc -> int -> unit =
  let valid = valid_row a in
  let get =
    match a with
    | None -> fun _ -> VNull
    | Some { get = GInt g; _ } -> fun row -> VInt (g row)
    | Some { get = GFloat g; _ } -> fun row -> VFloat (g row)
    | Some { get = GBoxed g; _ } -> g
  in
  fun acc row ->
    if valid row then begin
      acc.count <- acc.count + 1;
      match spec.fn with
      | Sql_ast.Count | Sql_ast.CountStar -> ()
      | Sql_ast.Sum | Sql_ast.Avg -> (
        (* a bool adds its 0/1 like an int: SUM over it is an int *)
        match get row with
        | (VInt _ | VBool _) as v ->
          let x = Value.as_int v in
          acc.sumi <- acc.sumi + x;
          if spec.fn = Sql_ast.Avg then acc_add_f acc (float_of_int x)
        | v -> acc_add_f acc (Value.as_float v))
      | Sql_ast.Min ->
        let v = get row in
        if Value.is_null acc.minv || Value.compare_values v acc.minv < 0 then
          acc.minv <- v
      | Sql_ast.Max ->
        let v = get row in
        if Value.is_null acc.maxv || Value.compare_values v acc.maxv > 0 then
          acc.maxv <- v
    end

let merge (spec : Plan.agg_spec) (a : acc) (b : acc) =
  a.count <- a.count + b.count;
  a.sumi <- a.sumi + b.sumi;
  acc_add_f a b.sumf;
  acc_add_f a b.sumc;
  match spec.fn with
  | Sql_ast.Min ->
    if
      Value.is_null a.minv
      || ((not (Value.is_null b.minv)) && Value.compare_values b.minv a.minv < 0)
    then a.minv <- b.minv
  | Sql_ast.Max ->
    if
      Value.is_null a.maxv
      || ((not (Value.is_null b.maxv)) && Value.compare_values b.maxv a.maxv > 0)
    then a.maxv <- b.maxv
  | _ -> ()

let finish (spec : Plan.agg_spec) (acc : acc) : Value.t =
  match spec.fn with
  | Sql_ast.Count | Sql_ast.CountStar -> VInt acc.count
  | Sql_ast.Avg ->
    if acc.count = 0 then VNull
    else VFloat (acc_sum_f acc /. float_of_int acc.count)
  | Sql_ast.Sum ->
    if acc.count = 0 then VNull
    else if spec.out_ty = TInt then VInt acc.sumi
    else VFloat (acc_sum_f acc)
  | Sql_ast.Min -> acc.minv
  | Sql_ast.Max -> acc.maxv

(* ------------------------------------------------------------------ *)
(* Unboxed slot-indexed accumulators                                  *)
(* ------------------------------------------------------------------ *)

(* Grouping keeps one accumulator per group slot: a packed key in dense
   aggregation, a key-table group id in hash aggregation, slot 0 in a
   global aggregate. The boxed [acc] costs a 6-field record per (slot,
   spec) plus a [Value.t] box per min/max update; for the numeric shapes
   the state is instead a pair of unboxed [int array]/[float array]
   columns indexed by slot — no allocation on the update path at all. The
   slot arrays persist while the argument readers are rebuilt per chunk;
   the shape follows the reader's kind (int or float), which every chunk
   of one input shares. *)
type dense =
  | DCount of int array
  | DSumI of { count : int array; sum : int array }
  | DSumF of { count : int array; sum : float array; comp : float array }
  | DMinMaxI of { count : int array; best : int array; is_min : bool }
  | DMinMaxF of { count : int array; best : float array; is_min : bool }

(* [None] when this spec/argument shape has no unboxed representation. *)
let dense_create (spec : Plan.agg_spec) (a : arg option) ~(card : int) :
    dense option =
  let sum_f () =
    DSumF
      { count = Array.make card 0;
        sum = Array.make card 0.;
        comp = Array.make card 0. }
  in
  match (spec.fn, a) with
  | _, None | (Sql_ast.Count | Sql_ast.CountStar), _ ->
    Some (DCount (Array.make card 0))
  | Sql_ast.Sum, Some { get = GInt _; _ } when spec.out_ty = TInt ->
    Some (DSumI { count = Array.make card 0; sum = Array.make card 0 })
  | Sql_ast.Sum, Some { get = GFloat _; _ } when spec.out_ty <> TInt ->
    Some (sum_f ())
  | Sql_ast.Avg, Some { get = GInt _ | GFloat _; _ } -> Some (sum_f ())
  | (Sql_ast.Min | Sql_ast.Max), Some { get = GInt _; _ } ->
    Some
      (DMinMaxI
         { count = Array.make card 0;
           best = Array.make card 0;
           is_min = spec.fn = Sql_ast.Min })
  | (Sql_ast.Min | Sql_ast.Max), Some { get = GFloat _; _ } ->
    Some
      (DMinMaxF
         { count = Array.make card 0;
           best = Array.make card 0.;
           is_min = spec.fn = Sql_ast.Min })
  | _ -> None

(* Per-chunk updater [fun slot row -> ...] through this chunk's reader.
   Must only be called with a [dense] created for the same spec. MIN/MAX
   keep the first of equal values (strict compares). *)
let dense_update (a : arg option) (d : dense) : int -> int -> unit =
  let valid = valid_row a in
  match d with
  | DCount count ->
    fun slot row -> if valid row then count.(slot) <- count.(slot) + 1
  | DSumI { count; sum } ->
    let geti = int_get a in
    fun slot row ->
      if valid row then begin
        count.(slot) <- count.(slot) + 1;
        sum.(slot) <- sum.(slot) + geti row
      end
  | DSumF { count; sum; comp } ->
    let getf = float_get a in
    fun slot row ->
      if valid row then begin
        count.(slot) <- count.(slot) + 1;
        kadd_slot sum comp slot (getf row)
      end
  | DMinMaxI { count; best; is_min } ->
    let geti = int_get a in
    fun slot row ->
      if valid row then begin
        let v = geti row in
        (if count.(slot) = 0 then best.(slot) <- v
         else if (if is_min then v < best.(slot) else v > best.(slot)) then
           best.(slot) <- v);
        count.(slot) <- count.(slot) + 1
      end
  | DMinMaxF { count; best; is_min } ->
    let getf = float_get a in
    fun slot row ->
      if valid row then begin
        let v = getf row in
        (if count.(slot) = 0 then best.(slot) <- v
         else if (if is_min then v < best.(slot) else v > best.(slot)) then
           best.(slot) <- v);
        count.(slot) <- count.(slot) + 1
      end

(* A fresh copy of every slot array of [d] extended to [card] slots (hash
   aggregation grows its states as the key table hands out new group ids;
   a view copies its state before a refresh). *)
let extend (a : 'a array) (card : int) (fill : 'a) : 'a array =
  let b = Array.make card fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let dense_grow (d : dense) (card : int) : dense =
  match d with
  | DCount count -> DCount (extend count card 0)
  | DSumI { count; sum } ->
    DSumI { count = extend count card 0; sum = extend sum card 0 }
  | DSumF { count; sum; comp } ->
    DSumF
      { count = extend count card 0;
        sum = extend sum card 0.;
        comp = extend comp card 0. }
  | DMinMaxI { count; best; is_min } ->
    DMinMaxI { count = extend count card 0; best = extend best card 0; is_min }
  | DMinMaxF { count; best; is_min } ->
    DMinMaxF { count = extend count card 0; best = extend best card 0.; is_min }

(* Slotwise merge of [b] into [a]; both must come from the same
   [dense_create] call site (same spec). Slot [k] of [b] folds into slot
   [remap.(k)] of [a] (the identity without [remap]). *)
let dense_merge ?remap (a : dense) (b : dense) : unit =
  let at = match remap with None -> Fun.id | Some m -> Array.get m in
  (* [f k c] for every slot [k] of [b] (every remapped one) with [c]
     contributing rows *)
  let slots count f =
    let n = match remap with None -> Array.length count | Some m -> Array.length m in
    for k = 0 to n - 1 do
      let c = count.(k) in
      if c > 0 then f k c
    done
  in
  match (a, b) with
  | DCount ca, DCount cb -> slots cb (fun k c -> let t = at k in ca.(t) <- ca.(t) + c)
  | DSumI a, DSumI b ->
    slots b.count (fun k c ->
        let t = at k in
        a.count.(t) <- a.count.(t) + c;
        a.sum.(t) <- a.sum.(t) + b.sum.(k))
  | DSumF a, DSumF b ->
    slots b.count (fun k c ->
        let t = at k in
        a.count.(t) <- a.count.(t) + c;
        kadd_slot a.sum a.comp t b.sum.(k);
        kadd_slot a.sum a.comp t b.comp.(k))
  | DMinMaxI a, DMinMaxI b ->
    slots b.count (fun k c ->
        let t = at k and v = b.best.(k) in
        (if a.count.(t) = 0 then a.best.(t) <- v
         else if (if a.is_min then v < a.best.(t) else v > a.best.(t)) then
           a.best.(t) <- v);
        a.count.(t) <- a.count.(t) + c)
  | DMinMaxF a, DMinMaxF b ->
    slots b.count (fun k c ->
        let t = at k and v = b.best.(k) in
        (if a.count.(t) = 0 then a.best.(t) <- v
         else if (if a.is_min then v < a.best.(t) else v > a.best.(t)) then
           a.best.(t) <- v);
        a.count.(t) <- a.count.(t) + c)
  | _ -> invalid_arg "Agg_util.dense_merge: shape mismatch"

let dense_finish (spec : Plan.agg_spec) (d : dense) (slot : int) : Value.t =
  match d with
  | DCount count -> VInt count.(slot)
  | DSumI { count; sum } -> if count.(slot) = 0 then VNull else VInt sum.(slot)
  | DSumF { count; sum; comp } ->
    if count.(slot) = 0 then VNull
    else if spec.fn = Sql_ast.Avg then
      VFloat ((sum.(slot) +. comp.(slot)) /. float_of_int count.(slot))
    else VFloat (sum.(slot) +. comp.(slot))
  | DMinMaxI { count; best; _ } ->
    if count.(slot) = 0 then VNull else VInt best.(slot)
  | DMinMaxF { count; best; _ } ->
    if count.(slot) = 0 then VNull else VFloat best.(slot)

(* ------------------------------------------------------------------ *)
(* Per-run distinct sets                                              *)
(* ------------------------------------------------------------------ *)

(* The distinct int argument values of the current run of one group slot,
   for a fold whose groups each arrive as one contiguous run of rows
   ({!fold}'s [~clustered]): a slot change clears the set, so it never
   holds more than one group's values. The first [run_linear] values are
   searched linearly; past that an open-addressing table of positions in
   [vals] indexes them. Clearing costs O(values held), never O(table), so
   neither a long run nor many short ones make the fold quadratic. *)
type runset = {
  mutable slot : int; (* the run's group slot; -1 before the first row *)
  mutable len : int; (* values in [vals] *)
  mutable vals : int array;
  mutable cells : int array;
      (* 1 + a position in [vals], 0 when empty; indexes [vals] only while
         [len > run_linear], in a power-of-two length above [2 len] *)
}

let run_linear = 16

let runset () =
  { slot = -1; len = 0; vals = Array.make (2 * run_linear) 0; cells = [||] }

(* The empty cell for [v], or the cell holding it. *)
let[@inline] run_cell (r : runset) v =
  let mask = Array.length r.cells - 1 in
  let j = ref (Value.hash_int v land mask) in
  while
    let c = Array.unsafe_get r.cells !j in
    c <> 0 && Array.unsafe_get r.vals (c - 1) <> v
  do
    j := (!j + 1) land mask
  done;
  !j

(* Index [vals.(0 .. len-1)] into [cells], which must be empty. *)
let run_index (r : runset) cells =
  r.cells <- cells;
  for i = 0 to r.len - 1 do
    cells.(run_cell r r.vals.(i)) <- i + 1
  done

(* Start the run of [slot]: empty the cells [vals] occupies, latest value
   first, so the cells on each value's probe path (all taken by earlier
   values) are still full when it is looked up. *)
let runset_reset (r : runset) slot =
  if r.len > run_linear then
    for i = r.len - 1 downto 0 do
      r.cells.(run_cell r r.vals.(i)) <- 0
    done;
  r.len <- 0;
  r.slot <- slot

(* Add [v] to the run; [true] when it was not there. *)
let runset_add (r : runset) v =
  let len = r.len in
  let fresh =
    if len <= run_linear then begin
      let i = ref 0 in
      while !i < len && Array.unsafe_get r.vals !i <> v do
        incr i
      done;
      !i = len
    end
    else Array.unsafe_get r.cells (run_cell r v) = 0
  in
  if fresh then begin
    if len = Array.length r.vals then r.vals <- extend r.vals (2 * len) 0;
    Array.unsafe_set r.vals len v;
    r.len <- len + 1;
    if len = run_linear then
      (* a reset left the cells of earlier runs empty *)
      run_index r
        (if Array.length r.cells >= 64 then r.cells else Array.make 64 0)
    else if len > run_linear then begin
      if 2 * (len + 1) >= Array.length r.cells then
        run_index r (Array.make (2 * Array.length r.cells) 0)
      else r.cells.(run_cell r v) <- len + 1
    end
  end;
  fresh

(* Mixed per-spec slot state: unboxed where the shape allows, lazily
   created boxed accumulators elsewhere — both behind the same
   [fun slot row -> unit] updater built per chunk. A DISTINCT aggregate
   feeds a row to its plain twin's state only when its argument value is
   new to its group. When each group's rows arrive as one run and the
   argument is an int, a per-run set ([SRun]) decides that; otherwise one
   key-table set over (slot, argument value) does ([SDistinct]): it serves
   every other shape (unclustered, nullable or multi-column keys, float,
   string and bool arguments) and the views, which feed groups in any
   order. *)
type slot_state =
  | SDense of dense
  | SBoxed of acc option array
  | SDistinct of { set : Hash_util.keytab; inner : slot_state }
  | SRun of { run : runset; inner : slot_state }

let plain (spec : Plan.agg_spec) = { spec with Plan.distinct = false }

(* The argument column a DISTINCT set keys on. *)
let distinct_col (a : arg option) : Column.t =
  match a with
  | Some { col = Some c; _ } -> c
  | _ -> invalid_arg "Agg_util: DISTINCT needs its argument column"

let rec slot_state ~clustered (spec : Plan.agg_spec) (a : arg option)
    ~(card : int) : slot_state =
  match a with
  | Some { get = GInt _; _ } when spec.distinct && clustered ->
    SRun { run = runset (); inner = slot_state ~clustered (plain spec) a ~card }
  | Some _ when spec.distinct ->
    SDistinct
      { set =
          Hash_util.keytab ~size:card ~tagged:true [| distinct_col a |] [ 0 ];
        inner = slot_state ~clustered (plain spec) a ~card }
  | _ -> (
    match dense_create spec a ~card with
    | Some d -> SDense d
    | None -> SBoxed (Array.make card None))

let slot_states ~clustered (specs : Plan.agg_spec array)
    (args : arg option array) ~(card : int) : slot_state array =
  Array.mapi (fun i spec -> slot_state ~clustered spec args.(i) ~card) specs

let rec slot_grow (st : slot_state) (card : int) : slot_state =
  match st with
  | SDense d -> SDense (dense_grow d card)
  | SBoxed accs -> SBoxed (extend accs card None)
  | SDistinct { set; inner } -> SDistinct { set; inner = slot_grow inner card }
  | SRun { run; inner } -> SRun { run; inner = slot_grow inner card }

(* A deep copy of [st] over [card] slots (at least its own). Only the
   views copy their state, and they never fold in runs. *)
let rec slot_copy (st : slot_state) (card : int) : slot_state =
  match st with
  | SDense d -> SDense (dense_grow d card)
  | SBoxed accs ->
    let copy (a : acc) = { a with count = a.count } in
    SBoxed (extend (Array.map (Option.map copy) accs) card None)
  | SDistinct { set; inner } ->
    SDistinct { set = Hash_util.copy set; inner = slot_copy inner card }
  | SRun _ -> invalid_arg "Agg_util.slot_copy: per-run state"

let rec slot_update (spec : Plan.agg_spec) (a : arg option) (st : slot_state) :
    int -> int -> unit =
  match st with
  | SDense d -> dense_update a d
  | SBoxed accs ->
    let upd = boxed_update spec a in
    fun slot row ->
      let acc =
        match accs.(slot) with
        | Some acc -> acc
        | None ->
          let acc = create spec in
          accs.(slot) <- Some acc;
          acc
      in
      upd acc row
  | SDistinct { set; inner } ->
    let cur = ref 0 in
    let rd =
      match
        Hash_util.reader ~tag:(fun _ -> !cur) ~null_as_key:true set
          [| distinct_col a |] [ 0 ]
      with
      | Some rd -> rd
      | None -> invalid_arg "Agg_util: DISTINCT argument changed layout"
    in
    let upd = slot_update (plain spec) a inner and valid = valid_row a in
    fun slot row ->
      if valid row then begin
        cur := slot;
        let before = Hash_util.length set in
        if Hash_util.add set rd row = before then upd slot row
      end
  | SRun { run; inner } ->
    let geti = int_get a and valid = valid_row a in
    let upd = slot_update (plain spec) a inner in
    fun slot row ->
      if valid row then begin
        if slot <> run.slot then runset_reset run slot;
        if runset_add run (geti row) then upd slot row
      end

let slot_updates (specs : Plan.agg_spec array) (args : arg option array)
    (sts : slot_state array) : (int -> int -> unit) array =
  Array.mapi (fun i spec -> slot_update spec args.(i) sts.(i)) specs

(* Fold [b] into [a], slot [k] of [b] into slot [remap.(k)] of [a]. A
   DISTINCT state does not merge: the executors aggregate distinct specs
   as one input range. *)
let slot_merge ?remap (spec : Plan.agg_spec) (a : slot_state) (b : slot_state)
    : unit =
  match (a, b) with
  | SDense da, SDense db -> dense_merge ?remap da db
  | SBoxed aa, SBoxed ba ->
    let n = match remap with None -> Array.length ba | Some m -> Array.length m in
    for k = 0 to n - 1 do
      match ba.(k) with
      | None -> ()
      | Some acc_b -> (
        let t = match remap with None -> k | Some m -> m.(k) in
        match aa.(t) with
        | None -> aa.(t) <- Some acc_b
        | Some acc_a -> merge spec acc_a acc_b)
    done
  | (SDistinct _ | SRun _), _ ->
    invalid_arg "Agg_util.slot_merge: DISTINCT state"
  | _ -> invalid_arg "Agg_util.slot_merge: shape mismatch"

let rec slot_finish (spec : Plan.agg_spec) (st : slot_state) (slot : int) :
    Value.t =
  match st with
  | SDense d -> dense_finish spec d slot
  | SBoxed accs -> (
    match accs.(slot) with
    | Some a -> finish spec a
    | None -> finish spec (create spec))
  | SDistinct { inner; _ } | SRun { inner; _ } ->
    (* the inner state's finish never reads [distinct]: no [plain] copy
       of the spec per group *)
    slot_finish spec inner slot

(* ------------------------------------------------------------------ *)
(* GROUP BY                                                           *)
(* ------------------------------------------------------------------ *)

(* Grouped aggregation state, shared by both executors, the fused kernels
   and the views ({!Matview}). The key table holds one entry per group in
   first-seen order, with the group's key values copied into its unboxed
   columns — those become the output group columns. The slot states above
   hold the accumulators. Hashed grouping indexes them by entry id; dense
   grouping (a small packed key domain, {!Hash_util.dense_domain}) indexes
   them by packed key, and touches the key table only once per new group.
   Over no key columns, grouping is a global aggregate: one group in slot
   0, updated with no key-table probe, which {!groups_relation} emits even
   over no input. *)

(* Dense grouping's key capture: packed key -> key-table entry holding the
   group's values, and back. *)
type dense_index = {
  slot_entry : int array; (* packed key -> entry, -1 while unseen *)
  entry_slot : int array; (* entry -> packed key *)
}

let dense_index card =
  { slot_entry = Array.make card (-1); entry_slot = Array.make card 0 }

(* Note packed key [k] of [row]; its first sight copies the key values into
   [keys] ([rd] reads the row's key columns). *)
let[@inline] dense_see keys (d : dense_index) rd k row =
  if Array.unsafe_get d.slot_entry k < 0 then begin
    let e = Hash_util.add keys rd row in
    d.slot_entry.(k) <- e;
    d.entry_slot.(e) <- k
  end

(* Append the packed keys of [kb]/[db] unseen by [ka]/[da], in their
   first-seen order. *)
let dense_merge_keys ka (da : dense_index) kb (db : dense_index) =
  let cols = Hash_util.key_columns kb in
  let idxs = List.init (Array.length cols) Fun.id in
  let rd = Option.get (Hash_util.reader ~null_as_key:true ka cols idxs) in
  for e = 0 to Hash_util.length kb - 1 do
    dense_see ka da rd db.entry_slot.(e) e
  done

(* An output group column of type [ty] from a key-table column. *)
let key_column ty (c : Column.t) =
  if c.Column.ty = ty then c
  else Column.of_values ty (Array.init (Column.length c) (Column.get c))

type groups = {
  keys : Hash_util.keytab;
  specs : Plan.agg_spec array;
  mutable states : slot_state array;
  mutable cap : int; (* slots allocated in [states] *)
  dense : dense_index option;
}

(* Expected groups among [rows] input rows from the planner's estimate
   [est] (0 when there is none). *)
let size_hint (est : float) (rows : int) =
  if est >= 1. then int_of_float (Float.min est (float_of_int rows)) else 16

(* No key columns: a global aggregate. *)
let global (g : groups) = Array.length g.keys.Hash_util.comps = 0

(* Hashed grouping sized for [size] groups (it grows past that), or dense
   grouping over a packed domain of [card] keys; a global aggregate keeps
   slot 0 only. Key columns [idxs] of [cols] and the argument readers
   [args] fix the layouts every later chunk must share. [clustered] says
   each group's rows will arrive as one run ({!in_runs}): DISTINCT specs
   over int arguments then keep a per-run set instead of the key-table
   set. Only {!fold} passes it; the views feed groups in any order. *)
let groups_make ~size ?card ~clustered (specs : Plan.agg_spec array)
    (args : arg option array) (cols : Column.t array) (idxs : int list) :
    groups =
  let size = max 16 size in
  match (idxs, card) with
  | [], _ ->
    { keys = Hash_util.keytab cols [];
      specs;
      states = slot_states ~clustered specs args ~card:1;
      cap = 1;
      dense = None }
  | _, Some card ->
    { keys = Hash_util.keytab ~size:(min card size) cols idxs;
      specs;
      states = slot_states ~clustered specs args ~card;
      cap = card;
      dense = Some (dense_index card) }
  | _, None ->
    { keys = Hash_util.keytab ~size cols idxs;
      specs;
      states = slot_states ~clustered specs args ~card:size;
      cap = size;
      dense = None }

let groups_create ?(size = 16) ?card specs args cols idxs =
  groups_make ~size ?card ~clustered:false specs args cols idxs

(* A deep copy: feeding it leaves [g] as it was. *)
let groups_copy (g : groups) : groups =
  { g with
    keys = Hash_util.copy g.keys;
    states = Array.map (fun st -> slot_copy st g.cap) g.states;
    dense =
      Option.map
        (fun d ->
          { slot_entry = Array.copy d.slot_entry;
            entry_slot = Array.copy d.entry_slot })
        g.dense }

let groups_count (g : groups) = Hash_util.length g.keys

let groups_reserve (g : groups) (n : int) =
  if n > g.cap then begin
    let cap = max n (2 * g.cap) in
    g.states <- Array.map (fun st -> slot_grow st cap) g.states;
    g.cap <- cap
  end

(* Row consumer over [cols]: find or insert the row's group, then update
   every accumulator through this chunk's argument readers [args]. Build
   one per chunk; the consumers of one [groups] run one after another.
   Dense grouping takes this chunk's packed-key function [dense]
   ({!Hash_util.dense_domain}), which must span the same domain as at
   creation; a global aggregate ignores it. *)
let groups_feeder ?dense (g : groups) (args : arg option array)
    (cols : Column.t array) (idxs : int list) : int -> unit =
  let rd =
    match Hash_util.reader ~null_as_key:true g.keys cols idxs with
    | Some rd -> rd
    | None -> invalid_arg "Agg_util.groups_feeder: key layout changed"
  in
  let n_specs = Array.length g.specs in
  match (g.dense, dense) with
  | _ when global g ->
    let upds = slot_updates g.specs args g.states in
    fun row ->
      for i = 0 to n_specs - 1 do
        (Array.unsafe_get upds i) 0 row
      done
  | Some d, Some (pack, card) when card = Array.length d.slot_entry ->
    let upds = slot_updates g.specs args g.states in
    fun row ->
      let k = pack row in
      dense_see g.keys d rd k row;
      for i = 0 to n_specs - 1 do
        (Array.unsafe_get upds i) k row
      done
  | Some _, _ -> invalid_arg "Agg_util.groups_feeder: packed domain changed"
  | None, _ ->
    let states = ref g.states in
    let upds = ref (slot_updates g.specs args g.states) in
    fun row ->
      let gid = Hash_util.add g.keys rd row in
      if gid >= g.cap then groups_reserve g (gid + 1);
      if !states != g.states then begin
        states := g.states;
        upds := slot_updates g.specs args g.states
      end;
      let u = !upds in
      for i = 0 to n_specs - 1 do
        (Array.unsafe_get u i) gid row
      done

(* Fold [b]'s groups into [a] in [b]'s first-seen order: groups new to [a]
   append after [a]'s own, so merging the partials of consecutive input
   ranges in order keeps the global first-seen order; a global aggregate
   merges slot 0. Both must come from the same [groups_create] call site. *)
let groups_merge (a : groups) (b : groups) : unit =
  let merge ?remap () =
    Array.iteri
      (fun i spec -> slot_merge ?remap spec a.states.(i) b.states.(i))
      a.specs
  in
  let nb = groups_count b in
  if global a then merge ()
  else if nb > 0 then begin
    match (a.dense, b.dense) with
    | Some da, Some db ->
      dense_merge_keys a.keys da b.keys db;
      merge ()
    | None, None ->
      let cols = Hash_util.key_columns b.keys in
      let idxs = List.init (Array.length cols) Fun.id in
      let rd =
        Option.get (Hash_util.reader ~null_as_key:true a.keys cols idxs)
      in
      let remap = Array.init nb (fun e -> Hash_util.add a.keys rd e) in
      groups_reserve a (groups_count a);
      merge ~remap ()
    | _ -> invalid_arg "Agg_util.groups_merge: dense and hashed partials"
  end

(* The output relation: the key table's columns as the group columns (in
   first-seen order), then one finished column per spec. *)
let groups_relation (g : groups) (schema : Plan.schema) : Relation.t =
  let keys = Hash_util.key_columns g.keys in
  let nk = Array.length keys in
  let n = if nk = 0 then 1 else groups_count g in
  let slot = match g.dense with Some d -> Array.get d.entry_slot | None -> Fun.id in
  { Relation.names = Array.map fst schema;
    cols =
      Array.mapi
        (fun i (_, ty) ->
          if i < nk then key_column ty keys.(i)
          else
            let spec = g.specs.(i - nk) and st = g.states.(i - nk) in
            Column.of_values ty
              (Array.init n (fun e -> slot_finish spec st (slot e))))
        schema }

(* ------------------------------------------------------------------ *)
(* Driving an aggregate                                               *)
(* ------------------------------------------------------------------ *)

(* One batch of an aggregate's input: [batch dense args cols] returns the
   consumer of rows of [cols], read through the argument readers [args]
   and, under dense grouping, the packed-key function [dense]. *)
type batch =
  ((int -> int) * int) option -> arg option array -> Column.t array -> int -> unit

(* Whether the rows [at 0 .. at (n-1)] of [cols], in that order, bring
   each group over key columns [idxs] as one contiguous run: always for a
   global aggregate (one run by definition); for one non-null int or date
   key column when its values never descend, found by one pass that stops
   at the first descent; never otherwise. *)
let in_runs (cols : Column.t array) (idxs : int list) ~(n : int)
    (at : int -> int) : bool =
  match idxs with
  | [] -> true
  | [ g ] -> (
    let c = cols.(g) in
    match (c.Column.ty, c.Column.nulls, Column.int_reader c) with
    | (TInt | TDate), None, Some get ->
      let rec from i prev =
        i >= n
        ||
        let v = get (at i) in
        v >= prev
        && begin
             if i land 8191 = 0 then Guard.check ();
             from (i + 1) v
           end
      in
      from 0 min_int
    | _ -> false)
  | _ -> false

(* The partial of one input range over key columns [idxs]: [source batch]
   calls [batch] once per batch of columns (every morsel of a pipeline, or
   the one set of columns a selection ranges over) and feeds that batch's
   rows, in input order, to the consumer it returns. The first batch
   creates the groups, hashed for [size] groups or dense over its packed
   domain; [None] when no batch came. [clustered] is the executor's
   verdict that the range brings each group as one run ({!in_runs}). *)
let fold ~size ~clustered (specs : Plan.agg_spec array) (idxs : int list)
    (source : batch -> unit) : groups option =
  let part = ref None in
  source (fun dense args cols ->
      let g =
        match !part with
        | Some g -> g
        | None ->
          let g =
            groups_make ~size ?card:(Option.map snd dense) ~clustered specs
              args cols idxs
          in
          part := Some g;
          g
      in
      groups_feeder ?dense g args cols idxs);
  !part

(* The aggregate's output from the partials of consecutive input ranges,
   merged in input order. With no partial at all the input was empty: a
   global aggregate still answers one row, a grouped one none. *)
let emit (specs : Plan.agg_spec array) (schema : Plan.schema)
    (partials : groups option list) : Relation.t =
  match List.filter_map Fun.id partials with
  | first :: rest ->
    List.iter (groups_merge first) rest;
    groups_relation first schema
  | [] ->
    let global = Array.length schema = Array.length specs in
    { Relation.names = Array.map fst schema;
      cols =
        Array.mapi
          (fun i (_, ty) ->
            Column.of_values ty
              (if global then [| finish specs.(i) (create specs.(i)) |]
               else [||]))
          schema }
