(** Vectorized (DuckDB-style) executor: operator-at-a-time over full columns.
    Operators exchange [srel] values — a base relation plus an optional
    selection vector — so filters, semijoins, sorts and limits produce a
    selection over the input columns instead of eagerly copying rows.
    Materialization happens only at pipeline breakers: join output, group-by
    output, window functions and projection. Scans, filters, join probes and
    aggregation are morsel-parallel over domains. *)

open Plan

let relation_cols (r : Relation.t) = r.Relation.cols

(* ------------------------------------------------------------------ *)
(* Selection vectors                                                  *)
(* ------------------------------------------------------------------ *)

(* A relation viewed through an optional selection: [sel = Some idx] means
   the logical rows are [rel]'s rows [idx.(0); idx.(1); ...] in that order;
   [None] means all rows. Base-row indices in a selection are distinct. *)
type srel = { rel : Relation.t; sel : int array option }

let srel_all (r : Relation.t) : srel = { rel = r; sel = None }

(* An inner join's build side: the right input's rows and their hash
   table over the join keys. *)
type build = { side : srel; table : Radix.t }

(* Optional hooks into a run. [on_rows] is EXPLAIN instrumentation: actual
   output rows per operator. [builds] supplies the build side of every
   inner join: given the join's right input and a thunk that runs it and
   builds over it, it returns that build or one it kept from an earlier
   run. Only the Matview delta engine passes it. Both sit in one optional
   record so that a run without hooks allocates exactly what it did
   before them (test/golden/alloc.txt). *)
type hooks = {
  on_rows : (Plan.plan -> int -> unit) option;
  builds : (Plan.plan -> (unit -> build) -> build) option;
}

type ctx = {
  catalog : Catalog.t;
  ctes : (string, Relation.t) Hashtbl.t;
  threads : int;
  settings : Settings.t;
  hooks : hooks option;
}

let srel_nrows (s : srel) =
  match s.sel with Some idx -> Array.length idx | None -> Relation.n_rows s.rel

(* Copy the selected rows out — the one place row copies still happen. *)
let materialize (s : srel) : Relation.t =
  match s.sel with
  | None -> s.rel
  | Some idx ->
    Guard.add_rows (Array.length idx);
    Relation.take s.rel idx

(* ------------------------------------------------------------------ *)
(* Filtering                                                          *)
(* ------------------------------------------------------------------ *)

(* Rows of an unselected relation survive through {!Kernel.select}. An
   already-selected relation runs the predicate only on the rows in [sel],
   and the surviving base indices come back in selection order. *)
let filter_sel ~grain ~threads cols (sel : int array) pred =
  Kernel.collect_parts ~threads ~grain
    (Parallel.map_chunks ~grain ~threads (Array.length sel) (fun start len ->
         let test = Eval.compile_pred cols pred in
         let out = Array.make (max 1 len) 0 and count = ref 0 in
         for pos = start to start + len - 1 do
           let row = sel.(pos) in
           if test row then begin
             out.(!count) <- row;
             incr count
           end
         done;
         (out, !count)))

(* ------------------------------------------------------------------ *)
(* Sorting                                                            *)
(* ------------------------------------------------------------------ *)

let row_comparators (r : Relation.t) (keys : (int * bool) list) :
    (int -> int -> int) list =
  List.map
    (fun (i, asc) ->
      let c = r.Relation.cols.(i) in
      let cmp =
        match c.Column.data with
        | Column.I v ->
          fun x y ->
            compare (Bigarray.Array1.unsafe_get v x) (Bigarray.Array1.unsafe_get v y)
        | Column.F v ->
          fun x y ->
            Float.compare
              (Bigarray.Array1.unsafe_get v x)
              (Bigarray.Array1.unsafe_get v y)
        | Column.S a -> fun x y -> String.compare a.(x) a.(y)
        | Column.B a -> fun x y -> compare a.(x) a.(y)
        | Column.D (codes, d) ->
          (* Dictionary column: precomputed lexicographic rank replaces
             string comparison in the sort loop. *)
          let rank = d.Column.rank in
          fun x y ->
            compare
              rank.(Bigarray.Array1.unsafe_get codes x)
              rank.(Bigarray.Array1.unsafe_get codes y)
      in
      let cmp =
        if Column.has_nulls c then fun x y ->
          (* nulls last *)
          let nx = Column.is_null c x and ny = Column.is_null c y in
          if nx && ny then 0
          else if nx then 1
          else if ny then -1
          else cmp x y
        else cmp
      in
      if asc then cmp else fun x y -> cmp y x)
    keys

(* Sort the selection (or all rows), returning base indices in sort order.
   The tiebreak is on logical position, keeping the sort stable w.r.t. the
   incoming order. *)
let sort_sel (r : Relation.t) (sel : int array option)
    (keys : (int * bool) list) : int array =
  let n =
    match sel with Some s -> Array.length s | None -> Relation.n_rows r
  in
  let comparators = row_comparators r keys in
  let idx = Array.init n Fun.id in
  let base = match sel with Some s -> fun pos -> s.(pos) | None -> Fun.id in
  let compare_rows x y =
    let bx = base x and by = base y in
    let rec go = function
      | [] -> compare x y (* stable tiebreak on incoming order *)
      | cmp :: rest ->
        let c = cmp bx by in
        if c <> 0 then c else go rest
    in
    go comparators
  in
  Array.sort compare_rows idx;
  match sel with None -> idx | Some _ -> Array.map base idx

let sort_indices (r : Relation.t) (keys : (int * bool) list) : int array =
  sort_sel r None keys

(* ------------------------------------------------------------------ *)
(* Joins                                                              *)
(* ------------------------------------------------------------------ *)

(* The hash table over an equi-join's right side [r], on its keys; no
   keys make a cross join's one-entry build. *)
let build_table ctx (r : srel) (keys : (int * int) list) : Radix.t =
  Radix.build ~settings:ctx.settings ~threads:ctx.threads ?sel:r.sel
    (relation_cols r.rel) (List.map snd keys) ~n:(Relation.n_rows r.rel)

let concat_relations ?(threads = 1) ~grain (l : Relation.t) (r : Relation.t) li
    ri : Relation.t =
  Guard.add_rows (Array.length li);
  let nlc = Array.length l.Relation.cols in
  (* column gathers are independent — one work item per output column *)
  let cols =
    Array.of_list
      (Parallel.map_list ~grain ~threads ~rows:(Array.length li)
         (fun i ->
           if i < nlc then Column.take l.Relation.cols.(i) li
           else Column.take r.Relation.cols.(i - nlc) ri)
         (List.init (nlc + Array.length r.Relation.cols) Fun.id))
  in
  { Relation.names = Array.append l.Relation.names r.Relation.names; cols }

let apply_residual ?(threads = 1) ~(settings : Settings.t) (l : Relation.t)
    (r : Relation.t) li ri residual =
  match residual with
  | None -> (li, ri)
  | Some pred ->
    let cand = concat_relations ~threads ~grain:settings.grain l r li ri in
    let n = Relation.n_rows cand in
    let sel =
      Kernel.select ~settings ~threads (relation_cols cand) [ pred ] [] ~n
    in
    (Array.map (fun k -> li.(k)) sel, Array.map (fun k -> ri.(k)) sel)

(* ------------------------------------------------------------------ *)
(* Breakers shared with the compiled executor                         *)
(* ------------------------------------------------------------------ *)

(* A VALUES list as a relation; a zero-column one keeps its row count as
   one dummy int column. *)
let values_relation (schema : schema) (rows : Value.t list list) : Relation.t =
  if Array.length schema = 0 then
    { Relation.names = [| "dummy" |];
      cols = [| Column.of_ints (Array.make (List.length rows) 0) |] }
  else
    { Relation.names = Array.map fst schema;
      cols =
        Array.mapi
          (fun i (_, ty) ->
            Column.of_values ty
              (Array.of_list (List.map (fun row -> List.nth row i) rows)))
          schema }

(* [r] with the rank column [name] appended: each row's 1-based position
   in [keys] order (input order without keys). *)
let window_relation (r : Relation.t) keys name : Relation.t =
  let n = Relation.n_rows r in
  let order = if keys = [] then Array.init n Fun.id else sort_indices r keys in
  let ranks = Array.make n 0 in
  Array.iteri (fun pos row -> ranks.(row) <- pos + 1) order;
  { Relation.names = Array.append r.Relation.names [| name |];
    cols = Array.append r.Relation.cols [| Column.of_ints ranks |] }

(* ------------------------------------------------------------------ *)
(* Executor                                                           *)
(* ------------------------------------------------------------------ *)

(* Every operator boundary is a cooperative guard checkpoint: a tripped
   deadline unwinds from the next node instead of hanging the query. *)
let rec run_sel (ctx : ctx) (p : plan) : srel =
  Guard.check ();
  let r = run_sel_inner ctx p in
  (match ctx.hooks with
  | Some { on_rows = Some f; _ } -> f p (srel_nrows r)
  | _ -> ());
  r

and run_sel_inner (ctx : ctx) (p : plan) : srel =
  match p.node with
  | Scan name -> (
    (* a fired dictionary-corruption fault models a detected storage fault
       on this table's dictionary pages; Db.execute retries cleanly *)
    Faults.dict_corrupt_point ~site:("vectorized.scan." ^ name);
    match Hashtbl.find_opt ctx.ctes name with
    | Some r -> srel_all r
    | None -> (
      match Catalog.find_opt ctx.catalog name with
      | Some t -> srel_all t.Catalog.rel
      | None -> invalid_arg ("Exec: unknown relation " ^ name)))
  | PValues (schema, rows) -> srel_all (values_relation schema rows)
  | Filter (sub, pred) ->
    let s = run_sel ctx sub in
    let cols = relation_cols s.rel in
    let sel' =
      match s.sel with
      | None ->
        Kernel.select ~settings:ctx.settings ~threads:ctx.threads
          ?zones:(Kernel.zone_test ctx.catalog cols [ pred ])
          cols [ pred ] [] ~n:(Relation.n_rows s.rel)
      | Some sel ->
        filter_sel ~grain:ctx.settings.grain ~threads:ctx.threads cols sel
          pred
    in
    { rel = s.rel; sel = Some sel' }
  | Project (sub, items) -> (
    let s = run_sel ctx sub in
    let n = srel_nrows s in
    let project_over cols ~n =
      let eval_item (e, _) = Eval.eval_col cols ~n e in
      let out_cols =
        Parallel.map_list ~grain:ctx.settings.grain ~threads:ctx.threads
          ~rows:n eval_item items
      in
      { Relation.names = Array.of_list (List.map snd items);
        cols = Array.of_list out_cols }
    in
    let gathered () =
      let cols =
        match s.sel with
        | None -> relation_cols s.rel
        | Some idx ->
          (* Gather only the columns the projection references; untouched
             slots keep the (wrong-length) base column, whose type is the
             only thing the evaluator reads for them. *)
          let used = Array.make (Array.length s.rel.Relation.cols) false in
          List.iter
            (fun (e, _) ->
              List.iter (fun i -> used.(i) <- true) (pexpr_cols [] e))
            items;
          Array.mapi
            (fun i c -> if used.(i) then Column.take c idx else c)
            s.rel.Relation.cols
      in
      srel_all (project_over cols ~n)
    in
    match s.sel with
    | Some sel
      when 2 * Array.length sel >= Relation.n_rows s.rel
           && Relation.n_rows s.rel > 0 -> (
      (* Dense selection: evaluating expressions over all base rows costs
         less than gathering every referenced column, and bare column items
         stay zero-copy. The selection survives the projection. *)
      match project_over (relation_cols s.rel) ~n:(Relation.n_rows s.rel) with
      | rel -> { rel; sel = Some sel }
      | exception _ ->
        (* an expression choked on a filtered-out row; take the copies *)
        gathered ())
    | _ -> gathered ())
  | Join { kind; left; right; keys; residual } ->
    run_join ctx kind left right keys residual
  | SemiJoin { anti; left; right; keys; residual } ->
    run_semijoin ctx anti left right keys residual
  | Aggregate (sub, groups, specs) -> run_aggregate ctx p sub groups specs
  | Sort (sub, keys) ->
    let s = run_sel ctx sub in
    { rel = s.rel; sel = Some (sort_sel s.rel s.sel keys) }
  | LimitN (sub, n) ->
    let s = run_sel ctx sub in
    let n = min n (srel_nrows s) in
    let sel' =
      match s.sel with
      | None -> Array.init n Fun.id
      | Some sel -> Array.sub sel 0 n
    in
    { rel = s.rel; sel = Some sel' }
  | Distinct sub ->
    let s = run_sel ctx sub in
    let n = srel_nrows s in
    let base = match s.sel with Some sel -> fun pos -> sel.(pos) | None -> Fun.id in
    let cols = relation_cols s.rel in
    let all_cols = List.init (Array.length cols) Fun.id in
    { rel = s.rel; sel = Some (Hash_util.first_rows ~row:base cols all_cols ~n) }
  | Window (sub, keys, name) ->
    srel_all (window_relation (materialize (run_sel ctx sub)) keys name)

(* The left side runs first, then the build: the [builds] hook's for an
   inner join, else one over the right side. *)
and run_join ctx kind left right keys residual =
  let ls = run_sel ctx left in
  match (ctx.hooks, kind) with
  | Some { builds = Some build; _ }, JInner ->
    let b =
      build right (fun () ->
          let rs = run_sel ctx right in
          { side = rs; table = build_table ctx rs keys })
    in
    join_output ctx kind ls b.side b.table keys residual
  | _ ->
    let rs = run_sel ctx right in
    join_output ctx kind ls rs (build_table ctx rs keys) keys residual

(* Both sides probe and gather straight through their selections; only
   the join output is materialized. The matching (left row, right row)
   pairs come in probe order, as base rows of [ls.rel] and of [rs.rel],
   which [tbl] was built over; the residual is applied afterwards over the
   concatenated relation. *)
and join_output ctx kind ls rs tbl keys residual =
  let threads = ctx.threads and grain = ctx.settings.grain in
  let li, ri =
    Join.collect ~grain ~threads ?sel:ls.sel Join.Inner tbl
      (relation_cols ls.rel) (List.map fst keys) ~n:(srel_nrows ls)
  in
  let li, ri =
    apply_residual ~threads ~settings:ctx.settings ls.rel rs.rel li ri residual
  in
  let side s = (s.sel, srel_nrows s, Relation.n_rows s.rel) in
  let li, ri = Join.complete kind ~left:(side ls) ~right:(side rs) (li, ri) in
  srel_all (concat_relations ~grain ~threads ls.rel rs.rel li ri)

and run_semijoin ctx anti left right keys residual =
  let ls = run_sel ctx left in
  let rs = run_sel ctx right in
  let l = ls.rel and threads = ctx.threads and settings = ctx.settings in
  let lcols = relation_cols l and rcols = relation_cols rs.rel in
  let lkeys = List.map fst keys and rkeys = List.map snd keys in
  let nl = srel_nrows ls and nr = srel_nrows rs in
  let keep =
    match (keys, residual) with
    | [], None ->
      (* EXISTS over an uncorrelated subquery: all-or-nothing *)
      if (nr > 0) <> anti then None else Some [||]
    | _ :: _, None when nr > 2 * nl ->
      (* Inverted probe direction: when the subquery side is much larger
         than the outer side, building its hash table costs more than the
         whole semijoin should. Build over the (small) outer side's keys
         instead and stream the subquery side through it, marking which
         outer rows found a witness. Only valid without a residual —
         marking loses the pairing. *)
      let ltbl =
        Radix.build ~settings ~threads ?sel:ls.sel lcols lkeys
          ~n:(Relation.n_rows l)
      in
      let matched = Bitset.create (Relation.n_rows l) in
      Join.probe ?sel:rs.sel (Join.Mark matched) ltbl rcols rkeys ~lo:0 ~hi:nr
        (Join.pairs ());
      Some (Join.marked ~anti ?sel:ls.sel matched ~n:nl)
    | _ ->
      let tbl =
        Radix.build ~settings ~threads ?sel:rs.sel rcols rkeys
          ~n:(Relation.n_rows rs.rel)
      in
      (* a residual per morsel keeps its closures domain-private *)
      let residual =
        Option.map (fun pred () -> Eval.pair_pred lcols rcols pred) residual
      in
      Some
        (fst
           (Join.collect ~grain:settings.grain ~threads ?residual ?sel:ls.sel
              (if anti then Join.Anti else Join.Semi)
              tbl lcols lkeys ~n:nl))
  in
  match keep with None -> ls | Some keep -> { rel = l; sel = Some keep }

(* Direct-indexed aggregation costs O(card) in allocation and output scan,
   so a large packed domain only pays off when the input amortizes it. *)
and groups_dense ~n cols groups =
  match Hash_util.dense_domain ~limit:(1 lsl 18) cols groups with
  | Some (_, card) as r when card <= 1 lsl 16 || card <= n -> r
  | _ -> None

and run_aggregate ctx (p : plan) sub groups specs =
  (* Aggregate fusion stays compiled-executor-only: this engine's unfused
     pipeline already runs column-at-a-time (typed eval_col loops, and
     filters that select through Kernel's masks), so collapsing it into
     the fused aggregate only replaces one vectorized loop with another
     while forfeiting the selection-vector reuse downstream operators rely
     on. *)
  let s = run_sel ctx sub in
  let n = srel_nrows s in
  let cols = relation_cols s.rel in
  let base = match s.sel with Some sel -> fun pos -> sel.(pos) | None -> Fun.id in
  let has_distinct = List.exists (fun sp -> sp.distinct) specs in
  let specs = Array.of_list specs in
  let args = Agg_util.column_args specs cols in
  (* Small packed key domains (dictionary / bool / bounded-int group
     columns) index the accumulators directly by packed key; the rest hash
     through the key table. Either way groups come out in first-seen
     order. *)
  let dense = groups_dense ~n cols groups in
  (* A DISTINCT aggregate folds its whole input as one range, in selection
     order: a selection that reorders the rows (a sort) usually breaks the
     key runs the base order had. *)
  let clustered = has_distinct && Agg_util.in_runs cols groups ~n base in
  (* one partial over the [count] rows [get 0 .. get (count-1)] *)
  let fold (get : int -> int) (count : int) =
    Agg_util.fold ~size:(Agg_util.size_hint p.est count) ~clustered specs
      groups
      (fun batch ->
        let feed = batch dense args cols in
        for i = 0 to count - 1 do
          if i land 8191 = 0 then Guard.check ();
          feed (get i)
        done)
  in
  let run_range start len = fold (fun i -> base (start + i)) len in
  let partials =
    match
      (* a global aggregate's empty key always packs densely *)
      if has_distinct || Option.is_some dense then None
      else
        Radix.group_parts ~settings:ctx.settings ~threads:ctx.threads ~base
          cols groups ~n
    with
    | Some parts ->
      (* radix aggregation: every group key lives in exactly one
         partition, so the merge only ever appends *)
      Parallel.map_list ~grain:ctx.settings.grain ~threads:ctx.threads ~rows:n
        (fun sel -> fold (fun i -> sel.(i)) (Array.length sel))
        (Array.to_list parts)
    | None ->
      Parallel.map_chunks ~merged:true ~grain:ctx.settings.grain
        ~threads:(if has_distinct then 1 else ctx.threads)
        n run_range
  in
  srel_all (Agg_util.emit specs p.schema partials)

(* Materializing entry point, kept for callers that need a plain relation
   (compiled executor, CTE evaluation). *)
and run (ctx : ctx) (p : plan) : Relation.t = materialize (run_sel ctx p)

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let run_query ?(threads = 1) ?(settings = Settings.default) ?on_rows ?builds
    (catalog : Catalog.t) (bq : bound_query) : Relation.t =
  let hooks =
    match (on_rows, builds) with
    | None, None -> None
    | _ -> Some { on_rows; builds }
  in
  let ctx = { catalog; ctes = Hashtbl.create 8; threads; settings; hooks } in
  List.iter
    (fun (name, plan) ->
      let r = run ctx plan in
      (* apply CTE column renames from the plan schema *)
      let r = Relation.rename r (Array.map fst plan.schema) in
      Hashtbl.replace ctx.ctes name r)
    bq.ctes;
  run ctx bq.main

(** Run a bare plan subtree (no CTEs). The Matview delta engine streams
    plan fragments — the select-project-join stream below a view's
    aggregate, or its finish chain over accumulator output — through this
    entry point against hybrid catalogs, with [builds] supplying the join
    build sides it keeps across refreshes. *)
let run_plan ?threads ?settings ?on_rows ?builds (catalog : Catalog.t)
    (p : Plan.plan) : Relation.t =
  run_query ?threads ?settings ?on_rows ?builds catalog
    { Plan.ctes = []; main = p }
