(** Vectorized (DuckDB-style) executor: operator-at-a-time over full columns.
    Operators exchange [srel] values — a base relation plus an optional
    selection vector — so filters, semijoins, sorts and limits produce a
    selection over the input columns instead of eagerly copying rows.
    Materialization happens only at pipeline breakers: join output, group-by
    output, window functions and projection. Scans, filters, join probes and
    aggregation are morsel-parallel over domains. *)

open Plan

type ctx = {
  catalog : Catalog.t;
  ctes : (string, Relation.t) Hashtbl.t;
  threads : int;
  on_rows : (Plan.plan -> int -> unit) option;
      (* EXPLAIN instrumentation: actual output rows per operator *)
}

let relation_cols (r : Relation.t) = r.Relation.cols

(* ------------------------------------------------------------------ *)
(* Selection vectors                                                  *)
(* ------------------------------------------------------------------ *)

(* A relation viewed through an optional selection: [sel = Some idx] means
   the logical rows are [rel]'s rows [idx.(0); idx.(1); ...] in that order;
   [None] means all rows. Base-row indices in a selection are distinct. *)
type srel = { rel : Relation.t; sel : int array option }

let srel_all (r : Relation.t) : srel = { rel = r; sel = None }

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
let filter_sel ~threads cols (sel : int array) pred =
  let n = Array.length sel in
  let k =
    if threads <= 1 || n <= Kernel.stride then 1
    else Parallel.morsel_count ~threads n
  in
  Kernel.collect_parts ~threads
    (Parallel.map_chunks ~k ~threads n (fun start len ->
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
        | Column.I a -> fun x y -> compare a.(x) a.(y)
        | Column.BI v ->
          fun x y ->
            compare (Bigarray.Array1.unsafe_get v x) (Bigarray.Array1.unsafe_get v y)
        | Column.F a -> fun x y -> Float.compare a.(x) a.(y)
        | Column.BF v ->
          fun x y ->
            Float.compare
              (Bigarray.Array1.unsafe_get v x)
              (Bigarray.Array1.unsafe_get v y)
        | Column.S a -> fun x y -> String.compare a.(x) a.(y)
        | Column.B a -> fun x y -> compare a.(x) a.(y)
        | Column.D _ | Column.BD _ ->
          (* Dictionary column: precomputed lexicographic rank replaces
             string comparison in the sort loop. *)
          let codes, d = Option.get (Column.codes_reader c) in
          let rank = d.Column.rank in
          fun x y -> compare rank.(codes x) rank.(codes y)
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

let collect_pairs parts =
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 parts in
  let li = Array.make total 0 and ri = Array.make total 0 in
  let k = ref 0 in
  List.iter
    (fun (ls, rs, _) ->
      List.iter2
        (fun a b ->
          li.(!k) <- a;
          ri.(!k) <- b;
          incr k)
        ls rs)
    parts;
  (li, ri)

(* Gather matching (left_row, right_row) pairs for an equi-join; indices are
   base rows of [l.rel] / [r.rel]. Residual is applied afterwards over the
   concatenated relation. [est] is the planner's build-side estimate,
   pre-gating the radix path (see {!Radix.join_plan}). *)
let hash_join_pairs ~threads ?est (l : srel) (r : srel)
    (keys : (int * int) list) : int array * int array =
  let nl = srel_nrows l and nr = srel_nrows r in
  let lbase = match l.sel with Some s -> fun pos -> s.(pos) | None -> Fun.id in
  let rbase = match r.sel with Some s -> fun pos -> s.(pos) | None -> Fun.id in
  match keys with
  | [] ->
    (* cross join *)
    let li = Array.make (nl * nr) 0 and ri = Array.make (nl * nr) 0 in
    let k = ref 0 in
    for i = 0 to nl - 1 do
      for j = 0 to nr - 1 do
        li.(!k) <- lbase i;
        ri.(!k) <- rbase j;
        incr k
      done
    done;
    (li, ri)
  | keys -> (
    let rkeys = List.map snd keys and lkeys = List.map fst keys in
    let lcols = relation_cols l.rel and rcols = relation_cols r.rel in
    match
      Radix.join_plan ~threads ?est ~build_rows:nr ~probe_rows:nl rcols rkeys
        lcols lkeys
    with
    | Some (nparts, rhash, lhash) ->
      (* Radix-partitioned join: build AND probe sides are split by key
         hash, so every worker builds and probes its own cache-resident
         partition table — no shared build table, no cross-domain state.
         Partition p of the probe side can only match partition p of the
         build side, so partitions are fully independent work items.
         Downstream operators are positional, so the partition-major pair
         streams are scattered back into global probe order afterwards —
         output must be byte-identical to the single-table path. *)
      let rparts =
        Radix.partition ~threads ~nparts ~hash:rhash ~base:rbase nr
      in
      (* probe partitions hold logical positions, not base rows: a sort's
         selection vector need not be monotonic, so only the position gives
         the output order *)
      let lparts =
        Radix.partition ~threads ~nparts
          ~hash:(fun pos -> lhash (lbase pos))
          ~base:Fun.id nl
      in
      (* per-position match counts, written during the probe: each position
         lives in exactly one partition and the store is absolute, so the
         writes are disjoint across workers and idempotent under chunk
         retry *)
      let cnt = Array.make (nl + 1) 0 in
      let parts =
        Parallel.map_list ~threads
          (List.init nparts (fun p () ->
               Guard.check ();
               Faults.crash_point ~site:"radix.build";
               Faults.slow_point ~site:"radix.build";
               let tbl =
                 Hash_util.build_table ~sel:rparts.(p) rcols rkeys
                   ~n:(Relation.n_rows r.rel)
               in
               let pf = Hash_util.probe_fn tbl lcols lkeys in
               let lp = lparts.(p) in
               (* unboxed growable pair buffer (probe position, build row) *)
               let cap = ref (max 16 (Array.length lp)) in
               let pb = ref (Array.make !cap 0)
               and rb = ref (Array.make !cap 0) in
               let len = ref 0 in
               Array.iter
                 (fun pos ->
                   let first = !len in
                   List.iter
                     (fun rrow ->
                       if !len = !cap then begin
                         let ncap = !cap * 2 in
                         let npb = Array.make ncap 0
                         and nrb = Array.make ncap 0 in
                         Array.blit !pb 0 npb 0 !len;
                         Array.blit !rb 0 nrb 0 !len;
                         pb := npb;
                         rb := nrb;
                         cap := ncap
                       end;
                       !pb.(!len) <- pos;
                       !rb.(!len) <- rrow;
                       incr len)
                     (pf (lbase pos));
                   (* table match lists are in reverse insertion order and
                      the single-table path re-reverses them by prepending;
                      flip this position's run to match it exactly *)
                   let a = !rb in
                   let i = ref first and j = ref (!len - 1) in
                   while !i < !j do
                     let t = a.(!i) in
                     a.(!i) <- a.(!j);
                     a.(!j) <- t;
                     incr i;
                     decr j
                   done;
                   cnt.(pos + 1) <- !len - first)
                 lp;
               (!pb, !rb, !len)))
      in
      (* prefix sum: cnt.(pos) = first output slot of pos's matches *)
      Parallel.prefix_sum ~threads cnt;
      let total = cnt.(nl) in
      let li = Array.make total 0 and ri = Array.make total 0 in
      (* parallel placement: a position's matches are contiguous in its
         partition buffer and the prefix array is read-only here, so slots
         never collide across workers and a retried chunk rewrites the same
         values *)
      ignore
        (Parallel.map_list ~threads
           (List.map
              (fun (pb, rb, len) () ->
                Guard.check ();
                Faults.crash_point ~site:"radix.scatter";
                Faults.slow_point ~site:"radix.scatter";
                let i = ref 0 in
                while !i < len do
                  let pos = pb.(!i) in
                  let row = lbase pos in
                  let k0 = cnt.(pos) in
                  let j = ref !i in
                  while !j < len && pb.(!j) = pos do
                    li.(k0 + (!j - !i)) <- row;
                    ri.(k0 + (!j - !i)) <- rb.(!j);
                    incr j
                  done;
                  i := !j
                done)
              parts));
      (li, ri)
    | None ->
      let tbl =
        Radix.build ~threads ?sel:r.sel rcols rkeys ~n:(Relation.n_rows r.rel)
      in
      let probe start len =
        (* one probe_fn per chunk: its partition-routing array is
           chunk-private, so domains never share mutable state *)
        let pf = Radix.probe_fn tbl lcols lkeys in
        let lbuf = ref [] and rbuf = ref [] and count = ref 0 in
        for pos = start + len - 1 downto start do
          let row = lbase pos in
          List.iter
            (fun rrow ->
              lbuf := row :: !lbuf;
              rbuf := rrow :: !rbuf;
              incr count)
            (pf row)
        done;
        (!lbuf, !rbuf, !count)
      in
      collect_pairs (Parallel.map_chunks ~threads nl probe))

let concat_relations ?(threads = 1) (l : Relation.t) (r : Relation.t) li ri :
    Relation.t =
  Guard.add_rows (Array.length li);
  let nlc = Array.length l.Relation.cols in
  (* column gathers are independent — one work item per output column *)
  let cols =
    Array.of_list
      (Parallel.map_list ~threads
         (List.init
            (nlc + Array.length r.Relation.cols)
            (fun i () ->
              if i < nlc then Column.take l.Relation.cols.(i) li
              else Column.take r.Relation.cols.(i - nlc) ri)))
  in
  { Relation.names = Array.append l.Relation.names r.Relation.names; cols }

let apply_residual ?(threads = 1) (l : Relation.t) (r : Relation.t) li ri
    residual =
  match residual with
  | None -> (li, ri)
  | Some pred ->
    let cand = concat_relations ~threads l r li ri in
    let n = Relation.n_rows cand in
    let sel = Kernel.select ~threads (relation_cols cand) [ pred ] [] ~n in
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
  (match ctx.on_rows with Some f -> f p (srel_nrows r) | None -> ());
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
        Kernel.select ~threads:ctx.threads
          ?zones:(Kernel.zone_test ctx.catalog cols [ pred ])
          cols [ pred ] [] ~n:(Relation.n_rows s.rel)
      | Some sel -> filter_sel ~threads:ctx.threads cols sel pred
    in
    { rel = s.rel; sel = Some sel' }
  | Project (sub, items) -> (
    let s = run_sel ctx sub in
    let n = srel_nrows s in
    let project_over cols ~n =
      let eval_item (e, _) = Eval.eval_col cols ~n e in
      let out_cols =
        if ctx.threads > 1 && List.length items > 1 && n > 4096 then
          Parallel.map_list ~threads:ctx.threads
            (List.map (fun item () -> eval_item item) items)
        else List.map eval_item items
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

and run_join ctx kind left right keys residual =
  match kind with
  | JInner ->
    (* Inner join probes straight through both selections; only the join
       output is materialized. *)
    let ls = run_sel ctx left and rs = run_sel ctx right in
    let li, ri = hash_join_pairs ~threads:ctx.threads ~est:right.est ls rs keys in
    let li, ri =
      apply_residual ~threads:ctx.threads ls.rel rs.rel li ri residual
    in
    srel_all (concat_relations ~threads:ctx.threads ls.rel rs.rel li ri)
  | JLeft | JRight | JFull ->
    (* Outer joins need matched-row bookkeeping over whole sides;
       materialize first and keep the eager logic. *)
    let l = materialize (run_sel ctx left)
    and r = materialize (run_sel ctx right) in
    let li, ri =
      hash_join_pairs ~threads:ctx.threads ~est:right.est (srel_all l)
        (srel_all r) keys
    in
    let li, ri = apply_residual ~threads:ctx.threads l r li ri residual in
    let nl = Relation.n_rows l and nr = Relation.n_rows r in
    let out =
      match kind with
      | JInner -> assert false
      | JLeft ->
        let matched = Array.make nl false in
        Array.iter (fun i -> matched.(i) <- true) li;
        let extra = ref [] in
        for i = nl - 1 downto 0 do
          if not matched.(i) then extra := i :: !extra
        done;
        let extra = Array.of_list !extra in
        let li = Array.append li extra in
        let ri = Array.append ri (Array.map (fun _ -> -1) extra) in
        concat_relations ~threads:ctx.threads l r li ri
      | JRight ->
        let matched = Array.make nr false in
        Array.iter (fun i -> matched.(i) <- true) ri;
        let extra = ref [] in
        for i = nr - 1 downto 0 do
          if not matched.(i) then extra := i :: !extra
        done;
        let extra = Array.of_list !extra in
        let li = Array.append li (Array.map (fun _ -> -1) extra) in
        let ri = Array.append ri extra in
        concat_relations ~threads:ctx.threads l r li ri
      | JFull ->
        let lmatched = Array.make nl false and rmatched = Array.make nr false in
        Array.iter (fun i -> lmatched.(i) <- true) li;
        Array.iter (fun i -> rmatched.(i) <- true) ri;
        let lextra = ref [] and rextra = ref [] in
        for i = nl - 1 downto 0 do
          if not lmatched.(i) then lextra := i :: !lextra
        done;
        for i = nr - 1 downto 0 do
          if not rmatched.(i) then rextra := i :: !rextra
        done;
        let lextra = Array.of_list !lextra and rextra = Array.of_list !rextra in
        let li = Array.concat [ li; lextra; Array.map (fun _ -> -1) rextra ] in
        let ri = Array.concat [ ri; Array.map (fun _ -> -1) lextra; rextra ] in
        concat_relations ~threads:ctx.threads l r li ri
    in
    srel_all out

and run_semijoin ctx anti left right keys residual =
  let ls = run_sel ctx left in
  let rs = run_sel ctx right in
  let l = ls.rel in
  let nl = srel_nrows ls and nr = srel_nrows rs in
  let base = match ls.sel with Some s -> fun pos -> s.(pos) | None -> Fun.id in
  match (keys, residual) with
  | [], None ->
    (* EXISTS over an uncorrelated subquery: all-or-nothing *)
    let nonempty = nr > 0 in
    if nonempty <> anti then ls else { rel = l; sel = Some [||] }
  | _ :: _, None when nr > 2 * nl ->
    (* Inverted probe direction: when the subquery side is much larger than
       the outer side, building its hash table costs more than the whole
       semijoin should. Build over the (small) outer side's keys instead and
       stream the subquery side through it, marking which outer rows found a
       witness. Only valid without a residual — marking loses the pairing. *)
    let lkeys = List.map fst keys and rkeys = List.map snd keys in
    let ltbl =
      Radix.build ~threads:ctx.threads ?sel:ls.sel (relation_cols l) lkeys
        ~n:(Relation.n_rows l)
    in
    let matched = Bitset.create (Relation.n_rows l) in
    let pf = Radix.probe_fn ltbl (relation_cols rs.rel) rkeys in
    let rbase =
      match rs.sel with Some s -> fun pos -> s.(pos) | None -> Fun.id
    in
    for pos = 0 to nr - 1 do
      List.iter (fun lrow -> Bitset.set matched lrow) (pf (rbase pos))
    done;
    let keep = ref [] in
    for pos = nl - 1 downto 0 do
      let lrow = base pos in
      if Bitset.get matched lrow <> anti then keep := lrow :: !keep
    done;
    { rel = l; sel = Some (Array.of_list !keep) }
  | _ ->
    let r = materialize rs in
    let nr = Relation.n_rows r in
    let rkeys = List.map snd keys and lkeys = List.map fst keys in
    let tbl =
      match keys with
      | [] -> None
      | _ ->
        Some
          (Radix.build ~threads:ctx.threads (relation_cols r) rkeys ~n:nr)
    in
    (* a probe per chunk keeps partition-routing memos and the residual's
       closures domain-private *)
    let mk_probe () =
      let pf =
        Option.map (fun t -> Radix.probe_fn t (relation_cols l) lkeys) tbl
      in
      let check =
        match residual with
        | None -> fun _ -> true
        | Some pred -> Eval.pair_pred (relation_cols l) (relation_cols r) pred
      in
      fun lrow ->
        let candidates =
          match pf with Some pf -> pf lrow | None -> List.init nr Fun.id
        in
        List.exists (fun rrow -> check (lrow, rrow)) candidates
    in
    let keep =
      if ctx.threads > 1 && nl >= 4096 && Option.is_some tbl then
        Kernel.collect_parts
          (Parallel.map_chunks ~threads:ctx.threads nl (fun start len ->
               let probe = mk_probe () in
               let out = Array.make (max 1 len) 0 and count = ref 0 in
               for pos = start to start + len - 1 do
                 let lrow = base pos in
                 if probe lrow <> anti then begin
                   out.(!count) <- lrow;
                   incr count
                 end
               done;
               (out, !count)))
      else begin
        let probe = mk_probe () in
        let out = ref [] in
        for pos = nl - 1 downto 0 do
          let lrow = base pos in
          if probe lrow <> anti then out := lrow :: !out
        done;
        Array.of_list !out
      end
    in
    { rel = l; sel = Some keep }

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
  (* one partial over the [count] rows [get 0 .. get (count-1)] *)
  let fold (get : int -> int) (count : int) =
    Agg_util.fold ~size:(Agg_util.size_hint p.est count) specs groups
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
      else Radix.group_parts ~threads:ctx.threads ~base cols groups ~n
    with
    | Some parts ->
      (* radix aggregation: every group key lives in exactly one
         partition, so the merge only ever appends *)
      Parallel.map_list ~threads:ctx.threads
        (List.map
           (fun sel () -> fold (fun i -> sel.(i)) (Array.length sel))
           (Array.to_list parts))
    | None when groups = [] ->
      (* a global aggregate chunks at any input size *)
      Parallel.map_chunks
        ~threads:(if has_distinct then 1 else ctx.threads)
        n run_range
    | None ->
      if ctx.threads <= 1 || has_distinct || n < 8192 then [ run_range 0 n ]
      else Parallel.map_chunks ~threads:ctx.threads n run_range
  in
  srel_all (Agg_util.emit specs p.schema partials)

(* Materializing entry point, kept for callers that need a plain relation
   (compiled executor, CTE evaluation). *)
and run (ctx : ctx) (p : plan) : Relation.t = materialize (run_sel ctx p)

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let run_query ?(threads = 1) ?on_rows (catalog : Catalog.t) (bq : bound_query)
    : Relation.t =
  let ctx = { catalog; ctes = Hashtbl.create 8; threads; on_rows } in
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
    entry point against hybrid catalogs. *)
let run_plan ?threads ?on_rows (catalog : Catalog.t) (p : Plan.plan) :
    Relation.t =
  run_query ?threads ?on_rows catalog { Plan.ctes = []; main = p }
