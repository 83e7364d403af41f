(** Compiled (Hyper-style) executor: morsel-driven fused pipelines.

    Plans are compiled into pipeline segments — a source relation plus a fused
    chunk transformer (filters, projections, join probes, semi-join probes) —
    separated by pipeline breakers (aggregation, sorting, distinct, windows,
    build sides of joins). A segment never materializes more than one morsel
    (~4K rows), in contrast to the vectorized executor which materializes
    every operator's full output. Morsels are processed in parallel across
    domains with domain-local sinks. *)

open Plan

let morsel_size = 4096

type ctx = {
  catalog : Catalog.t;
  ctes : (string, Relation.t) Hashtbl.t;
  threads : int;
}

type chunk = Relation.t

(* ------------------------------------------------------------------ *)
(* Chunk operators                                                    *)
(* ------------------------------------------------------------------ *)

(* Chunk operators return [Some empty] for empty inputs so segment schemas
   stay derivable; non-empty inputs filtered to nothing return [None]. *)
let chunk_filter pred (c : chunk) : chunk option =
  let n = Relation.n_rows c in
  if n = 0 then Some c
  else
    let idx = Kernel.select ~threads:1 c.Relation.cols [ pred ] [] ~n in
    if Array.length idx = 0 then None
    else if Array.length idx = n then Some c
    else Some (Relation.take c idx)

let chunk_project items (c : chunk) : chunk =
  let n = Relation.n_rows c in
  let cols =
    List.map (fun (e, _) -> Eval.eval_col c.Relation.cols ~n e) items
  in
  { Relation.names = Array.of_list (List.map snd items);
    cols = Array.of_list cols }

(* Inner/left probe of a pre-built (possibly radix-partitioned) hash table
   on the right relation. *)
let chunk_probe ~left_outer (r : Relation.t)
    (tbl : Radix.t) (lkeys : int list)
    (residual : pexpr option) (c : chunk) : chunk option =
  let n = Relation.n_rows c in
  (* probe_fn is created per chunk, so its partition routing state never
     crosses domains *)
  let probe = Radix.probe_fn tbl c.Relation.cols lkeys in
  let li = ref [] and ri = ref [] and count = ref 0 in
  for row = n - 1 downto 0 do
    match probe row with
    | [] ->
      if left_outer then begin
        li := row :: !li;
        ri := -1 :: !ri;
        incr count
      end
    | rows ->
      List.iter
        (fun rrow ->
          li := row :: !li;
          ri := rrow :: !ri;
          incr count)
        rows
  done;
  if !count = 0 && n > 0 then None
  else begin
    let li = Array.of_list !li and ri = Array.of_list !ri in
    let lc = Array.map (fun col -> Column.take col li) c.Relation.cols in
    let rc = Array.map (fun col -> Column.take col ri) r.Relation.cols in
    let joined =
      { Relation.names = Array.append c.Relation.names r.Relation.names;
        cols = Array.append lc rc }
    in
    match residual with
    | None -> Some joined
    | Some pred -> chunk_filter pred joined
  end

let chunk_semi ~anti (r : Relation.t)
    (tbl : Radix.t option) (lkeys : int list)
    (residual : pexpr option) (c : chunk) : chunk option =
  let n = Relation.n_rows c in
  let nr = Relation.n_rows r in
  let probe =
    match tbl with
    | Some tbl -> Radix.probe_fn tbl c.Relation.cols lkeys
    | None ->
      let all = List.init nr Fun.id in
      fun _ -> all
  in
  (* compiled per chunk: chunks run on many domains *)
  let check =
    Option.map (fun pred -> Eval.pair_pred c.Relation.cols r.Relation.cols pred)
      residual
  in
  let keep = ref [] and count = ref 0 in
  for row = n - 1 downto 0 do
    let candidates = probe row in
    let matched =
      match check with
      | None -> candidates <> []
      | Some check -> List.exists (fun rrow -> check (row, rrow)) candidates
    in
    if matched <> anti then begin
      keep := row :: !keep;
      incr count
    end
  done;
  if !count = 0 && n > 0 then None
  else Some (Relation.take c (Array.of_list !keep))

(* ------------------------------------------------------------------ *)
(* Segments                                                           *)
(* ------------------------------------------------------------------ *)

(* A fused pipeline segment: source relation, predicates evaluated directly
   on the source columns (scan-filter fusion: only surviving rows are ever
   gathered into a morsel), and a chunk transformer for the rest of the
   pipeline. [transform] returns None when a chunk dies entirely. *)
type segment = {
  source : Relation.t;
  prefilter : pexpr list; (* conjuncts over the source schema *)
  prescan : (int -> bool) list;
      (* closure row tests fused into the scan (bloom-filter pushdown) *)
  transform : (chunk -> chunk option) option; (* None = identity *)
}

let seg_transform seg : chunk -> chunk option =
  match seg.transform with None -> fun c -> Some c | Some f -> f

(* Compose a further chunk operation onto a segment. *)
let seg_then seg (f : chunk -> chunk option) : segment =
  match seg.transform with
  | None -> { seg with transform = Some f }
  | Some g ->
    { seg with
      transform = Some (fun c -> match g c with None -> None | Some c -> f c) }

let rec compile_segment ctx (p : plan) : segment =
  match p.node with
  | Scan name ->
    { source = lookup ctx name; prefilter = []; prescan = []; transform = None }
  | Filter (sub, pred) ->
    let seg = compile_segment ctx sub in
    if seg.transform = None then
      (* still at the scan: fuse into the source predicate *)
      { seg with prefilter = seg.prefilter @ [ pred ] }
    else seg_then seg (chunk_filter pred)
  | Project (sub, items)
    when (match sub.node with Scan _ -> true | _ -> false)
         && List.for_all
              (fun (e, _) -> match e with PCol _ -> true | _ -> false)
              items ->
    (* Column-select directly above a scan (the pruning pass emits these):
       narrow the source zero-copy so later filters still fuse into the
       scan instead of becoming a chunk transform. *)
    let src = lookup ctx (match sub.node with Scan n -> n | _ -> assert false) in
    let source =
      { Relation.names = Array.of_list (List.map snd items);
        cols =
          Array.of_list
            (List.map
               (fun (e, _) ->
                 match e with
                 | PCol i -> src.Relation.cols.(i)
                 | _ -> assert false)
               items) }
    in
    { source; prefilter = []; prescan = []; transform = None }
  | Project (sub, items) ->
    let seg = compile_segment ctx sub in
    seg_then seg (fun c -> Some (chunk_project items c))
  | Join { kind = (JInner | JLeft) as kind; left; right; keys; residual } ->
    (* The build side is a pipeline breaker: materialize it fully. *)
    let r = stream ctx right in
    let seg = compile_segment ctx left in
    (* large builds are radix-partitioned across workers; small ones keep
       the single shared table (threshold in Radix.should) *)
    let tbl =
      Radix.build ~threads:ctx.threads r.Relation.cols
        (List.map snd keys) ~n:(Relation.n_rows r)
    in
    let lkeys = List.map fst keys in
    let left_outer = kind = JLeft in
    if keys = [] then begin
      (* Cross join: pair every chunk row with every build row. *)
      let nr = Relation.n_rows r in
      seg_then seg
          (fun c ->
              let n = Relation.n_rows c in
              if n * nr = 0 then None
              else begin
                let li = Array.make (n * nr) 0 and ri = Array.make (n * nr) 0 in
                let k = ref 0 in
                for i = 0 to n - 1 do
                  for j = 0 to nr - 1 do
                    li.(!k) <- i;
                    ri.(!k) <- j;
                    incr k
                  done
                done;
                let lc =
                  Array.map (fun col -> Column.take col li) c.Relation.cols
                in
                let rc =
                  Array.map (fun col -> Column.take col ri) r.Relation.cols
                in
                let joined =
                  { Relation.names =
                      Array.append c.Relation.names r.Relation.names;
                    cols = Array.append lc rc }
                in
                match residual with
                | None -> Some joined
                | Some pred -> chunk_filter pred joined
              end)
    end
    else begin
      (* Inner joins drop probe rows without a partner, so the build side's
         bloom filter can run directly on the scan: misses never reach the
         morsel gather. Left joins must keep unmatched rows. *)
      let seg =
        match (kind, lkeys, seg.transform) with
        | JInner, [ lk ], None ->
          { seg with
            prescan =
              seg.prescan @ [ Radix.scan_test tbl seg.source.Relation.cols.(lk) ]
          }
        | _ -> seg
      in
      if
        kind = JInner
        && Radix.pre_gate ~threads:ctx.threads ~build_rows:(Relation.n_rows r)
             ~probe_rows:(Relation.n_rows seg.source)
      then begin
        (* Partition-wise probe: join partition by partition via the shared
           radix machinery — both sides split by key hash so every worker
           probes its own cache-resident table. The pair stream is scattered
           back to probe-row order, so output is byte-identical to the fused
           morsel probe; left joins keep the fused path (their unmatched-row
           padding is interleaved per morsel). A scan-shaped probe (no
           fused transform upstream) is never materialized: its filters,
           bloom prescan, and zone skipping reduce to a selection vector
           over the base columns and the join gathers straight from them. *)
        let lrel, lsel =
          match seg.transform with
          | Some _ ->
            (* a fused upstream operator reshapes rows: materialize *)
            (run_segment ctx seg, None)
          | None ->
            let cols = seg.source.Relation.cols in
            let sel =
              match (seg.prefilter, seg.prescan) with
              | [], [] -> None
              | prefilter, prescan ->
                Some
                  (Kernel.select ~threads:ctx.threads
                     ?zones:(Kernel.zone_test ctx.catalog cols prefilter)
                     cols prefilter prescan
                     ~n:(Relation.n_rows seg.source))
            in
            (seg.source, sel)
        in
        let li, ri =
          Exec_vectorized.hash_join_pairs ~threads:ctx.threads ~est:right.est
            { Exec_vectorized.rel = lrel; sel = lsel }
            (Exec_vectorized.srel_all r)
            keys
        in
        let li, ri =
          Exec_vectorized.apply_residual ~threads:ctx.threads lrel r li ri
            residual
        in
        let source =
          Exec_vectorized.concat_relations ~threads:ctx.threads lrel r li ri
        in
        { source; prefilter = []; prescan = []; transform = None }
      end
      else seg_then seg (chunk_probe ~left_outer r tbl lkeys residual)
    end
  | SemiJoin { anti; left; right; keys = _ :: _ as keys; residual = None }
    when right.est > 2. *. Float.max 1. left.est ->
    (* Inverted probe direction (mirrors Exec_vectorized.run_semijoin): the
       subquery side is estimated much larger than the outer side, so build
       the hash table over the outer side's keys and stream the subquery
       side through it, marking which outer rows found a witness. The
       estimate gate is re-checked against actual cardinalities; a
       mis-estimate falls back to the build-right direction, just over the
       already-materialized outer side. *)
    let lrel = materialize ctx left in
    let r = stream ctx right in
    let nl = Relation.n_rows lrel and nr = Relation.n_rows r in
    let lkeys = List.map fst keys and rkeys = List.map snd keys in
    let keep =
      let out = ref [] in
      if nr > 2 * nl then begin
        let ltbl =
          Radix.build ~threads:ctx.threads lrel.Relation.cols lkeys ~n:nl
        in
        let matched = Bitset.create nl in
        let pf = Radix.probe_fn ltbl r.Relation.cols rkeys in
        for row = 0 to nr - 1 do
          List.iter (fun lrow -> Bitset.set matched lrow) (pf row)
        done;
        for row = nl - 1 downto 0 do
          if Bitset.get matched row <> anti then out := row :: !out
        done
      end
      else begin
        let tbl =
          Radix.build ~threads:ctx.threads r.Relation.cols
            rkeys ~n:nr
        in
        let pf = Radix.probe_fn tbl lrel.Relation.cols lkeys in
        for row = nl - 1 downto 0 do
          if (pf row <> []) <> anti then out := row :: !out
        done
      end;
      Array.of_list !out
    in
    let source =
      { Relation.names = lrel.Relation.names;
        cols = Array.map (fun c -> Column.take c keep) lrel.Relation.cols }
    in
    { source; prefilter = []; prescan = []; transform = None }
  | SemiJoin { anti; left; right; keys; residual } ->
    let r = stream ctx right in
    let seg = compile_segment ctx left in
    let tbl =
      match keys with
      | [] -> None
      | keys ->
        Some
          (Radix.build ~threads:ctx.threads r.Relation.cols
             (List.map snd keys) ~n:(Relation.n_rows r))
    in
    let lkeys = List.map fst keys in
    (* Semi joins keep only matched rows: bloom misses are safe to drop at
       the scan. Anti joins keep exactly the misses — no pushdown. *)
    let seg =
      match (anti, tbl, lkeys, seg.transform) with
      | false, Some tbl, [ lk ], None ->
        { seg with
          prescan =
            seg.prescan @ [ Radix.scan_test tbl seg.source.Relation.cols.(lk) ]
        }
      | _ -> seg
    in
    seg_then seg (chunk_semi ~anti r tbl lkeys residual)
  | Join { kind = JRight | JFull; _ }
  | PValues _ | Aggregate _ | Sort _ | LimitN _ | Distinct _ | Window _ ->
    (* Pipeline breaker: materialize and start a fresh segment. *)
    { source = materialize ctx p; prefilter = []; prescan = []; transform = None }

and lookup ctx name =
  (* a fired dictionary-corruption fault models a detected storage fault on
     this table's dictionary pages; Db.execute retries cleanly *)
  Faults.dict_corrupt_point ~site:("compiled.scan." ^ name);
  match Hashtbl.find_opt ctx.ctes name with
  | Some r -> r
  | None -> (
    match Catalog.find_opt ctx.catalog name with
    | Some t -> t.Catalog.rel
    | None -> invalid_arg ("Exec_compiled: unknown relation " ^ name))

(* Iterate the morsels of [seg] over rows [start, start+len), invoking
   [consume] with each surviving non-empty chunk. One selector over the
   source columns runs the fused prefilter and prescan (and the deadline
   checkpoint) per morsel, so only surviving rows are gathered. *)
and iter_morsels ?ztest (seg : segment) start len (consume : chunk -> unit) :
    unit =
  let transform = seg_transform seg in
  let select =
    Kernel.selector seg.source.Relation.cols seg.prefilter seg.prescan
  in
  let buf = Array.make (max 1 (min morsel_size len)) 0 in
  let pos = ref start in
  while !pos < start + len do
    let step = min morsel_size (start + len - !pos) in
    let skip =
      (* zone-map morsel skipping: a morsel overlaps at most two stats
         blocks; drop it when no overlapping block can match *)
      match ztest with
      | Some t ->
        not (Stats.range_may_match t ~lo:!pos ~hi:(!pos + step - 1))
      | None -> false
    in
    if not skip then begin
      let count = ref 0 in
      select ~lo:!pos ~hi:(!pos + step - 1) (fun idx k ->
          Array.blit idx 0 buf !count k;
          count := !count + k);
      if !count > 0 then begin
        Guard.add_rows !count;
        let chunk = Relation.take seg.source (Array.sub buf 0 !count) in
        match transform chunk with
        | Some c when Relation.n_rows c > 0 -> consume c
        | _ -> ()
      end
    end;
    pos := !pos + step
  done

(* Run a segment over its source, morsel-parallel, collecting all chunks. *)
and run_segment ctx (seg : segment) : Relation.t =
  let n = Relation.n_rows seg.source in
  let ztest =
    Kernel.zone_test ctx.catalog seg.source.Relation.cols seg.prefilter
  in
  let run_range start len =
    let out = ref [] in
    iter_morsels ?ztest seg start len (fun c -> out := c :: !out);
    List.rev !out
  in
  let chunk_lists =
    if n = 0 then []
    else
      (* morsel-granular scheduling: the critical path is one morsel range,
         not a 1/threads slice of the whole scan *)
      let k = Parallel.morsel_count ~threads:ctx.threads n in
      Parallel.map_list ~threads:ctx.threads
        (List.map
           (fun (start, len) () -> run_range start len)
           (Parallel.chunks ~k n))
  in
  let chunks = List.concat chunk_lists in
  match chunks with
  | [] -> (
    (* Empty result: derive the output schema by pushing an empty chunk
       through the transformer (chunk operators pass empty chunks through). *)
    let empty = Relation.take seg.source [||] in
    match (seg_transform seg) empty with
    | Some c -> c
    | None -> empty)
  | chunks -> Relation.concat ~threads:ctx.threads chunks

(* Materialize any plan to a full relation. *)
and materialize ctx (p : plan) : Relation.t =
  match p.node with
  | PValues (schema, rows) -> Exec_vectorized.values_relation schema rows
  | Aggregate (sub, groups, specs) -> run_aggregate ctx p sub groups specs
  | Sort (sub, keys) ->
    let r = stream ctx sub in
    Relation.take r (Exec_vectorized.sort_indices r keys)
  | LimitN (sub, n) ->
    let r = stream ctx sub in
    let n = min n (Relation.n_rows r) in
    Relation.take r (Array.init n Fun.id)
  | Distinct sub ->
    let r = stream ctx sub in
    let n = Relation.n_rows r in
    let all_cols = List.init (Array.length r.Relation.cols) Fun.id in
    Relation.take r (Hash_util.first_rows r.Relation.cols all_cols ~n)
  | Window (sub, keys, name) ->
    Exec_vectorized.window_relation (stream ctx sub) keys name
  | Join { kind = JRight | JFull; _ } ->
    (* Rare in generated SQL; reuse the vectorized implementation. *)
    let vctx =
      { Exec_vectorized.catalog = ctx.catalog; ctes = ctx.ctes;
        threads = ctx.threads; on_rows = None }
    in
    Exec_vectorized.run vctx p
  | Scan name -> lookup ctx name
  | Filter _ | Project _ | Join _ | SemiJoin _ ->
    run_segment ctx (compile_segment ctx p)

and stream ctx (p : plan) : Relation.t = materialize ctx p

(* ------------------------------------------------------------------ *)
(* Aggregation sink                                                   *)
(* ------------------------------------------------------------------ *)

(* One partial per input chunk, folded and emitted in chunk order through
   {!Agg_util.fold} and {!Agg_util.emit}. The rows come from one of two
   sources: the fused kernel's base table ({!Kernel.fused_source}: its
   filters straight over the base columns, its arguments through compiled
   readers), or the aggregate's input segment — the selector ranges of a
   scan-shaped one, the morsels of a pipeline, or radix partitions of a
   materialized source's surviving rows. Either way the rows reach the
   same accumulators in the same order, so fused and unfused answers are
   identical. *)
and run_aggregate ctx (p : plan) sub groups specs : Relation.t =
  let specs = Array.of_list specs in
  let has_distinct = Array.exists (fun (s : agg_spec) -> s.distinct) specs in
  let threads = if has_distinct then 1 else ctx.threads in
  let fold ~n idxs source =
    Agg_util.fold ~size:(Agg_util.size_hint p.est n) specs idxs source
  in
  let chunked n fold_range =
    if n = 0 then [ fold_range 0 0 ]
    else Parallel.map_chunks ~threads n fold_range
  in
  (* The survivor loop: each chunk's rows of [cols] that pass [preds] and
     [tests], in ascending order, outside zone-dead blocks ([ztest]) — no
     morsel materializes. *)
  let scan ?ztest cols preds tests ~args ~idxs ~dense ~n =
    chunked n (fun start len ->
        fold ~n idxs (fun batch ->
            match Stats.alive_ranges ztest start (start + len - 1) with
            | [] -> ()
            | ranges ->
              let feed = batch dense args cols in
              let select = Kernel.selector cols preds tests in
              List.iter
                (fun (lo, hi) ->
                  select ~lo ~hi (fun idx k ->
                      for t = 0 to k - 1 do
                        feed (Array.unsafe_get idx t)
                      done))
                ranges))
  in
  let partials =
    match Kernel.fused_source ~catalog:ctx.catalog ~lookup:(lookup ctx) p with
    | Some f ->
      let cols = f.rel.Relation.cols in
      scan
        ?ztest:(Kernel.zone_test ctx.catalog cols f.filters)
        cols f.filters [] ~args:f.args ~idxs:f.gidx ~dense:f.dense
        ~n:(Relation.n_rows f.rel)
    | None -> (
      let seg = compile_segment ctx sub in
      let n = Relation.n_rows seg.source in
      let cols = seg.source.Relation.cols in
      let ztest = Kernel.zone_test ctx.catalog cols seg.prefilter in
      (* [cross_chunk]: a morsel's packed keys must mean the same in every
         other morsel *)
      let dense ~cross_chunk cols =
        Hash_util.dense_domain ~cross_chunk ~limit:(1 lsl 16) cols groups
      in
      match seg.transform with
      | Some _ ->
        (* every morsel is a batch: chunk columns are distinct gathers of
           the same columns, so dictionaries and key layouts agree *)
        chunked n (fun start len ->
            fold ~n groups (fun batch ->
                iter_morsels ?ztest seg start len (fun c ->
                    let cols = c.Relation.cols in
                    let feed =
                      batch
                        (dense ~cross_chunk:true cols)
                        (Agg_util.column_args specs cols)
                        cols
                    in
                    for row = 0 to Relation.n_rows c - 1 do
                      feed row
                    done)))
      | None -> (
        let args = Agg_util.column_args specs cols in
        let dense = dense ~cross_chunk:false cols in
        (* radix aggregation applies to a materialized source (a pipeline
           breaker's output, e.g. a partition-wise join) whose group domain
           is too wide for dense grouping — a global aggregate's empty key
           always packs. The source's surviving rows are what partitions;
           group keys are disjoint across partitions, so the merge only
           ever appends. *)
        let radix_parts =
          if
            has_distinct || Option.is_some ztest || Option.is_some dense
            || not (Radix.should ~rows:n ~threads)
          then None
          else
            let base, rows =
              match (seg.prefilter, seg.prescan) with
              | [], [] -> (Fun.id, n)
              | preds, tests ->
                let sel = Kernel.select ~threads cols preds tests ~n in
                (Array.get sel, Array.length sel)
            in
            Radix.group_parts ~threads ~base cols groups ~n:rows
        in
        match radix_parts with
        | Some parts ->
          Parallel.map_list ~threads
            (List.map
               (fun sel () ->
                 fold ~n:(Array.length sel) groups (fun batch ->
                     let feed = batch None args cols in
                     Array.iteri
                       (fun i row ->
                         if i land 8191 = 0 then Guard.check ();
                         feed row)
                       sel))
               (Array.to_list parts))
        | None ->
          scan ?ztest cols seg.prefilter seg.prescan ~args ~idxs:groups ~dense
            ~n))
  in
  Agg_util.emit specs p.schema partials

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let run_query ?(threads = 1) (catalog : Catalog.t) (bq : bound_query) :
    Relation.t =
  let ctx = { catalog; ctes = Hashtbl.create 8; threads } in
  List.iter
    (fun (name, plan) ->
      let r = stream ctx plan in
      let r = Relation.rename r (Array.map fst plan.Plan.schema) in
      Hashtbl.replace ctx.ctes name r)
    bq.ctes;
  let r = stream ctx bq.main in
  Relation.rename r (Array.map fst bq.main.Plan.schema)

(** Run a bare plan subtree (no CTEs) — the compiled-engine counterpart of
    [Exec_vectorized.run_plan]; the Matview differential tests cross-check
    delta streams through both executors. *)
let run_plan ?threads (catalog : Catalog.t) (p : Plan.plan) : Relation.t =
  run_query ?threads catalog { Plan.ctes = []; main = p }
