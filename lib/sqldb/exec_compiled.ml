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
  settings : Settings.t;
}

type chunk = Relation.t

(* ------------------------------------------------------------------ *)
(* Chunk operators                                                    *)
(* ------------------------------------------------------------------ *)

(* Chunk operators return [Some empty] for empty inputs so segment schemas
   stay derivable; non-empty inputs filtered to nothing return [None]. *)
let chunk_filter settings pred (c : chunk) : chunk option =
  let n = Relation.n_rows c in
  if n = 0 then Some c
  else
    let idx =
      Kernel.select ~settings ~threads:1 c.Relation.cols [ pred ] [] ~n
    in
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

(* Inner or left probe of a pre-built (possibly radix-partitioned) build
   side on the right relation. A left probe pads each unmatched row in
   place and its residual decides which pairs match; an inner join's
   residual filters the joined morsel. *)
let chunk_probe settings ~left_outer (r : Relation.t) (tbl : Radix.t)
    (lkeys : int list) (residual : pexpr option) (c : chunk) : chunk option =
  let n = Relation.n_rows c in
  let cols = c.Relation.cols in
  let out = Join.pairs () in
  (if left_outer then
     (* compiled per chunk: chunks run on many domains *)
     let residual = Option.map (Eval.pair_pred cols r.Relation.cols) residual in
     Join.probe ?residual Join.Left tbl cols lkeys ~lo:0 ~hi:n out
   else Join.probe Join.Inner tbl cols lkeys ~lo:0 ~hi:n out);
  if out.total = 0 && n > 0 then None
  else
    let li, ri = Join.contents [ out ] in
    let joined =
      { Relation.names = Array.append c.Relation.names r.Relation.names;
        cols =
          Array.append
            (Array.map (fun col -> Column.take col li) cols)
            (Array.map (fun col -> Column.take col ri) r.Relation.cols) }
    in
    match residual with
    | Some pred when not left_outer -> chunk_filter settings pred joined
    | _ -> Some joined

let chunk_semi ~anti (r : Relation.t) (tbl : Radix.t) (lkeys : int list)
    (residual : pexpr option) (c : chunk) : chunk option =
  let n = Relation.n_rows c in
  let residual =
    Option.map (Eval.pair_pred c.Relation.cols r.Relation.cols) residual
  in
  let out = Join.pairs () in
  Join.probe ?residual
    (if anti then Join.Anti else Join.Semi)
    tbl c.Relation.cols lkeys ~lo:0 ~hi:n out;
  if out.total = 0 && n > 0 then None
  else Some (Relation.take c (fst (Join.contents [ out ])))

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
    else seg_then seg (chunk_filter ctx.settings pred)
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
       one table (threshold in Radix.should); no keys make a cross join *)
    let tbl =
      Radix.build ~settings:ctx.settings ~threads:ctx.threads r.Relation.cols
        (List.map snd keys) ~n:(Relation.n_rows r)
    in
    let lkeys = List.map fst keys in
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
    seg_then seg
      (chunk_probe ctx.settings ~left_outer:(kind = JLeft) r tbl lkeys
         residual)
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
    let lcols = lrel.Relation.cols and rcols = r.Relation.cols in
    let lkeys = List.map fst keys and rkeys = List.map snd keys in
    let threads = ctx.threads and settings = ctx.settings in
    let keep =
      if nr > 2 * nl then begin
        let ltbl = Radix.build ~settings ~threads lcols lkeys ~n:nl in
        let matched = Bitset.create nl in
        Join.probe (Join.Mark matched) ltbl rcols rkeys ~lo:0 ~hi:nr
          (Join.pairs ());
        Join.marked ~anti matched ~n:nl
      end
      else
        fst
          (Join.collect ~grain:settings.grain ~threads
             (if anti then Join.Anti else Join.Semi)
             (Radix.build ~settings ~threads rcols rkeys ~n:nr)
             lcols lkeys ~n:nl)
    in
    let source =
      { Relation.names = lrel.Relation.names;
        cols = Array.map (fun c -> Column.take c keep) lcols }
    in
    { source; prefilter = []; prescan = []; transform = None }
  | SemiJoin { anti; left; right; keys; residual } ->
    let r = stream ctx right in
    let seg = compile_segment ctx left in
    let tbl =
      Radix.build ~settings:ctx.settings ~threads:ctx.threads r.Relation.cols
        (List.map snd keys) ~n:(Relation.n_rows r)
    in
    let lkeys = List.map fst keys in
    (* Semi joins keep only matched rows: bloom misses are safe to drop at
       the scan. Anti joins keep exactly the misses — no pushdown. *)
    let seg =
      match (anti, lkeys, seg.transform) with
      | false, [ lk ], None ->
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
and iter_morsels ~fuse ?ztest (seg : segment) start len
    (consume : chunk -> unit) : unit =
  let transform = seg_transform seg in
  let select =
    Kernel.selector ~fuse seg.source.Relation.cols seg.prefilter seg.prescan
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
    iter_morsels ~fuse:ctx.settings.fuse ?ztest seg start len (fun c ->
        out := c :: !out);
    List.rev !out
  in
  let grain = ctx.settings.grain in
  let chunks =
    List.concat (Parallel.map_chunks ~grain ~threads:ctx.threads n run_range)
  in
  match chunks with
  | [] -> (
    (* Empty result: derive the output schema by pushing an empty chunk
       through the transformer (chunk operators pass empty chunks through). *)
    let empty = Relation.take seg.source [||] in
    match (seg_transform seg) empty with
    | Some c -> c
    | None -> empty)
  | chunks -> Relation.concat ~grain ~threads:ctx.threads chunks

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
        threads = ctx.threads; settings = ctx.settings; hooks = None }
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
  let settings = ctx.settings in
  let grain = settings.grain in
  let fold ~clustered ~n idxs source =
    Agg_util.fold ~size:(Agg_util.size_hint p.est n) ~clustered specs idxs
      source
  in
  (* The survivor loop: each chunk's rows of [cols] that pass [preds] and
     [tests], in ascending order, outside zone-dead blocks ([ztest]) — no
     morsel materializes. A DISTINCT aggregate runs as one chunk, so its
     rows arrive in base-row order: when the base key column brings each
     group as one run, so do the survivors. *)
  let scan ?ztest cols preds tests ~args ~idxs ~dense ~n =
    let clustered = has_distinct && Agg_util.in_runs cols idxs ~n Fun.id in
    Parallel.map_chunks ~merged:true ~grain:settings.grain ~threads n
      (fun start len ->
        fold ~clustered ~n idxs (fun batch ->
            match Stats.alive_ranges ztest start (start + len - 1) with
            | [] -> ()
            | ranges ->
              let feed = batch dense args cols in
              let select =
                Kernel.selector ~fuse:settings.fuse cols preds tests
              in
              List.iter
                (fun (lo, hi) ->
                  select ~lo ~hi (fun idx k ->
                      for t = 0 to k - 1 do
                        feed (Array.unsafe_get idx t)
                      done))
                ranges))
  in
  let partials =
    match
      Kernel.fused_source ~fuse:settings.fuse ~catalog:ctx.catalog
        ~lookup:(lookup ctx) p
    with
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
           the same columns, so dictionaries and key layouts agree; what
           the transform does to the order of keys goes unchecked, so a
           DISTINCT spec keeps its key-table set *)
        Parallel.map_chunks ~merged:true ~grain ~threads n (fun start len ->
            fold ~clustered:false ~n groups (fun batch ->
                iter_morsels ~fuse:settings.fuse ?ztest seg start len (fun c ->
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
            || not (Radix.should settings ~rows:n ~threads)
          then None
          else
            let base, rows =
              match (seg.prefilter, seg.prescan) with
              | [], [] -> (Fun.id, n)
              | preds, tests ->
                let sel =
                  Kernel.select ~settings ~threads cols preds tests ~n
                in
                (Array.get sel, Array.length sel)
            in
            Radix.group_parts ~settings ~threads ~base cols groups ~n:rows
        in
        match radix_parts with
        | Some parts ->
          Parallel.map_list ~grain ~threads ~rows:n
            (fun sel ->
              fold ~clustered:false ~n:(Array.length sel) groups (fun batch ->
                  let feed = batch None args cols in
                  Array.iteri
                    (fun i row ->
                      if i land 8191 = 0 then Guard.check ();
                      feed row)
                    sel))
            (Array.to_list parts)
        | None ->
          scan ?ztest cols seg.prefilter seg.prescan ~args ~idxs:groups ~dense
            ~n))
  in
  Agg_util.emit specs p.schema partials

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let run_query ?(threads = 1) ?(settings = Settings.default)
    (catalog : Catalog.t) (bq : bound_query) : Relation.t =
  let ctx = { catalog; ctes = Hashtbl.create 8; threads; settings } in
  List.iter
    (fun (name, plan) ->
      let r = stream ctx plan in
      let r = Relation.rename r (Array.map fst plan.Plan.schema) in
      Hashtbl.replace ctx.ctes name r)
    bq.ctes;
  let r = stream ctx bq.main in
  Relation.rename r (Array.map fst bq.main.Plan.schema)
