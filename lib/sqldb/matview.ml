(** Incrementally maintained materialized views: the delta engine.

    A registered query becomes a {e view}: its result is stored and kept
    fresh from appended rows alone, instead of re-executing the whole plan
    on every read after an ingest (which remains the fallback).

    {b One store of reused results.} A view is either registered by name
    ({!register}) or anonymous, holding one entry of [Db]'s result cache.
    Either way this module alone decides whether the stored result is
    stale and how it catches up; {!read} serves both. An entry's view is
    seeded with the result of the cache miss that made it ({!make}
    [~seed]): table versions, no stream state and no maintainability
    analysis, so a miss costs no more than the query. A read of fresh
    state returns it as stored. A stale state with stream state catches up
    by delta. A stale state without stream state (a seed, a plan the delta
    engine rejects), or read under settings with [ivm] off, is rebuilt in
    full with the plan and run functions its creator gave: a registered
    view parses and plans its SQL and runs on the vectorized engine at one
    thread; an entry plans through [Db]'s plan cache and runs on its own
    backend and thread count. A refresh runs under the reading query's
    settings. A rebuild re-decides maintainability on its plan, and one
    that is maintainable with [ivm] on replays the stream and keeps its
    state, so an entry's first stale read promotes it and later ones are
    deltas.

    {b Shape.} The planner splits a maintainable plan at its pipeline
    breaker ({!Planner.analyze_ivm}): a select-project-join {e stream}
    below the view's Aggregate, and a {e finish} chain above it (HAVING,
    projections, sorts, limits). View state is one hashed
    {!Agg_util.groups} — the executors' key table plus slot states —
    produced by folding the stream's output rows in order; a view without
    GROUP BY keys every row to its one group, which is emitted even over
    an empty stream. The user-visible result is the finish chain run over
    {!Agg_util.groups_relation} — O(result), by the ordinary executor.
    Pure filter/project views accumulate the stream rows themselves.

    {b Delta derivation.} Appends only ever add rows at the end of a base
    table, so the delta of table [T] is the row range [old_n, new_n) — a
    slice whose numeric and code vectors are views of the table's. A
    refresh never rewrites the plan: it re-runs the same bound stream
    against a {e hybrid catalog} ({!Catalog.import}) that binds one table
    to its delta slice and every other table to either the current
    snapshot or the snapshot pinned at the last refresh. For
    changed tables [T1..Tn] (in the stream's left-to-right probe order) the
    standard telescoping delta rule applies: term [i] binds tables before
    [Ti] to the {e new} snapshot, [Ti] to its delta, and tables after [Ti]
    to the {e old} pinned snapshot; the terms' outputs are replayed into
    the group state in order.

    {b Retained builds.} The refresh picks the build side of every inner
    join through the [builds] hook of {!Exec_vectorized.run_plan}: the
    right input, as without the hook, unless only the right input reads a
    changed table, and then the left input, which the right one probes
    (q12 builds over orders and probes with the lineitem delta). An input
    that reads no changed table binds to the current snapshot in every
    term, so its build is made on first need, shared by the terms, and
    kept in the stream state stamped with the key columns it hashes and
    the version of every base table under the input. A later refresh
    reuses it for the same input on the same keys while those versions
    are current, skipping the subtree and its hash build, so an append
    refreshes in O(delta) whenever every join has an input it left
    unchanged. A build over a changed table is made per term and not
    kept.

    {b Exactness.} Every stream chunk feeds the group state through
    {!Agg_util.groups_feeder}, the executors' own grouped fold — the same
    count-before-body / null-skip / Neumaier-compensated updates, and a
    DISTINCT aggregate's (group, value) set. When appends hit only the
    stream's driver (leftmost probe-spine) table, both executors emit the
    delta rows as a literal suffix of the full stream, so the incremental
    fold is a prefix-continuation of the recompute fold and the state is
    {e bit-identical} to recomputing on the final snapshot. When a
    non-driver (build-side) table grows, the delta-rule terms see the same
    multiset of rows in a different interleaving (a term that builds over
    the left input emits its pairs in delta-row order): results are exact
    up to compensated-summation rounding (~1 ulp), which output rounding
    absorbs.

    {b Crash safety.} A refresh deep-copies the group state
    ({!Agg_util.groups_copy}), replays into the copy, and installs the new
    state, with the builds it made, only after every term (and the finish
    run) succeeded. A fault or tripped {!Guard} mid-refresh unwinds and
    leaves the view at its previous consistent version and builds;
    injected faults are retried once with injection suppressed
    ({!Faults.retry_once}), as in [Db.execute]. *)

(* The fold a delta refresh continues. *)
type acc =
  | Groups of int list * Agg_util.groups
      (* aggregate views: the GROUP BY key columns and the group state *)
  | Rows of Relation.t (* filter/project views: the stream rows *)

(* A join build side kept across refreshes: the build a delta term made
   over [input] on its key columns [keys], and the version of every base
   table under [input] when it was made. *)
type retained = {
  input : Plan.plan; (* physically one input of a stream join *)
  keys : int list;
  build : Exec_vectorized.build;
  stamps : (string * int) list;
}

type stream = {
  shape : Planner.ivm_shape; (* the split [acc] was folded under *)
  acc : acc;
  rows_at : (string * int) list; (* row counts, in stream table order *)
  pinned : Catalog.t; (* the snapshot [acc] reflects *)
  builds : retained list; (* at most one per join *)
}

type state = {
  deps : (string * int) list; (* table versions [result] was computed at *)
  stream : stream option; (* None: a stale state is rebuilt in full *)
  version : int; (* view state version, ticks per refresh *)
  result : Relation.t; (* finished, user-visible result *)
}

type t = {
  v_name : string;
  v_owner : string option;
  v_plan : Settings.t -> Catalog.t -> Plan.bound_query; (* full rebuild: plan *)
  v_run : Settings.t -> Catalog.t -> Plan.bound_query -> Relation.t;
      (* full rebuild: run *)
  v_lock : Mutex.t; (* guards all mutable fields below *)
  mutable v_ivm : (Planner.ivm_shape, Planner.ivm_reason) result option;
      (* {!Planner.analyze_ivm} on the last rebuild's plan; None before one *)
  mutable v_state : state option;
  mutable v_dirty_replace : bool; (* a dep was replaced: plans are stale *)
  mutable v_hits : int; (* reads served from fresh state *)
  mutable v_deltas : int; (* incremental (suffix / delta-rule) refreshes *)
  mutable v_recomputes : int; (* full rebuilds after the first *)
}

type served = [ `Hit | `Delta | `Recompute | `Init ]

let name v = v.v_name
let owner v = v.v_owner
let maintainable v = match v.v_ivm with Some (Ok _) -> true | _ -> false

let reason_string v =
  match v.v_ivm with
  | Some (Error r) -> Some (Planner.ivm_reason_to_string r)
  | _ -> None

let counters v = (v.v_hits, v.v_deltas, v.v_recomputes)

let current_version v =
  match v.v_state with Some st -> st.version | None -> 0

(* The two readers below take no lock: [Db] calls them under its own lock,
   which a view's reader may take while holding the view's (planning binds
   through the plan cache), so taking the view's here could deadlock. A
   racy read sees the state before or after a concurrent install. *)

(** Whether the stored state can catch up by delta: it holds stream state. *)
let maintained v =
  match v.v_state with Some { stream = Some _; _ } -> true | _ -> false

(** The base tables the stored result was computed from. *)
let tables v =
  match v.v_state with Some st -> List.map fst st.deps | None -> []

(** The stored result as of the last completed refresh, without refreshing:
    what a reader observes after a crashed delta refresh. *)
let peek v : Relation.t option =
  Mutex.lock v.v_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock v.v_lock)
    (fun () -> Option.map (fun st -> st.result) v.v_state)

(* ------------------------------------------------------------------ *)
(* Replay: the one fold that defines view state                       *)
(* ------------------------------------------------------------------ *)

(* Fold one stream chunk into the group state [g], in row order, through
   the executors' grouping: rows find their group in its key table, which
   compares values whatever their layout (so dictionary codes private to
   one chunk never key a group, and -0.0 = 0.0), and each spec folds
   through its slot state — a DISTINCT one through its (group, value) set.
   A view with no GROUP BY keys everything to its one group. *)
let replay ~(groups_idx : int list) (g : Agg_util.groups) (chunk : Relation.t)
    : unit =
  let cols = chunk.Relation.cols in
  let n = Relation.n_rows chunk in
  let feed =
    Agg_util.groups_feeder g
      (Agg_util.column_args g.Agg_util.specs cols)
      cols groups_idx
  in
  for row = 0 to n - 1 do
    if row land 4095 = 0 then Guard.check ();
    feed row
  done;
  Guard.add_rows n

(* ------------------------------------------------------------------ *)
(* Finishing the group state into the user-visible result           *)
(* ------------------------------------------------------------------ *)

(* Run the finish chain over a replacement input: register the relation as
   the one table of a scratch catalog and execute rebuild(Scan __mv). *)
let run_finish settings (shape : Planner.ivm_shape) (schema : Plan.schema)
    (rel : Relation.t) : Relation.t =
  let finish = shape.Planner.ivm_rebuild (Plan.mk (Plan.Scan "__mv") schema) in
  match finish.Plan.node with
  | Plan.Scan _ -> rel (* identity finish chain *)
  | _ ->
    let scratch = Catalog.create () in
    Catalog.add_transient scratch "__mv" rel;
    Exec_vectorized.run_plan ~threads:1 ~settings scratch finish

let groups_result settings (shape : Planner.ivm_shape) (g : Agg_util.groups) :
    Relation.t =
  match shape.Planner.ivm_agg with
  | None -> invalid_arg "Matview.groups_result: not an aggregate view"
  | Some (_, _, agg_schema) ->
    run_finish settings shape agg_schema (Agg_util.groups_relation g agg_schema)

let spj_result settings (shape : Planner.ivm_shape) (rows : Relation.t) :
    Relation.t =
  run_finish settings shape shape.Planner.ivm_stream.Plan.schema rows

(* ------------------------------------------------------------------ *)
(* Refresh strategies                                                 *)
(* ------------------------------------------------------------------ *)

let stamp_deps cat tables =
  List.filter_map
    (fun n -> Option.map (fun v -> (n, v)) (Catalog.table_version cat n))
    tables

let stamp_rows cat tables =
  List.map (fun n -> (n, Relation.n_rows (Catalog.relation cat n))) tables

(* Rows [from, length c) of column [c]. Int, float and code vectors are
   zero-copy views of [c]'s ([Bigarray.Array1.sub]); raw strings, bools
   and null bits copy only the suffix. A view is safe under in-place
   appends: the cells a version holds are never rewritten
   ({!Column.room}). *)
let column_suffix (c : Column.t) ~from : Column.t =
  let k = Column.length c - from in
  let nulls =
    match c.Column.nulls with
    | None -> None
    | Some sm ->
      let m = Bitset.create k in
      for i = 0 to k - 1 do
        if Bitset.get sm (from + i) then Bitset.set m i
      done;
      if Bitset.is_empty m then None else Some m
  in
  let data =
    match c.Column.data with
    | Column.I v -> Column.I (Bigarray.Array1.sub v from k)
    | Column.F v -> Column.F (Bigarray.Array1.sub v from k)
    | Column.D (v, d) -> Column.D (Bigarray.Array1.sub v from k, d)
    | Column.S a -> Column.S (Array.sub a from k)
    | Column.B a -> Column.B (Array.sub a from k)
  in
  { c with Column.data; nulls }

(* The suffix [from..n) of a base table, the delta of an append. *)
let delta_slice cat name ~from : Relation.t =
  let rel = Catalog.relation cat name in
  { rel with Relation.cols = Array.map (column_suffix ~from) rel.Relation.cols }

(* Hybrid catalog for delta-rule term [ti]: stream tables before [ti] bind
   to the new snapshot, [ti] to its delta slice, tables after [ti] to the
   old pinned snapshot. Unchanged tables are identical in both snapshots,
   so only the changed tables' positions matter. *)
let term_catalog (s : stream) (cat : Catalog.t) ~(changed : string list)
    (ti : string) : Catalog.t =
  let c = Catalog.create () in
  let before = ref true in
  List.iter
    (fun n ->
      if n = ti then begin
        Catalog.add_transient c n
          (delta_slice cat n ~from:(List.assoc n s.rows_at));
        before := false
      end
      else if List.mem n changed then
        Catalog.import c ~src:(if !before then cat else s.pinned) n
      else Catalog.import c ~src:cat n)
    s.shape.Planner.ivm_tables;
  c

let next_version v = 1 + match v.v_state with Some st -> st.version | None -> 0

(* The next state of [view]: [result] as of snapshot [cat] of [tables],
   with [acc] folded under [shape] and [builds] kept when the view is
   maintained. *)
let next_state (view : t) (cat : Catalog.t) tables ?stream result =
  { deps = stamp_deps cat tables;
    stream =
      Option.map
        (fun (shape, acc, builds) ->
          { shape; acc; rows_at = stamp_rows cat tables;
            pinned = Catalog.pin cat; builds })
        stream;
    version = next_version view;
    result }

(* Full build of a maintainable view's state on [cat] by replaying the
   whole stream — the same fold a delta refresh continues, so the two are
   comparable bit for bit. *)
let build_full settings (view : t) (shape : Planner.ivm_shape)
    (cat : Catalog.t) : state =
  let stream =
    Exec_vectorized.run_plan ~threads:1 ~settings cat shape.Planner.ivm_stream
  in
  let next acc =
    next_state view cat shape.Planner.ivm_tables ~stream:(shape, acc, [])
  in
  match shape.Planner.ivm_agg with
  | Some (gidx, specs, _) ->
    let specs = Array.of_list specs and cols = stream.Relation.cols in
    let g =
      Agg_util.groups_create specs (Agg_util.column_args specs cols) cols gidx
    in
    replay ~groups_idx:gidx g stream;
    next (Groups (gidx, g)) (groups_result settings shape g)
  | None ->
    let rows = Relation.decode_strings stream in
    next (Rows rows) (spj_result settings shape rows)

(* Full rebuild on [cat]: the first build, and a stale read of a state
   without stream state, over a replaced dep, or with [ivm] off. It
   plans afresh with the creator's function, since a replaced table may
   have a new schema, and re-decides maintainability on that plan. A
   maintainable plan with [ivm] on replays the stream and keeps the state
   for later deltas; any other plan runs with the creator's function. *)
let rebuild (settings : Settings.t) (view : t) (cat : Catalog.t) : state =
  (* Cleared before planning, so a replace during the rebuild flags the
     view again; restored on failure, so the next read cannot apply a
     delta over a replaced table to the state kept from before it. *)
  let replaced = view.v_dirty_replace in
  view.v_dirty_replace <- false;
  try
    let bq = view.v_plan settings cat in
    let ivm = Planner.analyze_ivm bq in
    view.v_ivm <- Some ivm;
    match ivm with
    | Ok shape when settings.ivm -> build_full settings view shape cat
    | _ ->
      next_state view cat (Plan.bound_tables bq) (view.v_run settings cat bq)
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    if replaced then view.v_dirty_replace <- true;
    Printexc.raise_with_backtrace e bt

(* Observability: rows of the join build sides that delta refreshes made
   since the last reset, so a test can pin a refresh to building nothing
   over the tables an append left unchanged. *)
let built = Atomic.make 0
let reset_build_rows () = Atomic.set built 0
let build_rows () = Atomic.get built

(* Incremental refresh: replay each changed table's delta-rule term into a
   deep copy of the stream state, then finish and install. A join builds
   over its left input when only its right input reads a changed table,
   and over its right input otherwise. An input that reads no changed
   table binds to [cat] in every term, so its build is shared by the terms
   and kept for later refreshes while the versions it was made at are
   current; a build over a changed table is made per term. *)
let delta_refresh settings (view : t) (s : stream) (cat : Catalog.t)
    ~(changed : string list) : state =
  let shape = s.shape in
  let made = ref [] (* kept only if this refresh installs its state *) in
  let reads_changed p =
    List.exists (fun t -> List.mem t changed) (Planner.ivm_scans p)
  in
  let builds ((left, _) as l) ((right, _) as r) make =
    let side, (input, keys) =
      if reads_changed right && not (reads_changed left) then
        (Exec_vectorized.Build_left, l)
      else (Exec_vectorized.Build_right, r)
    in
    let make () =
      let b = make side in
      let rows = Exec_vectorized.srel_nrows b.Exec_vectorized.side in
      ignore (Atomic.fetch_and_add built rows);
      b
    in
    if reads_changed input then (side, make ())
    else begin
      let stamps = stamp_deps cat (Planner.ivm_scans input) in
      let current r = r.input == input && r.keys = keys && r.stamps = stamps in
      match List.find_opt current (!made @ s.builds) with
      | Some r -> (side, r.build)
      | None ->
        let build = make () in
        made := { input; keys; build; stamps } :: !made;
        (side, build)
    end
  in
  (* the delta-rule terms' streams, in stream table order *)
  let terms =
    List.filter_map
      (fun ti ->
        if List.mem ti changed then
          Some
            (Exec_vectorized.run_plan ~threads:1 ~settings ~builds
               (term_catalog s cat ~changed ti)
               shape.Planner.ivm_stream)
        else None)
      shape.Planner.ivm_tables
  in
  let next acc =
    let kept =
      List.filter
        (fun r ->
          not
            (List.exists
               (fun m -> m.input == r.input && m.keys = r.keys)
               !made))
        s.builds
    in
    next_state view cat shape.Planner.ivm_tables
      ~stream:(shape, acc, !made @ kept)
  in
  match s.acc with
  | Groups (gidx, g) ->
    let g = Agg_util.groups_copy g in
    List.iter (replay ~groups_idx:gidx g) terms;
    next (Groups (gidx, g)) (groups_result settings shape g)
  | Rows rows ->
    let fresh = List.map Relation.decode_strings terms in
    let rows = Relation.concat ~grain:settings.Settings.grain (rows :: fresh) in
    next (Rows rows) (spj_result settings shape rows)

(* ------------------------------------------------------------------ *)
(* Read path                                                          *)
(* ------------------------------------------------------------------ *)

type plan_of_action =
  | Fresh of state
  | Append of stream * string list
  | Full of bool (* true = initial build *)

(* Decide how to serve a read against [cat]: the one staleness check for
   every stored result. Appends are recognised by grown row counts on
   unchanged-schema tables; anything else — replaced deps (flagged by
   [note_replaced]), dropped tables, shrunk row counts, [ivm] off, or a
   state without stream state — rebuilds in full. *)
let classify ~ivm (view : t) (cat : Catalog.t) : plan_of_action =
  match view.v_state with
  | None -> Full true
  | Some st -> (
    if
      List.for_all
        (fun (n, ver) -> Catalog.table_version cat n = Some ver)
        st.deps
    then Fresh st
    else
      match st.stream with
      | Some s when ivm && not view.v_dirty_replace ->
        let ok = ref true in
        let changed =
          List.filter_map
            (fun (n, old_rows) ->
              match
                (Catalog.table_version cat n, List.assoc_opt n st.deps)
              with
              | None, _ ->
                ok := false;
                None
              | Some v, Some v0 when v = v0 -> None
              | Some _, _ ->
                if Relation.n_rows (Catalog.relation cat n) > old_rows then
                  Some n
                else begin
                  ok := false;
                  None
                end)
            s.rows_at
        in
        if !ok && changed <> [] then Append (s, changed) else Full false
      | _ -> Full false)

(* Run refresh [f] and install the state it returns; nothing is installed
   if it fails. Call with the view's lock held. *)
let refresh (view : t) f : Relation.t =
  let st =
    Faults.retry_once (fun () ->
        Faults.crash_point ~site:"matview.refresh";
        f ())
  in
  view.v_state <- Some st;
  st.result

(** Serve the view against snapshot [cat], refreshing first if stale,
    under the reading query's [settings]. Returns the result and how it
    was produced (for counters). Must be called with the catalog already
    pinned. An injected fault is retried once with injection suppressed
    ({!Faults.retry_once}); a Guard trip unwinds to the caller with the
    view still at its previous version. *)
let read (view : t) ~(settings : Settings.t) ~(cat : Catalog.t) :
    Relation.t * served =
  Mutex.lock view.v_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock view.v_lock)
    (fun () ->
      match classify ~ivm:settings.ivm view cat with
      | Fresh st ->
        view.v_hits <- view.v_hits + 1;
        (st.result, `Hit)
      | Append (s, changed) ->
        let r =
          refresh view (fun () -> delta_refresh settings view s cat ~changed)
        in
        view.v_deltas <- view.v_deltas + 1;
        (r, `Delta)
      | Full initial ->
        let r = refresh view (fun () -> rebuild settings view cat) in
        if initial then (r, `Init)
        else begin
          view.v_recomputes <- view.v_recomputes + 1;
          (r, `Recompute)
        end)

(** A view whose full rebuilds plan with [plan] and run with [run] any
    plan they do not replay as a stream. Without [seed] the state is built
    at the first {!read}. [seed] = [(cat, bq, result)] stores [result],
    computed by the caller from [bq] on snapshot [cat]: it stamps the
    versions of the tables [bq] scans and holds no stream state, so the
    first stale read rebuilds in full. [register] names and indexes views
    made here; [Db.execute] keeps seeded ones on its result-cache
    entries. *)
let make ?owner ?seed ~name ~plan ~run () : t =
  let v =
    { v_name = name;
      v_owner = owner;
      v_plan = plan;
      v_run = run;
      v_lock = Mutex.create ();
      v_ivm = None;
      v_state = None;
      v_dirty_replace = false;
      v_hits = 0;
      v_deltas = 0;
      v_recomputes = 0 }
  in
  Option.iter
    (fun (cat, bq, result) ->
      v.v_state <- Some (next_state v cat (Plan.bound_tables bq) result))
    seed;
  v

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

type registry = {
  views : (string, t) Hashtbl.t; (* by view name *)
  by_key : (string, string) Hashtbl.t; (* constant-identity key -> name *)
  rlock : Mutex.t;
}

let create_registry () =
  { views = Hashtbl.create 8; by_key = Hashtbl.create 8;
    rlock = Mutex.create () }

let rlocked reg f =
  Mutex.lock reg.rlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.rlock) f

let size reg = rlocked reg (fun () -> Hashtbl.length reg.views)
let find reg name = rlocked reg (fun () -> Hashtbl.find_opt reg.views name)

let find_by_key reg key =
  rlocked reg (fun () ->
      Option.bind
        (Hashtbl.find_opt reg.by_key key)
        (Hashtbl.find_opt reg.views))

let list reg =
  rlocked reg (fun () ->
      List.sort
        (fun a b -> String.compare a.v_name b.v_name)
        (Hashtbl.fold (fun _ v acc -> v :: acc) reg.views []))

(** Register [sql] as view [name] and build its initial state eagerly (so
    the first read is a hit). [key] is the caller's constant-identity key
    ({!Sql_shape.key}): [Db.execute] routes matching queries to the view
    through it.
    [quota] bounds the number of views [owner] may hold — views are
    charged against the tenant's cache quota. *)
let register reg ~(settings : Settings.t) ~(cat : Catalog.t) ?owner ?quota
    ~name ~sql ~key () : (t, string) result =
  rlocked reg (fun () ->
      if Hashtbl.mem reg.views name then
        Error (Printf.sprintf "view %s already registered" name)
      else begin
        let over_quota =
          match (owner, quota) with
          | Some o, Some q ->
            let owned =
              Hashtbl.fold
                (fun _ v n -> if v.v_owner = Some o then n + 1 else n)
                reg.views 0
            in
            owned >= max 1 q
          | _ -> false
        in
        if over_quota then
          Error
            (Printf.sprintf "view quota exceeded for %s"
               (Option.value ~default:"?" owner))
        else begin
          let v =
            make ?owner ~name
              ~plan:(fun _ cat -> Planner.plan_query cat (Sql_parse.parse sql))
              ~run:(fun settings cat bq ->
                Exec_vectorized.run_query ~threads:1 ~settings cat bq)
              ()
          in
          ignore (read v ~settings ~cat);
          Hashtbl.replace reg.views name v;
          Hashtbl.replace reg.by_key key name;
          Ok v
        end
      end)

(** A base table was replaced (schema may have changed): force every view
    depending on it through the full recompute-and-replan path at its next
    read. *)
let note_replaced reg tname =
  rlocked reg (fun () ->
      Hashtbl.iter
        (fun _ v ->
          if List.mem tname (tables v) then
            v.v_dirty_replace <- true)
        reg.views)
