(** Engine facade: load tables, execute SQL text on a chosen backend.

    Backends model the execution paradigms of the paper's engines:
    - [Vectorized] — DuckDB-like operator-at-a-time columnar execution;
    - [Compiled] — Hyper-like fused pipelines (morsel-driven);
    - [Lingo] — the compiled engine with window functions disabled,
      reproducing LingoDB's missing [row_number] support (paper §V-A).

    {b Snapshot isolation.} Every execution pins the catalog
    ({!Catalog.pin}) before planning, so the whole query — plan, zone-map
    resolution, scans — sees one immutable snapshot even while concurrent
    ingests swap new versions in. {!load_table} replaces a table;
    {!append_table} is the schema-preserving write path. Readers never
    block on writes.

    {b Reuse.} {!execute} tries three layers in order, all keyed by one
    {!Sql_shape} fingerprint pass: a registered materialized view, then a
    bounded LRU result cache keyed by the query's constant identity,
    backend and thread count, then the parameterized plan cache, which is
    the only place plans are reused. Text the fingerprint rejects runs
    uncached. Every stored result, a registered view's or a cache entry's,
    is a {!Matview.t}, and {!Matview.read} alone decides whether it is
    stale and how it catches up. A cache miss plans (or binds a template)
    and executes as if uncached, then seeds an anonymous view with the
    result. A later read returns the stored result while the tables it
    was computed from are unchanged. After an append into one of them the
    first stale read rebuilds in full: it plans through the plan cache,
    executes on the entry's backend and thread count, and, when
    {!Planner.analyze_ivm} accepts the plan and IVM is on, replays the
    stream into a state the delta engine continues. Every later stale read
    of such an entry applies the appended rows by delta, counted in
    [delta_refreshes]; the others rebuild in full again. [plan_hits] means
    "result recomputed after an append": the full rebuilds of stale
    entries, so a maintainable entry's one view build counts there. Entry
    views live and die with their entries (LRU eviction, tenant quota,
    replace) and never appear in the view registry. Replacing a table
    drops its result entries and templates outright (schema may change).
    Both caches share one LRU policy with a per-owner quota, so one tenant
    cannot crowd out the others. Cache state is mutex-protected; both
    caches stand down under fault injection and can be switched off with
    the [cache] / [plancache] fields of the database's or the query's
    {!Settings.t}.

    {b Settings.} A database holds one {!Settings.t}, kept by its
    snapshots; {!execute} may override it for one query, whose settings
    then decide every layer above. Ingest reads the database's. *)

type backend = Vectorized | Compiled | Lingo

exception Unsupported of string

let backend_name = function
  | Vectorized -> "duckdb-sim"
  | Compiled -> "hyper-sim"
  | Lingo -> "lingodb-sim"

(* ------------------------------------------------------------------ *)
(* Query cache                                                        *)
(* ------------------------------------------------------------------ *)

let cache_cap = 64

type cache_entry = {
  owner : string option; (* tenant the entry is charged to, if any *)
  view : Matview.t; (* the stored result; knows its staleness *)
  mutable tick : int; (* LRU clock *)
}

(* ---- Parameterized plan cache (shape-keyed) ----------------------- *)

let plan_cache_cap = 64

(* Bound on sibling specializations one shape may hold: guard signatures
   are selectivity-bucket tuples, so the space is small, but a pathological
   workload sweeping constants across every bucket must not grow an entry
   without limit. *)
let max_specializations = 16

(* One cached template per (backend, threads, shape, param types): the
   planned artifact for a query {e shape} ({!Sql_shape}), with parameter
   slots still open. Executing a cache hit = substitute constants into the
   template ({!Plan.bind_query}) — no reparse, no replan. [pe_guards] are
   the selectivity assumptions the template's plan shape depends on; a
   binding whose guard signature differs from [pe_sig] is planned afresh
   with its own constants and remembered in [pe_specials] under that
   signature, so the shared entry is never poisoned by an outlier
   constant. *)
type plan_entry = {
  pe_shape : string;
  pe_owner : string option;
  pe_template : Plan.bound_query;
  pe_guards : Planner.plan_guard list;
  pe_sig : string; (* guard signature of the constants planned at *)
  pe_specials : (string, Plan.bound_query) Hashtbl.t;
  pe_tables : string list; (* dropped when any of these is replaced *)
  mutable pe_tick : int; (* LRU clock *)
}

(* Per-tenant slice of the counters, so the server's [.stats] can report
   hit rates per tenant without instrumenting the tests. *)
type owner_counters = {
  mutable o_hits : int;
  mutable o_plan_hits : int;
  mutable o_misses : int;
  mutable o_view_hits : int;
  mutable o_delta_refreshes : int;
  mutable o_bind_hits : int; (* plan-cache template binds *)
}

type t = {
  catalog : Catalog.t;
  settings : Settings.t;
  cache : (string, cache_entry) Hashtbl.t;
  plans : (string, plan_entry) Hashtbl.t; (* parameterized plan cache *)
  views : Matview.registry; (* incrementally maintained views *)
  lock : Mutex.t; (* guards cache + counters; never held during execution *)
  mutable clock : int;
  mutable hits : int; (* full result served *)
  mutable plan_hits : int; (* result recomputed after an append *)
  mutable misses : int;
  mutable evictions : int;
  mutable view_hits : int; (* reads served from a fresh materialized view *)
  mutable delta_refreshes : int;
      (* incremental refreshes of registered views and cache entries *)
  mutable view_recomputes : int; (* view fallback full re-executions *)
  mutable bind_hits : int; (* plan-cache template bound, no replan *)
  mutable bind_misses : int; (* shape planned cold (new template) *)
  mutable guard_trips : int; (* out-of-range constant: specialized replan *)
  owners : (string, owner_counters) Hashtbl.t;
}

type cache_stats = {
  hits : int;
  plan_hits : int;
  misses : int;
  evictions : int;
  entries : int;
  view_hits : int;
  delta_refreshes : int;
  view_recomputes : int;
  views : int; (* registered view count *)
  bind_hits : int; (* parameterized plan cache: bind-only executions *)
  bind_misses : int; (* cold template plans *)
  guard_trips : int; (* specialized replans forced by guards *)
  plan_entries : int; (* cached shapes (excluding specializations) *)
  maintained_entries : int; (* result entries refreshed by delta *)
}

(* Under fault injection a cached result or plan would mask the very fault
   paths being exercised, so both caches stand down. The plan cache has
   its own switch so the cold path stays exactly measurable. *)
let cache_live (s : Settings.t) = s.cache && not (Faults.armed ())
let plancache_live (s : Settings.t) = s.plancache && not (Faults.armed ())

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let cache_stats (t : t) : cache_stats =
  locked t (fun () ->
      { hits = t.hits;
        plan_hits = t.plan_hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.cache;
        view_hits = t.view_hits;
        delta_refreshes = t.delta_refreshes;
        view_recomputes = t.view_recomputes;
        views = Matview.size t.views;
        bind_hits = t.bind_hits;
        bind_misses = t.bind_misses;
        guard_trips = t.guard_trips;
        plan_entries = Hashtbl.length t.plans;
        maintained_entries =
          Hashtbl.fold
            (fun _ e n -> if Matview.maintained e.view then n + 1 else n)
            t.cache 0 })

let owner_counters_of t o =
  match Hashtbl.find_opt t.owners o with
  | Some c -> c
  | None ->
    let c =
      { o_hits = 0;
        o_plan_hits = 0;
        o_misses = 0;
        o_view_hits = 0;
        o_delta_refreshes = 0;
        o_bind_hits = 0 }
    in
    Hashtbl.replace t.owners o c;
    c

(** Per-tenant counters as [(hits, plan_hits, misses, view_hits,
    delta_refreshes, bind_hits)], or all zeros for an unknown tenant. *)
let owner_stats (t : t) o : int * int * int * int * int * int =
  locked t (fun () ->
      match Hashtbl.find_opt t.owners o with
      | None -> (0, 0, 0, 0, 0, 0)
      | Some c ->
        (c.o_hits, c.o_plan_hits, c.o_misses, c.o_view_hits,
         c.o_delta_refreshes, c.o_bind_hits))

let clear_cache t = locked t (fun () -> Hashtbl.reset t.cache)
let clear_plan_cache t = locked t (fun () -> Hashtbl.reset t.plans)

(* The one LRU policy, shared by the result cache and the plan cache:
   before an insert into [tbl], evict [owner]'s least recently used entries
   until it holds fewer than its [quota], then the table's until it holds
   fewer than [cap]. Returns how many entries went. Call under lock. *)
let make_room tbl ~cap ~owner_of ~tick_of ~owner ~quota =
  let evict pred =
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          if not (pred e) then acc
          else
            match acc with
            | Some (_, tick) when tick <= tick_of e -> acc
            | _ -> Some (k, tick_of e))
        tbl None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove tbl k) victim;
    victim <> None
  in
  let n = ref 0 in
  let evict_while over pred = while over () && evict pred do incr n done in
  (match (owner, quota) with
  | Some o, Some quota ->
    let owned e = owner_of e = Some o in
    evict_while
      (fun () ->
        Hashtbl.fold (fun _ e n -> if owned e then n + 1 else n) tbl 0
        >= max 1 quota)
      owned
  | _ -> ());
  evict_while (fun () -> Hashtbl.length tbl >= cap) (fun _ -> true);
  !n

(* ------------------------------------------------------------------ *)
(* Facade                                                             *)
(* ------------------------------------------------------------------ *)

let create ?(settings = Settings.default) () =
  { catalog = Catalog.create ();
    settings;
    cache = Hashtbl.create cache_cap;
    plans = Hashtbl.create plan_cache_cap;
    views = Matview.create_registry ();
    lock = Mutex.create ();
    clock = 0;
    hits = 0;
    plan_hits = 0;
    misses = 0;
    evictions = 0;
    view_hits = 0;
    delta_refreshes = 0;
    view_recomputes = 0;
    bind_hits = 0;
    bind_misses = 0;
    guard_trips = 0;
    owners = Hashtbl.create 8 }

(* Replace invalidation: the table's schema may change, so result entries
   (with their views) and templates over it are dropped outright. An
   append needs no hook: it bumps the table's version, so the entries
   whose views read it go stale and catch up at their next read. *)
let invalidate_replaced t name =
  let dead =
    Hashtbl.fold
      (fun k e acc ->
        if List.mem name (Matview.tables e.view) then k :: acc else acc)
      t.cache []
  in
  List.iter (Hashtbl.remove t.cache) dead;
  let dead_plans =
    Hashtbl.fold
      (fun k e acc -> if List.mem name e.pe_tables then k :: acc else acc)
      t.plans []
  in
  List.iter (Hashtbl.remove t.plans) dead_plans

(* Low-cardinality string columns are dictionary-encoded at ingest unless
   the database's settings keep raw strings ([dict = false]). *)
let load_table ?cons ?threads t name rel =
  let rel = if t.settings.dict then Relation.encode_strings rel else rel in
  locked t (fun () ->
      Catalog.add ?cons ~grain:t.settings.grain ?threads t.catalog name rel;
      invalidate_replaced t name);
  (* A replace may change the table's schema: any view over it must replan
     and rebuild at its next read rather than attempt a delta. *)
  Matview.note_replaced t.views name

(** Schema-preserving append: ingest [rel]'s rows into existing table
    [name] as a new catalog snapshot (stats and zone maps rebuilt).
    In-flight queries pinned on the previous snapshot are untouched; cached
    results over [name] go stale and catch up at their next read. *)
let append_table ?threads t name rel =
  locked t (fun () ->
      Catalog.append ~dict:t.settings.dict ~grain:t.settings.grain ?threads
        t.catalog name rel)

let catalog t = t.catalog

let rec plan_has_window (p : Plan.plan) =
  match p.Plan.node with
  | Plan.Window _ -> true
  | Plan.Scan _ | Plan.PValues _ -> false
  | Plan.Filter (s, _)
  | Plan.Project (s, _)
  | Plan.Aggregate (s, _, _)
  | Plan.Sort (s, _)
  | Plan.LimitN (s, _)
  | Plan.Distinct s -> plan_has_window s
  | Plan.Join { left; right; _ } | Plan.SemiJoin { left; right; _ } ->
    plan_has_window left || plan_has_window right

let plan_on cat (sql : string) : Plan.bound_query =
  let ast = Sql_parse.parse sql in
  Planner.plan_query cat ast

let plan t (sql : string) : Plan.bound_query =
  plan_on (Catalog.pin t.catalog) sql

let fingerprint_opt sql =
  match Sql_shape.fingerprint sql with f -> Some f | exception _ -> None

(* Where the plan cache sends fingerprint [f] on (backend, threads). *)
type route =
  | Cold of string (* shape not cached: plan, store under this key *)
  | Bind of plan_entry * string * Plan.bound_query
      (* guard signature [sg] matches the template or a cached
         specialization: bind that plan's parameter slots *)
  | Specialize of plan_entry * string
      (* guard trip: constants outside the template's selectivity range;
         plan afresh and remember the sibling under signature [sg] *)

(* The one plan-cache routing decision, shared by [execute] and [explain].
   Call under lock. *)
let route t ~backend ~threads (f : Sql_shape.t) : route =
  let params = f.Sql_shape.params in
  (* hot path: plain concatenation, not Printf — the shape dominates the
     key and must be copied exactly once *)
  let key =
    String.concat "|"
      [ backend_name backend; string_of_int threads; Sql_shape.ty_sig params;
        f.Sql_shape.shape ]
  in
  match Hashtbl.find_opt t.plans key with
  | None -> Cold key
  | Some pe -> (
    let sg = Planner.guard_signature pe.pe_guards params in
    if String.equal sg pe.pe_sig then Bind (pe, sg, pe.pe_template)
    else
      match Hashtbl.find_opt pe.pe_specials sg with
      | Some tpl -> Bind (pe, sg, tpl)
      | None -> Specialize (pe, sg))

(* Serve a planned template for fingerprint [f]: bind on a hit, replan a
   sibling specialization on a guard trip, plan and remember the template
   when the shape is cold. Lock is held only for table operations —
   template planning runs outside it. *)
let bind_from_plan_cache t cat ~backend ~threads ~owner ~plan_quota
    (f : Sql_shape.t) : Plan.bound_query =
  let shape = f.Sql_shape.shape and params = f.Sql_shape.params in
  let plan_shape () = Planner.plan_template cat ~params (Sql_parse.parse shape) in
  let decision =
    locked t (fun () ->
        t.clock <- t.clock + 1;
        let r = route t ~backend ~threads f in
        (match r with
        | Bind (pe, _, _) ->
          pe.pe_tick <- t.clock;
          t.bind_hits <- t.bind_hits + 1;
          Option.iter
            (fun o ->
              let c = owner_counters_of t o in
              c.o_bind_hits <- c.o_bind_hits + 1)
            owner
        | Specialize (pe, _) -> pe.pe_tick <- t.clock
        | Cold _ -> ());
        r)
  in
  match decision with
  | Bind (_, _, tpl) -> Plan.bind_query params tpl
  | Specialize (pe, sg) ->
    let tpl, _ = plan_shape () in
    locked t (fun () ->
        t.guard_trips <- t.guard_trips + 1;
        if Hashtbl.length pe.pe_specials >= max_specializations then
          Hashtbl.reset pe.pe_specials;
        Hashtbl.replace pe.pe_specials sg tpl);
    Plan.bind_query params tpl
  | Cold key ->
    let tpl, guards = plan_shape () in
    let sg = Planner.guard_signature guards params in
    locked t (fun () ->
        t.bind_misses <- t.bind_misses + 1;
        ignore
          (make_room t.plans ~cap:plan_cache_cap
             ~owner_of:(fun e -> e.pe_owner) ~tick_of:(fun e -> e.pe_tick)
             ~owner ~quota:plan_quota);
        Hashtbl.replace t.plans key
          { pe_shape = shape;
            pe_owner = owner;
            pe_template = tpl;
            pe_guards = guards;
            pe_sig = sg;
            pe_specials = Hashtbl.create 4;
            pe_tables = Plan.bound_tables tpl;
            pe_tick = t.clock });
    Plan.bind_query params tpl

(** A frozen view of this database: the returned handle executes against
    the catalog as of now (with its own private cache, under [t]'s
    settings), unaffected by later ingests through [t]. The soak tests use
    this to differentially check concurrent results against serial
    execution on each snapshot. *)
let snapshot t : t =
  { (create ~settings:t.settings ()) with catalog = Catalog.pin t.catalog }

(* ------------------------------------------------------------------ *)
(* Materialized views                                                  *)
(* ------------------------------------------------------------------ *)

(* The one mapping from how a stored result was served to the counters,
   attributed to [owner] (the reading tenant). A registered view's reads
   count as view hits, delta refreshes and view recomputes; a cache
   entry's as hits, delta refreshes and plan hits (a full rebuild after an
   append). A registered view's initial build counts nothing. *)
let count_served t ~owner ~entry (how : Matview.served) =
  locked t (fun () ->
      let oc = Option.map (owner_counters_of t) owner in
      match (how, entry) with
      | `Hit, true ->
        t.hits <- t.hits + 1;
        Option.iter (fun c -> c.o_hits <- c.o_hits + 1) oc
      | `Hit, false ->
        t.view_hits <- t.view_hits + 1;
        Option.iter (fun c -> c.o_view_hits <- c.o_view_hits + 1) oc
      | `Delta, _ ->
        t.delta_refreshes <- t.delta_refreshes + 1;
        Option.iter
          (fun c -> c.o_delta_refreshes <- c.o_delta_refreshes + 1)
          oc
      | (`Recompute | `Init), true ->
        t.plan_hits <- t.plan_hits + 1;
        Option.iter (fun c -> c.o_plan_hits <- c.o_plan_hits + 1) oc
      | `Recompute, false -> t.view_recomputes <- t.view_recomputes + 1
      | `Init, false -> ())

(* Serve a stored result, a registered view ([entry = false]) or a cache
   entry's view, against snapshot [cat]: {!Matview.read} returns it,
   catching up first if an append made it stale. The deadline is checked
   before the read, whatever the read then does: a caller whose budget is
   already spent is not served for free, and whether it trips must not
   depend on which query stored the result. Rows are accounted only by a
   refresh that runs. Unlike the result cache, registered views do NOT
   stand down under fault injection — crash consistency of the refresh
   path is part of their contract. [settings] are the reading query's. *)
let serve ?timeout_ms ?row_budget ?owner t ~settings ~entry cat
    (v : Matview.t) : Relation.t =
  let r, how =
    Guard.with_guard ?timeout_ms ?row_budget (fun () ->
        Guard.check ();
        Matview.read v ~settings ~cat)
  in
  count_served t ~owner ~entry how;
  r

(** Register [sql] as materialized view [name]: the initial result is built
    eagerly (under the caller's Guard budgets), and subsequent executions
    of the same SQL are answered from the view — O(result) when fresh,
    incrementally refreshed after appends when the plan is maintainable,
    fully re-executed otherwise. [quota] bounds how many views [owner] may
    register. *)
let register_view ?owner ?quota ?timeout_ms ?row_budget (t : t) ~name sql :
    (unit, string) result =
  let cat = Catalog.pin t.catalog in
  (* Constant-identity key: the view serves any spelling of its query with
     the same constants, not just the registered text. *)
  match Sql_shape.fingerprint sql with
  | exception Sql_shape.Unparameterizable e ->
    Error (Printf.sprintf "view %s: no cache key (%s)" name e)
  | f ->
    Guard.with_guard ?timeout_ms ?row_budget (fun () ->
        match
          Matview.register t.views ~settings:t.settings ~cat ?owner ?quota
            ~name ~sql
            ~key:(Sql_shape.key f) ()
        with
        | Ok _ -> Ok ()
        | Error e -> Error e)

(** Refresh view [name] if stale and return its contents. *)
let refresh ?timeout_ms ?row_budget ?owner (t : t) name : Relation.t =
  match Matview.find t.views name with
  | None -> invalid_arg ("Db.refresh: no view " ^ name)
  | Some v ->
    serve ?timeout_ms ?row_budget ?owner t ~settings:t.settings ~entry:false
      (Catalog.pin t.catalog) v

(** The stored contents of view [name] as of its last completed refresh,
    without refreshing — what a reader observes after a crashed refresh. *)
let view_peek (t : t) name : Relation.t option =
  Option.bind (Matview.find t.views name) Matview.peek

type view_info = {
  vi_name : string;
  vi_owner : string option;
  vi_maintainable : bool;
  vi_reason : string option; (* typed fallback reason when not maintainable *)
  vi_version : int;
  vi_rows : int; (* rows in the materialized result *)
  vi_hits : int;
  vi_deltas : int;
  vi_recomputes : int;
}

let view_infos (t : t) : view_info list =
  List.map
    (fun v ->
      let hits, deltas, recomputes = Matview.counters v in
      { vi_name = Matview.name v;
        vi_owner = Matview.owner v;
        vi_maintainable = Matview.maintainable v;
        vi_reason = Matview.reason_string v;
        vi_version = Matview.current_version v;
        vi_rows =
          (match Matview.peek v with
          | Some r -> Relation.n_rows r
          | None -> 0);
        vi_hits = hits;
        vi_deltas = deltas;
        vi_recomputes = recomputes })
    (Matview.list t.views)

(** Execute [sql] on [backend], under [settings] (default: the database's).
    [timeout_ms] / [row_budget] install a cooperative {!Guard} for the
    duration of the call; on expiry the query unwinds with {!Guard.Trip}.
    [owner] / [cache_quota] attribute any new cache entry to a tenant and
    bound that tenant's cache share. Injected faults ({!Faults}) that
    escape in-engine recovery are retried once with injection suppressed —
    a detected storage fault is recovered by re-reading, never by
    returning a partial or corrupt relation. *)
let execute ?(threads = 1) ?(backend = Vectorized) ?settings ?timeout_ms
    ?row_budget ?owner ?cache_quota ?plan_quota (t : t) (sql : string) :
    Relation.t =
  let settings = Option.value settings ~default:t.settings in
  let exec settings cat bq =
    match backend with
    | Vectorized -> Exec_vectorized.run_query ~threads ~settings cat bq
    | Compiled -> Exec_compiled.run_query ~threads ~settings cat bq
    | Lingo ->
      if
        plan_has_window bq.Plan.main
        || List.exists (fun (_, p) -> plan_has_window p) bq.Plan.ctes
      then
        raise
          (Unsupported
             "lingodb-sim: window functions (row_number) not supported")
      else Exec_compiled.run_query ~threads ~settings cat bq
  in
  let guarded f =
    Guard.with_guard ?timeout_ms ?row_budget (fun () -> Faults.retry_once f)
  in
  (* One fingerprint pass (token-level, no parse) drives all three lookups:
     the matview key, the result-cache key, and the plan-cache shape. Text
     it rejects (a bare [$k], an unterminated literal) has no key and runs
     uncached; the planner then reports what is wrong with it. *)
  match fingerprint_opt sql with
  | None ->
    let cat = Catalog.pin t.catalog in
    guarded (fun () -> exec settings cat (plan_on cat sql))
  | Some f -> (
    let ckey = Sql_shape.key f in
    match Matview.find_by_key t.views ckey with
    | Some v ->
      (* A registered view answers its own SQL on any backend: the stored
         result IS the view, O(result) when fresh. *)
      serve ?timeout_ms ?row_budget ?owner t ~settings ~entry:false
        (Catalog.pin t.catalog) v
    | None ->
      (* Pin once: planning, the entry's staleness check and execution all
         resolve against this snapshot, so a concurrent ingest cannot tear
         the query. *)
      let cat = Catalog.pin t.catalog in
      (* The one plan-reuse path: bind a cached template when the plan
         cache is live (no reparse/replan on a shape hit), else plan from
         the literal text. An entry's view plans its rebuilds through it
         too, under the settings of the read that rebuilds. *)
      let plan_or_bind settings cat =
        if plancache_live settings then
          bind_from_plan_cache t cat ~backend ~threads ~owner ~plan_quota f
        else plan_on cat sql
      in
      if not (cache_live settings) then
        guarded (fun () -> exec settings cat (plan_or_bind settings cat))
      else begin
        let key =
          Printf.sprintf "%s|%d|%s" (backend_name backend) threads ckey
        in
        (* Lookup under lock; execution outside it (two racing misses both
           execute — wasteful but correct, and the insert is last-wins). *)
        let found =
          locked t (fun () ->
              t.clock <- t.clock + 1;
              match Hashtbl.find_opt t.cache key with
              | Some e ->
                e.tick <- t.clock;
                Some e.view
              | None ->
                t.misses <- t.misses + 1;
                Option.iter
                  (fun o ->
                    let c = owner_counters_of t o in
                    c.o_misses <- c.o_misses + 1)
                  owner;
                None)
        in
        match found with
        | Some v ->
          serve ?timeout_ms ?row_budget ?owner t ~settings ~entry:true cat v
        | None ->
          let bq = plan_or_bind settings cat in
          let r = guarded (fun () -> exec settings cat bq) in
          let view =
            Matview.make ~name:key ~seed:(cat, bq, r) ~plan:plan_or_bind
              ~run:exec ()
          in
          locked t (fun () ->
              t.evictions <-
                t.evictions
                + make_room t.cache ~cap:cache_cap
                    ~owner_of:(fun e -> e.owner)
                    ~tick_of:(fun e -> e.tick) ~owner ~quota:cache_quota;
              Hashtbl.replace t.cache key { owner; view; tick = t.clock });
          r
      end)

(** EXPLAIN: the plan tree with the optimizer's cardinality estimate and the
    actual row count per operator (from an instrumented vectorized run
    under the database's settings). *)
let explain ?(threads = 1) t (sql : string) : string =
  let cat = Catalog.pin t.catalog in
  let bq = plan_on cat sql in
  let actuals : (Plan.plan * int) list ref = ref [] in
  let on_rows p n = actuals := (p, n) :: !actuals in
  ignore
    (Faults.with_suppressed (fun () ->
         Exec_vectorized.run_query ~threads ~settings:t.settings ~on_rows cat
           bq));
  let annot p =
    match List.find_opt (fun (q, _) -> q == p) !actuals with
    | Some (_, n) ->
      Printf.sprintf "  (est=%.0f rows, actual=%d rows)" p.Plan.est n
    | None -> Printf.sprintf "  (est=%.0f rows)" p.Plan.est
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, p) ->
      Buffer.add_string buf (Printf.sprintf "CTE %s:\n" name);
      Buffer.add_string buf (Plan.explain_tree ~annot p))
    bq.Plan.ctes;
  Buffer.add_string buf (Plan.explain_tree ~annot bq.Plan.main);
  (* Would this query be incrementally maintainable as a view? On fallback,
     report the typed reason (the same decision Matview makes). *)
  (match Planner.analyze_ivm bq with
  | Ok s ->
    Buffer.add_string buf
      (Printf.sprintf "matview: maintainable (tables=%s; driver=%s)\n"
         (String.concat "," s.Planner.ivm_tables)
         (Option.value ~default:"-" s.Planner.ivm_driver))
  | Error r ->
    Buffer.add_string buf
      (Printf.sprintf "matview: fallback (%s)\n"
         (Planner.ivm_reason_to_string r)));
  (* Plan-cache routing this query would take (vectorized backend at
     [threads], matching what [execute] defaults to): bind hit, specialized
     hit, guard trip forcing a specialized replan, or cold; off whenever
     [execute] would bypass the plan cache. *)
  (match if plancache_live t.settings then fingerprint_opt sql else None with
  | None -> Buffer.add_string buf "plancache: off\n"
  | Some f ->
    let state = locked t (fun () -> route t ~backend:Vectorized ~threads f) in
    let add = Buffer.add_string buf in
    (match state with
    | Cold _ ->
      add
        (Printf.sprintf "plancache: cold (shape not cached, %d params)\n"
           (Array.length f.Sql_shape.params))
    | Bind (pe, sg, _) when String.equal sg pe.pe_sig ->
      add (Printf.sprintf "plancache: bind hit (sig=[%s])\n" pe.pe_sig)
    | Bind (pe, sg, _) ->
      add
        (Printf.sprintf
           "plancache: specialized bind hit (sig=[%s], template sig=[%s])\n"
           sg pe.pe_sig)
    | Specialize (pe, sg) ->
      add
        (Printf.sprintf
           "plancache: guard trip (sig=[%s] outside template sig=[%s]) -> \
            specialized replan\n"
           sg pe.pe_sig));
    (match state with
    | Bind (pe, _, _) | Specialize (pe, _) ->
      List.iter
        (fun g ->
          add (Printf.sprintf "  guard %s\n" (Planner.guard_to_string g)))
        pe.pe_guards
    | Cold _ -> ()));
  Buffer.contents buf
