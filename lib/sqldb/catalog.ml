(** Database catalog: named base tables plus integrity constraints and
    per-table statistics, organized as immutable snapshots.

    PyTond queries the catalog during translation for schema information and
    uniqueness facts that drive group/aggregate and self-join elimination.
    The planner additionally reads {!Stats.table_stats} (computed here at
    ingest) for cost estimation, and the executors resolve zone maps through
    {!zones_for}.

    {b Snapshot isolation.} A catalog handle ([t]) points at an immutable
    {!snapshot}: a persistent map of tables plus version counters. Ingest
    ({!add}, {!append}) never mutates a snapshot — it builds a new one and
    swings the handle's atomic pointer, so a reader that {!pin}ned the
    catalog at query start sees one consistent set of tables for the whole
    query no matter how many ingests land mid-flight. In-flight queries keep
    old snapshots alive through their pinned handles; the GC reclaims a
    superseded snapshot once the last reader drops it. Readers therefore
    never block on writes and writes never block on reads.

    Versioning: the snapshot-wide [version] ticks on every ingest, and each
    table records the catalog version at which it was last written
    ({!table_version}). A stored result ({!Matview}: a registered view or
    one of {!Db}'s result-cache entries) records the versions of the
    tables its plan references, so an ingest into one table leaves stored
    results over the other tables fresh. *)

module M = Map.Make (String)

type constraints = {
  primary_key : string list; (* empty list = none *)
  unique : string list list; (* each entry is a unique column set *)
  foreign_keys : (string * string * string) list; (* col, table, col *)
}

let no_constraints = { primary_key = []; unique = []; foreign_keys = [] }

type table = {
  rel : Relation.t;
  rooms : Column.room array; (* per column, shared by every version *)
  cons : constraints;
  stats : Stats.table_stats;
  tver : int; (* catalog version at which this table was last written *)
}

type snapshot = {
  tables : table M.t;
  version : int; (* ticks on every ingest; keys cached plans *)
  stats_epoch : int; (* ticks with version; kept for observability *)
}

type t = { snap : snapshot Atomic.t }

let create () : t =
  { snap = Atomic.make { tables = M.empty; version = 0; stats_epoch = 0 } }

(** Freeze the catalog as seen right now: the returned handle resolves every
    lookup against the current snapshot forever, regardless of later
    ingests through the original handle. O(1) — no copying. *)
let pin (t : t) : t = { snap = Atomic.make (Atomic.get t.snap) }

let build_table ?(cons = no_constraints) ?grain ?threads ~tver rel =
  let unique =
    Array.map
      (fun nm -> cons.primary_key = [ nm ] || List.mem [ nm ] cons.unique)
      rel.Relation.names
  in
  let stats = Stats.compute ~unique ?grain ?threads rel in
  { rel; rooms = Array.map Column.room rel.Relation.cols; cons; stats; tver }

(* Functional snapshot update + CAS swap. Writers are serialized by the Db
   facade, but the CAS loop keeps the catalog itself safe under concurrent
   ingest from independent callers. *)
let swap_in (t : t) (f : snapshot -> int -> table M.t) : unit =
  let rec go () =
    let s = Atomic.get t.snap in
    let version = s.version + 1 in
    let s' =
      { tables = f s version; version; stats_epoch = s.stats_epoch + 1 }
    in
    if not (Atomic.compare_and_set t.snap s s') then go ()
  in
  go ()

let add ?cons ?grain ?threads t name rel =
  swap_in t (fun s version ->
      M.add name
        (build_table ?cons ?grain ?threads ~tver:version rel)
        s.tables)

(* Register a short-lived relation without ingest costs: no statistics beyond row/null counts, no zone maps. The
   view engine uses this for delta slices that are scanned exactly once —
   full ingest would cost more than the replay it feeds. *)
let add_transient ?(cons = no_constraints) t name rel =
  swap_in t (fun s version ->
      M.add name
        { rel;
          rooms = Array.map Column.room rel.Relation.cols;
          cons;
          stats = Stats.trivial rel;
          tver = version }
        s.tables)

let snapshot_of t = Atomic.get t.snap

let find_opt (t : t) name = M.find_opt name (snapshot_of t).tables

let find t name =
  match find_opt t name with
  | Some tbl -> tbl
  | None -> invalid_arg ("Catalog.find: no table " ^ name)

(** Schema-preserving append: replace [name] with the concatenation of its
    current rows and [rel] (same schema, raw values). The whole batch is
    checked (arity, every column's type) before any column claims room.
    Each int, date, float and code vector then takes the batch into its
    spare capacity in place, or grows a fresh backing with headroom once
    it runs short ({!Column.append_chunk}); raw strings, bools and null
    bitmaps are copied whole. Dictionaries grow code-stably, and statistics
    / zone maps are folded forward over only the appended suffix
    ({!Stats.append_table}). Constraints carry over. Readers pinned on the
    previous snapshot keep seeing the pre-append table. [dict = false]
    keeps an empty table's first batch as raw strings. *)
let append ?(dict = true) ?grain ?threads t name rel =
  let cur = find t name in
  let old_rows = Relation.n_rows cur.rel in
  if old_rows = 0 then
    (* Nothing resident to preserve: run the full ingest path so the batch
       is encoded and promoted exactly like a fresh load. *)
    let merged =
      if dict && Relation.n_cols rel > 0 then Relation.encode_strings rel
      else rel
    in
    swap_in t (fun s version ->
        M.add name
          (build_table ~cons:cur.cons ?grain ?threads ~tver:version
             merged)
          s.tables)
  else begin
    let resident = cur.rel.Relation.cols and batch = rel.Relation.cols in
    if Array.length batch <> Array.length resident
       || Array.exists2 (fun (a : Column.t) b -> a.ty <> b.Column.ty) resident batch
    then invalid_arg ("Catalog.append: batch does not fit the schema of " ^ name);
    let grown =
      Array.mapi (fun i a -> Column.append_chunk cur.rooms.(i) a batch.(i)) resident
    in
    let merged = { cur.rel with Relation.cols = Array.map fst grown } in
    let unique =
      Array.map
        (fun nm ->
          cur.cons.primary_key = [ nm ] || List.mem [ nm ] cur.cons.unique)
        merged.Relation.names
    in
    let stats =
      Stats.append_table cur.stats ~unique ?grain ?threads merged
        ~from:old_rows
    in
    swap_in t (fun s version ->
        M.add name
          { rel = merged;
            rooms = Array.map snd grown;
            cons = cur.cons;
            stats;
            tver = version }
          s.tables)
  end

(** Copy table [name]'s record — relation, constraints, statistics, zone
    maps — from [src] into [t] as-is: O(1), no recomputation. The Matview
    delta engine uses this to assemble hybrid catalogs that bind each base
    table of a plan to an old pinned snapshot, the current one, or a delta
    slice, then re-runs the unchanged bound plan against the mix. *)
let import t ~(src : t) name =
  match find_opt src name with
  | None -> invalid_arg ("Catalog.import: no table " ^ name)
  | Some tb ->
    swap_in t (fun s version -> M.add name { tb with tver = version } s.tables)

let relation t name = (find t name).rel
let mem (t : t) name = M.mem name (snapshot_of t).tables
let names (t : t) = List.map fst (M.bindings (snapshot_of t).tables)
let version t = (snapshot_of t).version
let stats_epoch t = (snapshot_of t).stats_epoch

(** The catalog version at which [name] was last written, or [None] if the
    table does not exist. Cached plans/results depend on exactly the
    versions of the tables they reference. *)
let table_version t name = Option.map (fun tb -> tb.tver) (find_opt t name)

let stats_opt t name = Option.map (fun tb -> tb.stats) (find_opt t name)

(* Resolve the zone maps for [c] by physical identity of its data array:
   selection vectors and zero-copy projections hand the executors base-table
   columns directly, so a linear sweep over the (small) snapshot recovers
   the block min/max computed at ingest. Gathered columns are backed by
   fresh arrays and correctly resolve to nothing. *)
let zones_for (t : t) (c : Column.t) : Stats.zone array option =
  match Stats.data_key c with
  | None -> None
  | Some k ->
    M.fold
      (fun _ tb acc ->
        match acc with
        | Some _ -> acc
        | None ->
          let cols = tb.rel.Relation.cols in
          let rec go i =
            if i >= Array.length cols then None
            else
              match Stats.data_key cols.(i) with
              | Some k' when k' == k -> tb.stats.Stats.zones.(i)
              | _ -> go (i + 1)
          in
          go 0)
      (snapshot_of t).tables None

(* Is [cols] (or a subset of it) known unique in [name]?  Grouping by a
   superset of a unique key yields singleton groups. *)
let is_unique t name cols =
  match find_opt t name with
  | None -> false
  | Some { cons; _ } ->
    let covered key = key <> [] && List.for_all (fun c -> List.mem c cols) key in
    covered cons.primary_key || List.exists covered cons.unique

let schema_of t name = Relation.schema (relation t name)
