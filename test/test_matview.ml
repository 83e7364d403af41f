(** Materialized views: the Matview delta engine.

    The core check is a differential oracle — after every append, a view's
    incrementally maintained result must equal a from-scratch rebuild on
    the final snapshot. Exactness is adaptive: when appends only touch the
    view's driver (leftmost probe-spine) table, the incremental fold is a
    literal prefix-continuation of the full fold and results must be
    {e bit-identical} (hex-float compare); when a build-side table grows,
    the delta rule replays the same multiset in a different interleaving
    and results are compared at canonical rounding instead. *)

open Sqldb

(* Bit-exact canonicalization: floats printed as hex ("%h") so two results
   compare equal only when every float cell is the same IEEE value. *)
let exact_rows (r : Relation.t) : string list =
  List.init (Relation.n_rows r) (fun i ->
      String.concat "|"
        (Array.to_list
           (Array.map
              (fun c ->
                match Column.get c i with
                | Value.VFloat f -> Printf.sprintf "%h" f
                | v -> Value.to_string v)
              r.Relation.cols)))

(* Reference rebuild: register the same SQL as a fresh view over a frozen
   snapshot of [db], forcing Matview's full build path on the final data.
   This is the fold the incremental state claims to equal bit for bit. *)
let rebuild_view db sql : Relation.t =
  let snap = Db.snapshot db in
  match Db.register_view snap ~name:"__ref" sql with
  | Ok () -> Db.refresh snap "__ref"
  | Error e -> Alcotest.failf "reference view registration failed: %s" e

let ok_or_fail = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "register_view failed: %s" e

let find_info db name =
  match List.find_opt (fun i -> i.Db.vi_name = name) (Db.view_infos db) with
  | Some i -> i
  | None -> Alcotest.failf "view %s not registered" name

(* ------------------------------------------------------------------ *)
(* O(delta) appends (stats/zone recompute scoped to the delta)         *)
(* ------------------------------------------------------------------ *)

let test_append_scan_bound () =
  let db = Tpch.Dbgen.make_db 0.01 in
  let li = Catalog.relation (Db.catalog db) "lineitem" in
  let n = Relation.n_rows li in
  Alcotest.(check bool) "table is non-trivial" true (n > 10_000);
  let batch = Relation.take li (Array.init 64 Fun.id) in
  Stats.reset_rows_scanned ();
  Db.append_table db "lineitem" batch;
  let delta_scan = Stats.rows_scanned () in
  Stats.reset_rows_scanned ();
  ignore (Stats.compute (Catalog.relation (Db.catalog db) "lineitem"));
  let full_scan = Stats.rows_scanned () in
  Alcotest.(check bool) "append recomputed something" true (delta_scan > 0);
  (* the regression that matters: appending 64 rows must not rescan the
     table — stats and zone maps fold forward over the suffix only *)
  Alcotest.(check bool)
    (Printf.sprintf "append scan is O(delta): %d << %d" delta_scan full_scan)
    true
    (delta_scan * 5 < full_scan);
  (* the first append grew every vector's room; the next one writes its
     batch in place instead of copying the resident cells *)
  Column.reset_cells_copied ();
  Db.append_table db "lineitem" batch;
  let copied = Column.cells_copied () in
  Alcotest.(check bool)
    (Printf.sprintf "append copies O(delta) vector cells: %d <= 64 x %d columns"
       copied (Relation.n_cols li))
    true
    (copied <= 64 * Relation.n_cols li);
  let r =
    Db.execute db "SELECT count(*) AS c FROM lineitem" |> Relation.canonical
  in
  Alcotest.(check (list string)) "row count" [ string_of_int (n + 128) ] r

(* The zone block an append lands in folds only the appended rows into
   its resident min/max: the zone pass reads each appended row once per
   numeric column, and every zone equals a full recompute's. *)
let test_append_zones_exact () =
  let db = Tpch.Dbgen.make_db 0.01 in
  let cat = Db.catalog db in
  let li = Catalog.relation cat "lineitem" in
  let from = Relation.n_rows li in
  let old = Option.get (Catalog.stats_opt cat "lineitem") in
  Alcotest.(check bool) "the append lands inside a zone block" true
    (from mod Stats.block_size <> 0);
  Db.append_table db "lineitem"
    (Relation.take li (Array.init 299 (fun i -> (i * 37) mod from)));
  let merged = Catalog.relation cat "lineitem" in
  let numeric =
    Array.fold_left
      (fun n z -> if Option.is_some z then n + 1 else n)
      0 old.Stats.zones
  in
  Stats.reset_rows_scanned ();
  let extended =
    Array.mapi
      (fun i c -> Stats.extend_zones old.Stats.zones.(i) c ~from)
      merged.Relation.cols
  in
  Alcotest.(check bool)
    (Printf.sprintf "zone pass reads %d <= 299 x %d numeric columns"
       (Stats.rows_scanned ()) numeric)
    true
    (Stats.rows_scanned () <= 299 * numeric);
  let show zs =
    Option.map
      (Array.map (fun z -> Printf.sprintf "%h..%h" z.Stats.zmin z.Stats.zmax))
      zs
    |> Option.map Array.to_list
  in
  let fresh = (Stats.compute merged).Stats.zones in
  let stored = (Option.get (Catalog.stats_opt cat "lineitem")).Stats.zones in
  Array.iteri
    (fun i z ->
      let name = merged.Relation.names.(i) in
      Alcotest.(check (option (list string)))
        (name ^ " zones after the append") (show z) (show stored.(i));
      Alcotest.(check (option (list string)))
        (name ^ " zones extended directly") (show z) (show extended.(i)))
    fresh

let test_append_stats_consistency () =
  (* appended-path stats must agree with recomputed stats on the facts the
     planner consumes (ranges, null counts), and zone maps must still
     prune correctly *)
  let db = Db.create () in
  Db.load_table db "t"
    (Helpers.rel [ "k"; "v"; "s" ]
       [ Helpers.ints [| 1; 2; 3; 4 |];
         Helpers.floats [| 1.5; -2.0; 3.25; 0.0 |];
         Helpers.strings [| "b"; "d"; "a"; "c" |] ]);
  Db.append_table db "t"
    (Helpers.rel [ "k"; "v"; "s" ]
       [ Helpers.ints [| 9; 0 |];
         Helpers.floats [| 10.5; -7.0 |];
         Helpers.strings [| "z"; "aa" |] ]);
  let st =
    match Catalog.stats_opt (Db.catalog db) "t" with
    | Some s -> s
    | None -> Alcotest.fail "no stats"
  in
  let full = Stats.compute (Catalog.relation (Db.catalog db) "t") in
  Array.iteri
    (fun i inc ->
      let f = full.Stats.cols.(i) in
      Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
        (Printf.sprintf "range col %d" i)
        f.Stats.range inc.Stats.range;
      Alcotest.(check int)
        (Printf.sprintf "nulls col %d" i)
        f.Stats.null_count inc.Stats.null_count)
    st.Stats.cols;
  Alcotest.(check int) "row count" 6 st.Stats.row_count;
  let r =
    Db.execute db "SELECT k FROM t WHERE v > 4.0 ORDER BY k"
    |> Relation.canonical ~digits:0
  in
  Alcotest.(check (list string)) "scan after append" [ "9" ] r

(* ------------------------------------------------------------------ *)
(* Differential IVM oracle over TPC-H                                  *)
(* ------------------------------------------------------------------ *)

let tpch_sql db q =
  Pytond.compile ~db ~source:(Tpch.Queries.find q) ~fname:"query" ()

(* Register [q] as a view, interleave lineitem appends with reads; after
   every append the served result must equal a from-scratch rebuild on
   that snapshot — bit-identical when lineitem is the view's driver. *)
let oracle ?(rounds = 3) ~q db =
  let sql = tpch_sql db q in
  ok_or_fail (Db.register_view db ~name:q sql);
  let info = find_info db q in
  Alcotest.(check bool) (q ^ " maintainable") true info.Db.vi_maintainable;
  let driver =
    match Planner.analyze_ivm (Db.plan db sql) with
    | Ok s -> s.Planner.ivm_driver
    | Error r -> Alcotest.failf "%s: %s" q (Planner.ivm_reason_to_string r)
  in
  let suffix_exact = driver = Some "lineitem" in
  let before = (Db.cache_stats db).Db.delta_refreshes in
  for k = 1 to rounds do
    let li = Catalog.relation (Db.catalog db) "lineitem" in
    let batch =
      Relation.take li
        (Array.init 48 (fun i -> (i + (k * 7)) mod Relation.n_rows li))
    in
    Db.append_table db "lineitem" batch;
    let served = Db.execute db sql in
    let rebuilt = rebuild_view db sql in
    if suffix_exact then
      Alcotest.(check (list string))
        (Printf.sprintf "%s round %d bit-exact" q k)
        (exact_rows rebuilt) (exact_rows served)
    else
      Helpers.check_rel ~digits:6
        (Printf.sprintf "%s round %d canonical" q k)
        rebuilt served;
    (* and against the ordinary executor on the same snapshot *)
    Helpers.check_rows_close ~digits:3
      (Printf.sprintf "%s round %d vs executor" q k)
      (Relation.canonical ~digits:3 (Db.execute (Db.snapshot db) sql))
      (Relation.canonical ~digits:3 served)
  done;
  Alcotest.(check int)
    (q ^ " appends maintained incrementally")
    rounds
    ((Db.cache_stats db).Db.delta_refreshes - before);
  (* a second read with no intervening write is a pure view hit *)
  let vh = (Db.cache_stats db).Db.view_hits in
  ignore (Db.execute db sql);
  Alcotest.(check int) (q ^ " fresh read hits") (vh + 1)
    (Db.cache_stats db).Db.view_hits

let test_oracle_q1 () = oracle ~q:"q1" (Tpch.Dbgen.make_db 0.005)
let test_oracle_q6 () = oracle ~q:"q6" (Tpch.Dbgen.make_db 0.005)
let test_oracle_q3 () = oracle ~q:"q3" (Tpch.Dbgen.make_db 0.005)

(* q14's view joins lineitem (the driver) with part. A part append is a
   build-side delta: the new part rows join every lineitem row so far.
   Both kinds of append must answer bit for bit what the executor answers
   on a snapshot, on both backends. *)
let test_oracle_q14 () =
  let db = Tpch.Dbgen.make_db 0.005 in
  let sql = tpch_sql db "q14" in
  ok_or_fail (Db.register_view db ~name:"q14" sql);
  Alcotest.(check bool) "q14 maintainable" true
    (find_info db "q14").Db.vi_maintainable;
  let before = (Db.cache_stats db).Db.delta_refreshes in
  List.iteri
    (fun k (table, n) ->
      let rel = Catalog.relation (Db.catalog db) table in
      let prev = exact_rows (Db.execute db sql) in
      Db.append_table db table
        (Relation.take rel
           (Array.init n (fun i -> ((k * 131) + i) mod Relation.n_rows rel)));
      (* the copied part rows match lineitem rows in the date window *)
      if table = "part" then
        Alcotest.(check bool) "part append moves the answer" true
          (prev <> exact_rows (Db.execute db sql));
      List.iter
        (fun backend ->
          Alcotest.(check (list string))
            (Printf.sprintf "q14 after %s append %d on %s" table k
               (Db.backend_name backend))
            (exact_rows (Db.execute ~backend (Db.snapshot db) sql))
            (exact_rows (Db.execute ~backend db sql)))
        [ Db.Vectorized; Db.Compiled ])
    [ ("lineitem", 48); ("part", 24); ("lineitem", 48) ];
  Alcotest.(check int) "q14 appends maintained incrementally" 3
    ((Db.cache_stats db).Db.delta_refreshes - before)

let test_oracle_q12 () =
  (* q12's driver is orders: lineitem appends extend the build side, so
     this exercises the delta-rule (hybrid old/new catalog) path *)
  let db = Tpch.Dbgen.make_db 0.005 in
  let sql = tpch_sql db "q12" in
  (match Planner.analyze_ivm (Db.plan db sql) with
  | Ok s ->
    Alcotest.(check (option string))
      "q12 drives from orders" (Some "orders") s.Planner.ivm_driver
  | Error r -> Alcotest.failf "q12: %s" (Planner.ivm_reason_to_string r));
  oracle ~q:"q12" db

let test_oracle_q12_driver_appends () =
  (* appending to orders (the driver) must stay bit-exact even for the
     join-shaped q12 *)
  let db = Tpch.Dbgen.make_db 0.005 in
  let sql = tpch_sql db "q12" in
  ok_or_fail (Db.register_view db ~name:"q12o" sql);
  for k = 1 to 2 do
    let ord = Catalog.relation (Db.catalog db) "orders" in
    Db.append_table db "orders"
      (Relation.take ord
         (Array.init 32 (fun i -> (i + k) mod Relation.n_rows ord)));
    let served = Db.execute db sql in
    let rebuilt = rebuild_view db sql in
    Alcotest.(check (list string))
      (Printf.sprintf "q12 driver round %d bit-exact" k)
      (exact_rows rebuilt) (exact_rows served)
  done

(* ------------------------------------------------------------------ *)
(* Grouped-filter view on a synthetic table: groups appear, nulls skip  *)
(* ------------------------------------------------------------------ *)

let grp_sql =
  "SELECT grp, count(*) AS n, sum(x) AS s, avg(x) AS a FROM a WHERE x > 0 \
   GROUP BY grp ORDER BY grp"

let grp_db ?settings () =
  let db = Db.create ?settings () in
  Db.load_table db "a"
    (Helpers.rel [ "x"; "grp" ]
       [ Helpers.floats [| 1.5; 2.5; -1.0; 4.0 |];
         Helpers.ints [| 1; 2; 1; 2 |] ]);
  db

let test_grouped_filter_view () =
  let db = grp_db () in
  ok_or_fail (Db.register_view db ~name:"g" grp_sql);
  Alcotest.(check (list string))
    "initial" [ "1|1|1.5000|1.5000"; "2|2|6.5000|3.2500" ]
    (Relation.canonical ~digits:4 (Db.execute db grp_sql));
  (* new group 3 appears, group 1 grows, negatives are filtered out *)
  Db.append_table db "a"
    (Helpers.rel [ "x"; "grp" ]
       [ Helpers.floats [| 10.0; -5.0; 7.0 |];
         Helpers.ints [| 1; 2; 3 |] ]);
  Alcotest.(check (list string))
    "after append" [ "1|2|11.5000|5.7500"; "2|2|6.5000|3.2500"; "3|1|7.0000|7.0000" ]
    (Relation.canonical ~digits:4 (Db.execute db grp_sql));
  (* the view result is served identically on every backend and thread
     count: the stored state IS the answer *)
  List.iter
    (fun backend ->
      List.iter
        (fun threads ->
          Alcotest.(check (list string))
            (Printf.sprintf "served on %s @%dt" (Db.backend_name backend)
               threads)
            [ "1|2|11.5000|5.7500"; "2|2|6.5000|3.2500"; "3|1|7.0000|7.0000" ]
            (Relation.canonical ~digits:4
               (Db.execute ~backend ~threads db grp_sql)))
        [ 1; 3 ])
    [ Db.Vectorized; Db.Compiled ];
  Alcotest.(check int) "exactly one delta refresh" 1
    (Db.cache_stats db).Db.delta_refreshes

(* DISTINCT aggregates: the view keeps each group's seen argument values
   across refreshes, so appended duplicates of already-counted values
   (and NULLs) must not count again. Compared against a recompute on a
   database holding the same rows and no view. *)
let distinct_sqls =
  [ "SELECT grp, count(DISTINCT x) AS dx, count(DISTINCT s) AS ds, \
     sum(DISTINCT x) AS sx, count(x) AS nx FROM a GROUP BY grp ORDER BY grp";
    "SELECT count(DISTINCT f) AS df, count(DISTINCT x) AS dx FROM a" ]

let distinct_batch (xs : Value.t array) (ss : string array)
    (fs : float array) (gs : int array) =
  Helpers.rel [ "x"; "s"; "f"; "grp" ]
    [ Column.of_values Value.TInt xs; Helpers.strings ss; Helpers.floats fs;
      Helpers.ints gs ]

let distinct_batches =
  let open Value in
  [ distinct_batch
      [| VInt 1; VInt 1; VInt 2; VNull; VInt 3 |]
      [| "a"; "b"; "a"; "c"; "c" |]
      [| 0.1 +. 0.2; 0.3; 1.0; -0.0; 0.0 |]
      [| 1; 1; 1; 2; 2 |];
    (* repeats of counted values, a NULL, a new group, a new value *)
    distinct_batch
      [| VInt 2; VNull; VInt 3; VInt 4; VInt 1 |]
      [| "a"; "d"; "c"; "e"; "b" |]
      [| 0.3; 2.0; 0.1 +. 0.2; 0.0; Float.nan |]
      [| 1; 2; 2; 3; 1 |] ]

let test_distinct_aggregate_view () =
  let db = Db.create () and ref_db = Db.create () in
  let first = List.hd distinct_batches in
  Db.load_table db "a" first;
  Db.load_table ref_db "a" first;
  List.iteri
    (fun i sql -> ok_or_fail (Db.register_view db ~name:(Printf.sprintf "d%d" i) sql))
    distinct_sqls;
  let check label =
    List.iter
      (fun sql ->
        Alcotest.(check (list string))
          (label ^ ": " ^ sql)
          (exact_rows (Db.execute ~backend:Db.Vectorized ref_db sql))
          (exact_rows (Db.execute db sql));
        Alcotest.(check (list string))
          (label ^ " rebuild: " ^ sql)
          (exact_rows (rebuild_view db sql))
          (exact_rows (Db.execute db sql)))
      distinct_sqls
  in
  check "initial";
  Alcotest.(check (list string))
    "initial counts" [ "1|2|2|3|3"; "2|1|1|3|1" ]
    (Relation.canonical ~digits:0 (Db.execute db (List.hd distinct_sqls)));
  List.iter
    (fun b ->
      Db.append_table db "a" b;
      Db.append_table ref_db "a" b)
    (List.tl distinct_batches);
  check "after append";
  Alcotest.(check (list string))
    "counts after append" [ "1|2|2|3|5"; "2|1|2|3|2"; "3|1|1|4|1" ]
    (Relation.canonical ~digits:0 (Db.execute db (List.hd distinct_sqls)));
  Alcotest.(check int) "delta refreshes" 2
    (Db.cache_stats db).Db.delta_refreshes

(* MIN/MAX views over nullable int and float arguments, keyed by a float
   column holding both 0.0 and -0.0 (one group), and a global view whose
   first batch has a NULL minimum candidate. Every read must equal, bit
   for bit, a database holding the same rows and no view, and a rebuild
   on the final snapshot. *)
let minmax_sqls =
  [ "SELECT f, min(x), max(x), avg(x), min(g), max(g), sum(g), count(x) \
     FROM a GROUP BY f";
    "SELECT min(x), max(g), avg(x) FROM a" ]

let minmax_batch (xs : Value.t array) (fs : float array) (gs : Value.t array)
    =
  Helpers.rel [ "x"; "f"; "g" ]
    [ Column.of_values Value.TInt xs; Helpers.floats fs;
      Column.of_values Value.TFloat gs ]

let minmax_batches =
  let open Value in
  [ minmax_batch
      [| VNull; VInt 3; VInt (-2); VInt 7; VNull |]
      [| 0.0; -0.0; 1.5; 0.0; 1.5 |]
      [| VFloat 0.1; VFloat 2.5; VNull; VFloat (-1.25); VFloat (0.1 +. 0.2) |];
    (* a new group, a new minimum and maximum, NULLs on both arguments *)
    minmax_batch
      [| VInt 10; VInt (-5); VNull; VInt 0 |]
      [| -0.0; 2.0; 2.0; 1.5 |]
      [| VNull; VFloat 1e16; VFloat 3.0; VFloat (-0.0) |];
    (* ties with the current extremes, a group that stays all-NULL in x *)
    minmax_batch
      [| VInt (-5); VInt 10; VNull |]
      [| 0.0; 2.0; 4.0 |]
      [| VFloat 1e16; VFloat (-1.25); VNull |] ]

let test_minmax_view () =
  let db = Db.create () and ref_db = Db.create () in
  let first = List.hd minmax_batches in
  Db.load_table db "a" first;
  Db.load_table ref_db "a" first;
  List.iteri
    (fun i sql ->
      ok_or_fail (Db.register_view db ~name:(Printf.sprintf "m%d" i) sql))
    minmax_sqls;
  let check label =
    List.iter
      (fun sql ->
        Alcotest.(check (list string))
          (label ^ ": " ^ sql)
          (exact_rows (Db.execute ~backend:Db.Vectorized ref_db sql))
          (exact_rows (Db.execute db sql));
        Alcotest.(check (list string))
          (label ^ " rebuild: " ^ sql)
          (exact_rows (rebuild_view db sql))
          (exact_rows (Db.execute db sql)))
      minmax_sqls
  in
  check "initial";
  List.iteri
    (fun i b ->
      Db.append_table db "a" b;
      Db.append_table ref_db "a" b;
      check (Printf.sprintf "append %d" (i + 1)))
    (List.tl minmax_batches);
  Alcotest.(check int)
    "0.0 and -0.0 form one group" 4
    (Relation.n_rows (Db.execute db (List.hd minmax_sqls)));
  Alcotest.(check int) "delta refreshes" 4
    (Db.cache_stats db).Db.delta_refreshes

(* ------------------------------------------------------------------ *)
(* Fallback: non-maintainable plans recompute, with a typed reason      *)
(* ------------------------------------------------------------------ *)

let test_fallback_join_without_agg () =
  let db = Helpers.mini_db () in
  let sql =
    "SELECT o_id, c_name FROM orders, cust WHERE o_cust = c_id ORDER BY o_id"
  in
  ok_or_fail (Db.register_view db ~name:"j" sql);
  let info = find_info db "j" in
  Alcotest.(check bool) "not maintainable" false info.Db.vi_maintainable;
  Alcotest.(check (option string))
    "typed reason"
    (Some "join without an aggregate (view state would grow with the input)")
    info.Db.vi_reason;
  (* the explain surface reports the same decision *)
  Alcotest.(check bool) "explain says fallback" true
    (Helpers.contains_sub "matview: fallback (join without an aggregate"
       (Db.explain db sql));
  let before = Relation.canonical ~digits:0 (Db.execute db sql) in
  Alcotest.(check int) "4 rows" 4 (List.length before);
  Db.append_table db "orders"
    (Helpers.rel [ "o_id"; "o_cust"; "o_total"; "o_date" ]
       [ Helpers.ints [| 6 |]; Helpers.ints [| 20 |];
         Helpers.floats [| 10. |]; Helpers.dates [| "1997-01-01" |] ]);
  let after = Relation.canonical ~digits:0 (Db.execute db sql) in
  Alcotest.(check int) "5 rows after append" 5 (List.length after);
  let st = Db.cache_stats db in
  Alcotest.(check int) "served by recompute, not delta" 0 st.Db.delta_refreshes;
  Alcotest.(check bool) "recompute counted" true (st.Db.view_recomputes >= 1)

let test_explain_maintainable () =
  let db = Tpch.Dbgen.make_db 0.002 in
  let sql = tpch_sql db "q1" in
  Alcotest.(check bool) "q1 explain is maintainable" true
    (Helpers.contains_sub "matview: maintainable" (Db.explain db sql));
  Alcotest.(check bool) "q1 driver reported" true
    (Helpers.contains_sub "driver=lineitem" (Db.explain db sql))

(* The delta engine's verdict on each TPC-H program: maintainable, or the
   reason it is not. A translation or planner change that moves a program
   off (or onto) the delta path shows up here first. *)
let test_tpch_verdicts () =
  let db = Tpch.Dbgen.make_db 0.002 in
  let verdict q =
    match Planner.analyze_ivm (Db.plan db (tpch_sql db q)) with
    | Ok _ -> "maintainable"
    | Error r -> Planner.ivm_reason_to_string r
  in
  let multi = "multi-use CTE survives inlining"
  and semi = "semi/anti join in the delta stream"
  and nested = "nested aggregate below the view aggregate" in
  Alcotest.(check (list (pair string string)))
    "analyze_ivm verdicts"
    [ ("q1", "maintainable"); ("q2", multi); ("q3", "maintainable");
      ("q4", semi); ("q5", "maintainable"); ("q6", "maintainable");
      ("q7", multi); ("q8", "same base table scanned more than once");
      ("q9", "maintainable"); ("q10", "maintainable"); ("q11", multi);
      ("q12", "maintainable"); ("q13", nested); ("q14", "maintainable");
      ("q15", multi); ("q16", semi); ("q17", multi); ("q18", nested);
      ("q19", "maintainable"); ("q20", semi); ("q21", multi); ("q22", multi) ]
    (List.map (fun (q, _) -> (q, verdict q)) Tpch.Queries.all)

(* ------------------------------------------------------------------ *)
(* Crash consistency: a failed refresh leaves the previous version      *)
(* ------------------------------------------------------------------ *)

let test_crashed_refresh_keeps_version () =
  let db = grp_db () in
  ok_or_fail (Db.register_view db ~name:"g" grp_sql);
  let v0 = (find_info db "g").Db.vi_version in
  let before =
    match Db.view_peek db "g" with
    | Some r -> Relation.canonical ~digits:4 r
    | None -> Alcotest.fail "no initial state"
  in
  Db.append_table db "a"
    (Helpers.rel [ "x"; "grp" ]
       [ Helpers.floats [| 100.0 |]; Helpers.ints [| 1 |] ]);
  (* a 1-row budget cannot cover the delta replay: the refresh must trip
     and unwind without installing partial state *)
  (match Db.refresh ~row_budget:1 db "g" with
  | exception Guard.Trip _ -> ()
  | _ -> Alcotest.fail "expected Guard.Trip");
  Alcotest.(check int) "version unchanged after crash" v0
    (find_info db "g").Db.vi_version;
  (match Db.view_peek db "g" with
  | Some r ->
    Alcotest.(check (list string))
      "stored state is the previous consistent version" before
      (Relation.canonical ~digits:4 r)
  | None -> Alcotest.fail "state lost");
  (* an unbudgeted refresh then completes the delta *)
  Alcotest.(check (list string))
    "recovered refresh"
    [ "1|2|101.5000|50.7500"; "2|2|6.5000|3.2500" ]
    (Relation.canonical ~digits:4 (Db.refresh db "g"));
  Alcotest.(check bool) "version advanced" true
    ((find_info db "g").Db.vi_version > v0)

(* A rebuild that trips after a same-schema replace must leave the view
   flagged: the next read rebuilds again instead of applying the grown
   row count of the replaced table as a delta to the old state. *)
let test_tripped_rebuild_after_replace () =
  let db = grp_db () in
  ok_or_fail (Db.register_view db ~name:"g" grp_sql);
  Db.load_table db "a"
    (Helpers.rel [ "x"; "grp" ]
       [ Helpers.floats [| 10.; 20.; 30.; 40.; 50.; 60. |];
         Helpers.ints [| 1; 1; 2; 2; 2; 3 |] ]);
  (match Db.refresh ~row_budget:1 db "g" with
  | exception Guard.Trip _ -> ()
  | _ -> Alcotest.fail "expected Guard.Trip");
  Helpers.check_rel ~digits:6 "read after the tripped rebuild"
    (Db.execute (Db.snapshot db) grp_sql)
    (Db.refresh db "g");
  Alcotest.(check int) "no delta across the replace" 0
    (Db.cache_stats db).Db.delta_refreshes

let test_faulty_refresh_differential () =
  (* under armed fault injection every read must still equal a rebuild:
     injected faults either recover (suppressed retry) or unwind whole *)
  let db = grp_db () in
  Faults.arm ~seed:20260808 ();
  Fun.protect
    ~finally:(fun () -> Faults.arm_from_env ())
    (fun () ->
      ok_or_fail (Db.register_view db ~name:"g" grp_sql);
      for k = 1 to 6 do
        Db.append_table db "a"
          (Helpers.rel [ "x"; "grp" ]
             [ Helpers.floats [| float_of_int k; -.float_of_int k |];
               Helpers.ints [| (k mod 3) + 1; 2 |] ]);
        Helpers.check_rel ~digits:6
          (Printf.sprintf "faulty round %d" k)
          (rebuild_view db grp_sql)
          (Db.execute db grp_sql)
      done)

(* ------------------------------------------------------------------ *)
(* IVM switched off: fallback recompute path stays live                 *)
(* ------------------------------------------------------------------ *)

let test_ivm_disabled () =
  let db = grp_db ~settings:{ Settings.default with ivm = false } () in
  ok_or_fail (Db.register_view db ~name:"g" grp_sql);
  Db.append_table db "a"
    (Helpers.rel [ "x"; "grp" ]
       [ Helpers.floats [| 7.0 |]; Helpers.ints [| 3 |] ]);
  Helpers.check_rel ~digits:6 "disabled IVM still correct"
    (rebuild_view db grp_sql)
    (Db.execute db grp_sql);
  let st = Db.cache_stats db in
  Alcotest.(check int) "no delta refreshes" 0 st.Db.delta_refreshes;
  Alcotest.(check bool) "recompute path used" true (st.Db.view_recomputes >= 1)

(* ------------------------------------------------------------------ *)
(* Tenancy: per-owner counters and view quotas                          *)
(* ------------------------------------------------------------------ *)

let test_owner_counters_and_quota () =
  let db = grp_db () in
  ok_or_fail (Db.register_view db ~owner:"t1" ~quota:1 ~name:"g" grp_sql);
  (* quota of one: a second view for the same tenant is refused *)
  (match
     Db.register_view db ~owner:"t1" ~quota:1 ~name:"g2"
       "SELECT count(*) AS n FROM a"
   with
  | Error e ->
    Alcotest.(check bool) "quota error names the tenant" true
      (Helpers.contains_sub "quota" e)
  | Ok () -> Alcotest.fail "quota not enforced");
  (* duplicate names are refused regardless of owner *)
  (match Db.register_view db ~owner:"t2" ~name:"g" grp_sql with
  | Error e ->
    Alcotest.(check bool) "duplicate name refused" true
      (Helpers.contains_sub "already registered" e)
  | Ok () -> Alcotest.fail "duplicate view name accepted");
  (* reads attribute to the reading tenant, not the view's owner *)
  ignore (Db.execute ~owner:"t2" db grp_sql);
  Db.append_table db "a"
    (Helpers.rel [ "x"; "grp" ]
       [ Helpers.floats [| 1.0 |]; Helpers.ints [| 1 |] ]);
  ignore (Db.execute ~owner:"t2" db grp_sql);
  let _, _, _, vh, dr, _ = Db.owner_stats db "t2" in
  Alcotest.(check (pair int int)) "t2: one hit, one delta" (1, 1) (vh, dr);
  let _, _, _, vh1, dr1, _ = Db.owner_stats db "t1" in
  Alcotest.(check (pair int int)) "t1 never read" (0, 0) (vh1, dr1)

let test_replace_triggers_replan () =
  let db = grp_db () in
  ok_or_fail (Db.register_view db ~name:"g" grp_sql);
  ignore (Db.execute db grp_sql);
  (* replacing the base table (same schema, new contents) must force the
     view through the replan-and-rebuild path, never a delta *)
  Db.load_table db "a"
    (Helpers.rel [ "x"; "grp" ]
       [ Helpers.floats [| 2.0; 3.0 |]; Helpers.ints [| 7; 7 |] ]);
  Alcotest.(check (list string))
    "view reflects the replacement" [ "7|2|5.0000|2.5000" ]
    (Relation.canonical ~digits:4 (Db.execute db grp_sql));
  let st = Db.cache_stats db in
  Alcotest.(check int) "no delta across replace" 0 st.Db.delta_refreshes;
  Alcotest.(check bool) "recompute counted" true (st.Db.view_recomputes >= 1)

(* ------------------------------------------------------------------ *)
(* Result-cache entries refreshed by the delta engine                   *)
(* ------------------------------------------------------------------ *)

(* Shift every quoted ISO date literal of a Python source by [days]. *)
let shift_dates ~days src =
  let n = String.length src in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if
      src.[!i] = '\''
      && !i + 11 < n
      && src.[!i + 11] = '\''
      && Value.looks_like_iso_date (String.sub src (!i + 1) 10)
    then begin
      let d = Value.date_of_iso (String.sub src (!i + 1) 10) + days in
      Buffer.add_string b ("'" ^ Value.iso_of_date d ^ "'");
      i := !i + 12
    end
    else begin
      Buffer.add_char b src.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* The dashboard shapes, each with its dates as written and shifted back
   60 days (q17 and q19 have no dates, so one key each): (label, sql,
   tables, maintainable). q17 is the one shape the delta engine rejects,
   so stale reads of it keep taking the recompute path. *)
let dashboard_keys db =
  List.concat_map
    (fun q ->
      let src = Tpch.Queries.find q in
      List.sort_uniq compare
        (List.map
           (fun days ->
             Pytond.compile ~dialect:"hyper" ~db
               ~source:(shift_dates ~days src) ~fname:"query" ())
           [ 0; -60 ])
      |> List.mapi (fun i sql ->
             let bq = Db.plan db sql in
             ( Printf.sprintf "%s#%d" q i,
               sql,
               Plan.bound_tables bq,
               Result.is_ok (Planner.analyze_ivm bq) )))
    [ "q1"; "q3"; "q6"; "q12"; "q14"; "q17"; "q19" ]

(* [n] existing rows of [name] from offset [131 k] on (cyclically),
   appended again. *)
let append_copies db name ~n ~k =
  let rel = Catalog.relation (Db.catalog db) name in
  Db.append_table db name
    (Relation.take rel
       (Array.init n (fun i -> ((k * 131) + i) mod Relation.n_rows rel)))

(* ------------------------------------------------------------------ *)
(* Retained join builds                                               *)
(* ------------------------------------------------------------------ *)

(* The lineitem rows that q12 counts. *)
let q12_counted db =
  let rel = Catalog.relation (Db.catalog db) "lineitem" in
  let get col i = Column.get (Relation.column rel col) i in
  let date iso = Value.VDate (Value.date_of_iso iso) in
  let counted i =
    List.mem (get "l_shipmode" i) [ Value.VString "MAIL"; VString "SHIP" ]
    && get "l_commitdate" i < get "l_receiptdate" i
    && get "l_shipdate" i < get "l_commitdate" i
    && get "l_receiptdate" i >= date "1994-01-01"
    && get "l_receiptdate" i < date "1995-01-01"
  in
  let rows = List.init (Relation.n_rows rel) Fun.id in
  (rel, Array.of_list (List.filter counted rows))

(* [n] lineitem rows that q12 counts, from offset [13 k] of them on
   (cyclically), appended again. *)
let append_counted db ~n ~k =
  let rel, rows = q12_counted db in
  Db.append_table db "lineitem"
    (Relation.take rel
       (Array.init n (fun i -> rows.(((k * 13) + i) mod Array.length rows))))

(* The batches of the retention tests below. q12's are lines it counts,
   so that each of its deltas has rows to build over or probe with. *)
let lineitem_copies db ~k = append_copies db "lineitem" ~n:299 ~k
let q12_lines db ~k = append_counted db ~n:50 ~k

(* q3's stream probes lineitem against the build over orders ⋈ customer.
   q12's builds over lineitem, the appended table, so its refreshes build
   over orders and probe with the delta. A lineitem append changes neither
   orders nor customer: once a refresh has built over them, the next
   refreshes build no rows at all, and each still answers what a cold run
   answers, bit for bit (q12's sums count integers). A cache entry's first
   stale read promotes it, so its first delta, which builds, comes one
   append later than a registered view's. *)
let test_builds_retained ~append q ~entry () =
  let db = Tpch.Dbgen.make_db 0.01 in
  let sql = tpch_sql db q in
  if entry then ignore (Db.execute db sql)
  else ok_or_fail (Db.register_view db ~name:q sql);
  let first = if entry then 2 else 1 in
  for k = 1 to first + 2 do
    append db ~k;
    Matview.reset_build_rows ();
    let got = Db.execute db sql in
    let built = Matview.build_rows () in
    Alcotest.(check (list string))
      (Printf.sprintf "append %d bit-exact" k)
      (exact_rows (Db.execute (Db.snapshot db) sql))
      (exact_rows got);
    if not (Faults.armed ()) then
      if k = first then
        Alcotest.(check bool)
          (Printf.sprintf "append %d builds the join sides" k)
          true (built > 0)
      else if k > first then
        Alcotest.(check int)
          (Printf.sprintf "append %d builds no rows" k)
          0 built
  done

(* The rows of table [name] whose column [col] holds one of [keys],
   appended again; returns them. *)
let append_matching db name col keys =
  let rel = Catalog.relation (Db.catalog db) name in
  let c = Relation.column rel col in
  let rows =
    List.filter
      (fun i -> List.mem (Column.get c i) keys)
      (List.init (Relation.n_rows rel) Fun.id)
  in
  let copies = Relation.take rel (Array.of_list rows) in
  Db.append_table db name copies;
  copies

let column_values (r : Relation.t) col =
  let c = Relation.column r col in
  List.sort_uniq compare (List.init (Relation.n_rows r) (Column.get c))

(* Appends to orders and then customer change the build sides that the
   lineitem refreshes before them kept. The orders copies duplicate the
   orders of the current answer, the customer copies their customers, and
   the last lineitem batch copies those orders' lines, so a refresh that
   reused a build from before either append would miss matches that the
   recompute finds. *)
let test_q3_dimension_appends ~entry () =
  let db = Tpch.Dbgen.make_db 0.01 in
  let sql = tpch_sql db "q3" in
  if entry then ignore (Db.execute db sql)
  else ok_or_fail (Db.register_view db ~name:"q3" sql);
  let check what =
    Helpers.check_rel ~digits:6 what
      (Db.execute (Db.snapshot db) sql)
      (Db.execute db sql)
  in
  append_copies db "lineitem" ~n:299 ~k:1;
  check "lineitem append 1";
  append_copies db "lineitem" ~n:299 ~k:2;
  check "lineitem append 2";
  let top = column_values (Db.execute db sql) "l_orderkey" in
  let orders = append_matching db "orders" "o_orderkey" top in
  check "orders append";
  ignore
    (append_matching db "customer" "c_custkey"
       (column_values orders "o_custkey"));
  check "customer append";
  ignore (append_matching db "lineitem" "l_orderkey" top);
  check "lineitem append 3"

(* q12 across appends to both of its tables. The lineitem refreshes build
   over orders; an orders append makes that build stale, and a refresh of
   both tables probes both deltas. The orders copies duplicate orders that
   q12 counts lines of, and the last lineitem batch copies those lines, so
   a refresh that probed a build of orders from before the orders appends
   would miss the copies' matches. *)
let test_q12_both_appends ~entry () =
  let db = Tpch.Dbgen.make_db 0.01 in
  let sql = tpch_sql db "q12" in
  if entry then ignore (Db.execute db sql)
  else ok_or_fail (Db.register_view db ~name:"q12" sql);
  let check what =
    Alcotest.(check (list string)) what
      (exact_rows (Db.execute (Db.snapshot db) sql))
      (exact_rows (Db.execute db sql))
  in
  append_copies db "lineitem" ~n:299 ~k:1;
  check "lineitem append 1";
  append_copies db "lineitem" ~n:299 ~k:2;
  check "lineitem append 2";
  let keys =
    let rel, rows = q12_counted db in
    column_values (Relation.take rel (Array.sub rows 0 40)) "l_orderkey"
  in
  ignore (append_matching db "orders" "o_orderkey" keys);
  check "orders append";
  append_copies db "orders" ~n:50 ~k:3;
  append_copies db "lineitem" ~n:299 ~k:3;
  check "orders and lineitem append";
  ignore (append_matching db "lineitem" "l_orderkey" keys);
  check "lineitem append 3"

(* [f ()] run under a guard that trips never; returns its result and the
   rows it materialized. *)
let rows_used f =
  Guard.with_guard ~row_budget:max_int (fun () ->
      let r = f () in
      (r, Atomic.get (Option.get (Guard.current ())).Guard.rows))

(* A refresh that trips after making its builds installs neither its state
   nor its builds: the stored result stays the previous one, the next
   read builds again and answers what a cold run answers, and the read
   after it reuses what that one built. [a] and [b] hold the same query at
   the same state; [a]'s refresh measures the rows a refresh materializes,
   and [b]'s trips at its last row. Faults are disarmed so that the two
   refreshes do the same work. *)
let crashed_build_refresh ~prepare ~read_a ~read_b ~peek_b db sql =
  Faults.disarm ();
  Fun.protect ~finally:Faults.arm_from_env (fun () ->
      prepare ();
      Matview.reset_build_rows ();
      let _, rows = rows_used read_a in
      let built = Matview.build_rows () in
      Alcotest.(check bool) "the refresh builds" true (built > 0);
      let before = peek_b () in
      (match Guard.with_guard ~row_budget:(rows - 1) read_b with
      | exception Guard.Trip _ -> ()
      | _ -> Alcotest.fail "expected Guard.Trip");
      Alcotest.(check bool) "stored result unchanged" true (peek_b () = before);
      Matview.reset_build_rows ();
      let want = exact_rows (Db.execute (Db.snapshot db) sql) in
      Alcotest.(check (list string)) "read after the trip" want
        (exact_rows (read_b ()));
      Alcotest.(check int) "the tripped refresh's builds were dropped" built
        (Matview.build_rows ());
      append_copies db "lineitem" ~n:299 ~k:9;
      Matview.reset_build_rows ();
      Alcotest.(check (list string)) "next read"
        (exact_rows (Db.execute (Db.snapshot db) sql))
        (exact_rows (read_b ()));
      Alcotest.(check int) "the next read reuses the builds" 0
        (Matview.build_rows ()))

let test_crashed_build_view q () =
  let db = Tpch.Dbgen.make_db 0.01 in
  let sql = tpch_sql db q in
  ok_or_fail (Db.register_view db ~name:"a" sql);
  ok_or_fail (Db.register_view db ~name:"b" sql);
  crashed_build_refresh db sql
    ~prepare:(fun () -> append_copies db "lineitem" ~n:299 ~k:1)
    ~read_a:(fun () -> Db.refresh db "a")
    ~read_b:(fun () -> Db.refresh db "b")
    ~peek_b:(fun () -> Option.map exact_rows (Db.view_peek db "b"))

(* The same on two cache entries of one query, one per backend: both
   promote on the first stale read and build on the second. *)
let test_crashed_build_entry q () =
  let db = Tpch.Dbgen.make_db 0.01 in
  let sql = tpch_sql db q in
  let read backend () = Db.execute ~backend db sql in
  crashed_build_refresh db sql
    ~prepare:(fun () ->
      List.iter (fun b -> ignore (read b ())) Helpers.backends;
      append_copies db "lineitem" ~n:299 ~k:1;
      List.iter (fun b -> ignore (read b ())) Helpers.backends;
      append_copies db "lineitem" ~n:299 ~k:2)
    ~read_a:(read Db.Vectorized) ~read_b:(read Db.Compiled)
    ~peek_b:(fun () -> None)

(* Every cached read, through whichever path serves it, must answer what
   a cold run on a snapshot of the same data answers. With [counting], the
   serving path of every read is checked too: which reads miss, recompute,
   refresh by delta or hit. *)
let cache_sequence ~counting backend db =
  let keys = dashboard_keys db in
  List.iter
    (fun (label, _, _, maint) ->
      Alcotest.(check bool)
        (label ^ " maintainability")
        (not (String.starts_with ~prefix:"q17" label))
        maint)
    keys;
  let count f = List.length (List.filter f keys) in
  let round what ~stale =
    let before = Db.cache_stats db in
    List.iter
      (fun (label, sql, _, _) ->
        let got = Db.execute ~backend db sql in
        let want = Db.execute ~backend (Db.snapshot db) sql in
        Helpers.check_rows_close ~digits:4
          (Printf.sprintf "%s: %s" what label)
          (Relation.canonical ~digits:4 want)
          (Relation.canonical ~digits:4 got))
      keys;
    let cs = Db.cache_stats db in
    if counting then begin
      let moved name f expected =
        Alcotest.(check int) (what ^ ": " ^ name) expected (f cs - f before)
      in
      match stale with
      | `Miss -> moved "misses" (fun s -> s.Db.misses) (List.length keys)
      | `Promote tbl ->
        moved "recomputes" (fun s -> s.Db.plan_hits)
          (count (fun (_, _, ts, _) -> List.mem tbl ts));
        moved "delta refreshes" (fun s -> s.Db.delta_refreshes) 0
      | `Delta tbl ->
        moved "recomputes" (fun s -> s.Db.plan_hits)
          (count (fun (_, _, ts, m) -> List.mem tbl ts && not m));
        moved "delta refreshes" (fun s -> s.Db.delta_refreshes)
          (count (fun (_, _, ts, m) -> List.mem tbl ts && m));
        moved "hits" (fun s -> s.Db.hits)
          (count (fun (_, _, ts, _) -> not (List.mem tbl ts)))
    end
  in
  let maintained what n =
    if counting then
      Alcotest.(check int) (what ^ ": entries with a view") n
        (Db.cache_stats db).Db.maintained_entries
  in
  let n_maint = count (fun (_, _, _, m) -> m) in
  round "cold" ~stale:`Miss;
  append_copies db "lineitem" ~n:60 ~k:1;
  round "append 1" ~stale:(`Promote "lineitem");
  maintained "append 1" n_maint;
  append_copies db "lineitem" ~n:60 ~k:2;
  round "append 2" ~stale:(`Delta "lineitem");
  append_copies db "lineitem" ~n:60 ~k:3;
  round "append 3" ~stale:(`Delta "lineitem");
  (* orders is not the driver of every join over it: a delta-rule term *)
  append_copies db "orders" ~n:15 ~k:4;
  round "orders append" ~stale:(`Delta "orders");
  append_copies db "lineitem" ~n:60 ~k:5;
  round "append 4" ~stale:(`Delta "lineitem");
  (* a replace drops the entries and their views *)
  Db.load_table db "lineitem" (Catalog.relation (Db.catalog db) "lineitem");
  maintained "replace" 0;
  round "after replace" ~stale:`Miss;
  append_copies db "lineitem" ~n:60 ~k:6;
  round "append after replace" ~stale:(`Promote "lineitem");
  maintained "append after replace" n_maint

(* q14 reads lineitem and part; merging its two sibling sums leaves no
   multi-use CTE, so every dashboard variant (the date shifts of the
   dashboard benchmark, in both dialects) refreshes by delta. *)
let test_q14_shifts_maintainable () =
  let db = Tpch.Dbgen.make_db 0.002 in
  List.iter
    (fun dialect ->
      List.iter
        (fun days ->
          let sql =
            Pytond.compile ~dialect ~db
              ~source:(shift_dates ~days (Tpch.Queries.find "q14"))
              ~fname:"query" ()
          in
          Alcotest.(check string)
            (Printf.sprintf "q14 %s %+d days" dialect days)
            "maintainable"
            (match Planner.analyze_ivm (Db.plan db sql) with
            | Ok _ -> "maintainable"
            | Error r -> Planner.ivm_reason_to_string r))
        [ 0; -365; -60; 45 ])
    [ "duckdb"; "hyper" ]

(* With faults armed the cache stands down, so no read counts. *)
let cache_differential backend () =
  cache_sequence ~counting:(not (Faults.armed ())) backend
    (Tpch.Dbgen.make_db 0.01)

(* IVM switched off, on, and off again, on cache entries. While it is
   off, every stale read rebuilds in full by running the plan, and no
   entry keeps stream state. The first stale read after re-enabling
   promotes each maintainable entry; the next one is a delta refresh. *)
let test_cache_ivm_toggle () =
  let db = Tpch.Dbgen.make_db 0.005 in
  let counting = not (Faults.armed ()) in
  let keys = dashboard_keys db in
  let n_keys = List.length keys in
  let n_maint = List.length (List.filter (fun (_, _, _, m) -> m) keys) in
  let round ivm what ~misses ~plan_hits ~deltas ~maintained =
    let before = Db.cache_stats db in
    List.iter
      (fun (label, sql, _, _) ->
        let got =
          Db.execute ~settings:{ Settings.default with ivm } db sql
        in
        let want = Db.execute (Db.snapshot db) sql in
        Helpers.check_rows_close ~digits:4
          (Printf.sprintf "%s: %s" what label)
          (Relation.canonical ~digits:4 want)
          (Relation.canonical ~digits:4 got))
      keys;
    let cs = Db.cache_stats db in
    if counting then begin
      let moved name f expected =
        Alcotest.(check int) (what ^ ": " ^ name) expected (f cs - f before)
      in
      moved "misses" (fun s -> s.Db.misses) misses;
      moved "recomputes" (fun s -> s.Db.plan_hits) plan_hits;
      moved "delta refreshes" (fun s -> s.Db.delta_refreshes) deltas;
      Alcotest.(check int) (what ^ ": entries with a view") maintained
        cs.Db.maintained_entries
    end
  in
  let append k = append_copies db "lineitem" ~n:60 ~k in
  round false "IVM off, cold" ~misses:n_keys ~plan_hits:0 ~deltas:0
    ~maintained:0;
  append 1;
  round false "IVM off, append 1" ~misses:0 ~plan_hits:n_keys ~deltas:0
    ~maintained:0;
  append 2;
  round false "IVM off, append 2" ~misses:0 ~plan_hits:n_keys ~deltas:0
    ~maintained:0;
  append 3;
  round true "IVM on, first stale read" ~misses:0 ~plan_hits:n_keys ~deltas:0
    ~maintained:n_maint;
  append 4;
  round true "IVM on, next stale read" ~misses:0 ~plan_hits:(n_keys - n_maint)
    ~deltas:n_maint ~maintained:n_maint;
  (* off again: entries holding stream state rebuild in full rather than
     refresh by delta, and drop that state *)
  append 5;
  round false "IVM off again" ~misses:0 ~plan_hits:n_keys ~deltas:0
    ~maintained:0

(* LRU eviction drops an entry's view with the entry: once evicted and
   re-read, the key starts over as a miss and promotes again. *)
let test_cache_eviction_drops_view () =
  let db = grp_db () in
  let counting = not (Faults.armed ()) in
  let append k =
    Db.append_table db "a"
      (Helpers.rel [ "x"; "grp" ]
         [ Helpers.floats [| float_of_int k |]; Helpers.ints [| k mod 3 |] ])
  in
  let read what =
    Helpers.check_rel ~digits:6 what
      (Db.execute (Db.snapshot db) grp_sql)
      (Db.execute db grp_sql)
  in
  let stat f = f (Db.cache_stats db) in
  read "cold";
  append 1;
  read "promoted";
  if counting then
    Alcotest.(check int) "entry holds a view" 1
      (stat (fun s -> s.Db.maintained_entries));
  for k = 1 to Db.cache_cap do
    ignore (Db.execute db (Printf.sprintf "SELECT count(*) AS n FROM a WHERE x > %d" k))
  done;
  append 2;
  let misses = stat (fun s -> s.Db.misses) in
  read "after eviction";
  if counting then begin
    Alcotest.(check bool) "entries were evicted" true
      (stat (fun s -> s.Db.evictions) > 0);
    Alcotest.(check int) "evicted entry took its view along" 0
      (stat (fun s -> s.Db.maintained_entries));
    Alcotest.(check int) "re-read is a miss" (misses + 1)
      (stat (fun s -> s.Db.misses))
  end

(* ------------------------------------------------------------------ *)
(* In-place appends: versions sharing one backing vector              *)
(* ------------------------------------------------------------------ *)

(* Reads of lineitem's int, date, float and dictionary columns, with a
   zone-map filter. *)
let li_queries db =
  [ tpch_sql db "q1";
    tpch_sql db "q6";
    "SELECT l_shipmode, count(*) AS c, sum(l_quantity) AS q, \
     min(l_shipdate) AS d FROM lineitem GROUP BY l_shipmode" ]

(* Cold answers (a fresh snapshot has an empty result cache). *)
let li_answers ?(backend = Db.Vectorized) queries db =
  List.map
    (fun sql ->
      Relation.canonical ~digits:4 (Db.execute ~backend (Db.snapshot db) sql))
    queries

let check_answers what expected actual =
  List.iter2 (Helpers.check_rows_close ~digits:4 what) expected actual

(* [n] lineitem rows of [db] from offset [at] on, with [l_shipmode] set to
   [mode] on every third row: a value the dictionary has not seen grows
   it. *)
let li_batch db ~n ~at ~mode =
  let li = Catalog.relation (Db.catalog db) "lineitem" in
  let b =
    Relation.take li (Array.init n (fun i -> (at + i) mod Relation.n_rows li))
  in
  let i = Option.get (Relation.col_index b "l_shipmode") in
  let cols = Array.copy b.Relation.cols in
  cols.(i) <-
    Column.of_strings
      (Array.init n (fun r ->
           if r mod 3 = 0 then mode else Column.string_at cols.(i) r));
  { b with Relation.cols }

(* A freshly loaded database holding [rels] end to end as lineitem. *)
let li_reference rels =
  let db = Db.create () in
  Db.load_table db "lineitem" (Relation.concat ~grain:0 rels);
  db

(* A pin taken when its version owns the spare room: the appends after it
   write past its end, which it must never see. *)
let test_pin_isolated_from_in_place () =
  let db = Tpch.Dbgen.make_db 0.005 in
  let queries = li_queries db in
  Db.append_table db "lineitem" (li_batch db ~n:40 ~at:0 ~mode:"AIR");
  let pin = Db.snapshot db in
  let rows () = Relation.n_rows (Catalog.relation (Db.catalog pin) "lineitem") in
  let n = rows () and before = li_answers queries pin in
  for k = 1 to 3 do
    Db.append_table db "lineitem"
      (li_batch db ~n:40 ~at:(k * 97) ~mode:(Printf.sprintf "M%d" k))
  done;
  Alcotest.(check int) "pin row count" n (rows ());
  check_answers "pin after three appends" before (li_answers queries pin)

(* A [Db.snapshot] fork and its parent share the spare room at the fork.
   Appending to both, alternately, must leave each its own rows: the first
   to append claims the room, and the other copies into a backing of its
   own. *)
let test_fork_appends_diverge () =
  let db = Tpch.Dbgen.make_db 0.005 in
  let queries = li_queries db in
  Db.append_table db "lineitem" (li_batch db ~n:40 ~at:0 ~mode:"AIR");
  let fork = Db.snapshot db in
  let base = Catalog.relation (Db.catalog db) "lineitem" in
  let appended = [ (db, ref []); (fork, ref []) ] in
  for k = 1 to 3 do
    List.iteri
      (fun j (d, batches) ->
        let b =
          li_batch d ~n:(30 + j) ~at:((k * 101) + (j * 53))
            ~mode:(Printf.sprintf "T%d-%d" j k)
        in
        Db.append_table d "lineitem" b;
        batches := !batches @ [ b ])
      appended;
    List.iteri
      (fun j (d, batches) ->
        let reference = li_reference (base :: !batches) in
        List.iter
          (fun backend ->
            check_answers
              (Printf.sprintf "%s after round %d, %s"
                 (if j = 0 then "parent" else "fork") k (Db.backend_name backend))
              (li_answers ~backend queries reference)
              (li_answers ~backend queries d))
          Helpers.backends)
      appended
  done

(* A registered view and a cached entry catch up by delta across appends
   that write in place, and each equals a recompute. *)
let test_in_place_delta_refresh () =
  let db = Tpch.Dbgen.make_db 0.005 in
  let q1 = tpch_sql db "q1" and q6 = tpch_sql db "q6" in
  ok_or_fail (Db.register_view db ~name:"q1" q1);
  ignore (Db.execute db q6);
  let before = (Db.cache_stats db).Db.delta_refreshes in
  for k = 1 to 4 do
    Db.append_table db "lineitem" (li_batch db ~n:48 ~at:(k * 89) ~mode:"RAIL");
    List.iter
      (fun sql ->
        Helpers.check_rows_close ~digits:4
          (Printf.sprintf "append %d" k)
          (Relation.canonical ~digits:4 (Db.execute (Db.snapshot db) sql))
          (Relation.canonical ~digits:4 (Db.execute db sql)))
      [ q1; q6 ]
  done;
  (* the view refreshes by delta on every append; the entry's first stale
     read promotes it, the next three are deltas *)
  if not (Faults.armed ()) then
    Alcotest.(check int) "delta refreshes" 7
      ((Db.cache_stats db).Db.delta_refreshes - before)

(* A batch that fails the schema check claims no room: the table and its
   answers stay as they were, and the next valid append still writes in
   place. *)
let test_failed_append_claims_nothing () =
  let db = Tpch.Dbgen.make_db 0.002 in
  let queries = li_queries db in
  Db.append_table db "lineitem" (li_batch db ~n:32 ~at:0 ~mode:"AIR");
  let base = Catalog.relation (Db.catalog db) "lineitem" in
  let before = li_answers queries db in
  let good = li_batch db ~n:32 ~at:500 ~mode:"BOAT" in
  let last = Relation.n_cols good - 1 in
  let bad =
    { good with
      Relation.cols =
        Array.mapi
          (fun i c -> if i = last then Column.of_ints (Array.make 32 0) else c)
          good.Relation.cols }
  in
  (match Db.append_table db "lineitem" bad with
  | () -> Alcotest.fail "a mistyped last column was appended"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "row count unchanged" (Relation.n_rows base)
    (Relation.n_rows (Catalog.relation (Db.catalog db) "lineitem"));
  check_answers "answers unchanged" before (li_answers queries db);
  Column.reset_cells_copied ();
  Db.append_table db "lineitem" good;
  Alcotest.(check bool)
    (Printf.sprintf "valid append writes in place: %d cells copied"
       (Column.cells_copied ()))
    true
    (Column.cells_copied () <= 32 * Relation.n_cols good);
  check_answers "after the valid append"
    (li_answers queries (li_reference [ base; good ]))
    (li_answers queries db)

let suites =
  let tc = Helpers.tc in
  [ ( "matview-append",
      [ tc "append scans O(delta), not O(table)" test_append_scan_bound;
        tc "appended stats match recompute" test_append_stats_consistency;
        tc "pin unchanged by in-place appends" test_pin_isolated_from_in_place;
        tc "parent and fork appends diverge" test_fork_appends_diverge;
        tc "delta refresh across in-place appends" test_in_place_delta_refresh;
        tc "failed append claims no room" test_failed_append_claims_nothing;
        tc "appended zones fold only the batch" test_append_zones_exact ] );
    ( "matview-oracle",
      [ tc "q1 suffix refresh bit-exact" test_oracle_q1;
        tc "q6 suffix refresh bit-exact" test_oracle_q6;
        tc "q3 join view bit-exact on driver appends" test_oracle_q3;
        tc "q12 delta-rule on build-side appends" test_oracle_q12;
        tc "q14 lineitem and part appends bit-exact" test_oracle_q14;
        tc "q12 driver appends bit-exact" test_oracle_q12_driver_appends ] );
    ( "matview-groups",
      [ tc "grouped filter: new groups, nulls, backends"
          test_grouped_filter_view;
        tc "DISTINCT aggregates across appends" test_distinct_aggregate_view;
        tc "MIN/MAX views" test_minmax_view ]
    );
    ( "matview-fallback",
      [ tc "join without aggregate recomputes with typed reason"
          test_fallback_join_without_agg;
        tc "explain reports maintainability" test_explain_maintainable;
        tc "TPC-H analyze_ivm verdicts" test_tpch_verdicts;
        tc "IVM off forces recompute" test_ivm_disabled ] );
    ( "matview-crash",
      [ tc "tripped refresh keeps previous version"
          test_crashed_refresh_keeps_version;
        tc "differential under fault injection"
          test_faulty_refresh_differential;
        tc "tripped rebuild after a replace stays flagged"
          test_tripped_rebuild_after_replace ] );
    ( "matview-tenancy",
      [ tc "owner counters and view quota" test_owner_counters_and_quota;
        tc "replace triggers replan" test_replace_triggers_replan ] );
    ( "matview-cache",
      [ tc "dashboard keys vs snapshot, vectorized"
          (cache_differential Db.Vectorized);
        tc "dashboard keys vs snapshot, compiled"
          (cache_differential Db.Compiled);
        tc "eviction drops the entry's view" test_cache_eviction_drops_view;
        tc "IVM toggled on entries: recompute, promote, delta"
          test_cache_ivm_toggle;
        tc "q14 maintainable under dashboard date shifts"
          test_q14_shifts_maintainable ]
    );
    ( "matview-builds",
      [ tc "q3 view keeps its build sides"
          (test_builds_retained ~append:lineitem_copies "q3" ~entry:false);
        tc "q3 entry keeps its build sides"
          (test_builds_retained ~append:lineitem_copies "q3" ~entry:true);
        tc "q3 view across orders and customer appends"
          (test_q3_dimension_appends ~entry:false);
        tc "q3 entry across orders and customer appends"
          (test_q3_dimension_appends ~entry:true);
        tc "q3 view: tripped refresh keeps no builds"
          (test_crashed_build_view "q3");
        tc "q3 entry: tripped refresh keeps no builds"
          (test_crashed_build_entry "q3");
        tc "q12 view keeps its orders build"
          (test_builds_retained ~append:q12_lines "q12" ~entry:false);
        tc "q12 entry keeps its orders build"
          (test_builds_retained ~append:q12_lines "q12" ~entry:true);
        tc "q12 view across orders and lineitem appends"
          (test_q12_both_appends ~entry:false);
        tc "q12 entry across orders and lineitem appends"
          (test_q12_both_appends ~entry:true);
        tc "q12 view: tripped refresh keeps no left build"
          (test_crashed_build_view "q12");
        tc "q12 entry: tripped refresh keeps no left build"
          (test_crashed_build_entry "q12") ] ) ]
