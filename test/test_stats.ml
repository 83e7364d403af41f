(** Statistics, cost-based planning, zone-map skipping and the query cache.

    Covers: per-column statistics computed at ingest (min/max, null and
    distinct counts, exact dictionary counts), zone-map scan skipping
    equivalence against unskipped execution (including all-NULL and
    single-value blocks), join-order selection on skewed catalogs (smaller
    side becomes the hash-join build side), cardinality-estimate sanity on
    TPC-H range predicates, and the [Db] query cache (hit/miss accounting,
    invalidation on ingest, stand-down under fault injection). *)

open Sqldb
open Helpers

(* Cache tests must observe cache behaviour regardless of the environment:
   PYTOND_FAULTS=<seed> in CI would make the cache stand down. Run [f] with
   faults disarmed, then re-arm them from the environment. *)
let with_clean_cache_env f =
  Faults.disarm ();
  Fun.protect ~finally:Faults.arm_from_env f

(* ------------------------------------------------------------------ *)
(* Column statistics                                                  *)
(* ------------------------------------------------------------------ *)

let test_basic_stats () =
  let db = Db.create () in
  Db.load_table db "t"
    (rel [ "a"; "b"; "s" ]
       [ ints [| 5; 1; 9; 3; 7 |];
         Column.of_values Value.TFloat
           [| Value.VFloat 1.5; Value.VNull; Value.VFloat 0.5; Value.VNull;
              Value.VFloat 2.5 |];
         strings [| "x"; "y"; "x"; "z"; "x" |] ]);
  let st = Option.get (Catalog.stats_opt (Db.catalog db) "t") in
  Alcotest.(check int) "row count" 5 st.Stats.row_count;
  let a = st.Stats.cols.(0) and b = st.Stats.cols.(1) and s = st.Stats.cols.(2) in
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "a range" (Some (1., 9.)) a.Stats.range;
  Alcotest.(check int) "a nulls" 0 a.Stats.null_count;
  Alcotest.(check (float 0.)) "a distinct" 5. a.Stats.distinct;
  Alcotest.(check int) "b nulls" 2 b.Stats.null_count;
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "b range ignores nulls" (Some (0.5, 2.5)) b.Stats.range;
  Alcotest.(check (float 0.)) "s distinct" 3. s.Stats.distinct;
  Alcotest.(check (option (pair string string)))
    "s min/max" (Some ("x", "z")) s.Stats.str_range

(* Dictionary columns report the exact dictionary size, and the raw layout
   of the same data estimates the same number — stats are encoding-neutral. *)
let test_dict_distinct_consistency () =
  let data = Array.init 6000 (fun i -> Printf.sprintf "g%d" (i mod 37)) in
  let stats_with dict =
    let db = Db.create ~settings:{ Settings.default with dict } () in
    Db.load_table db "t" (rel [ "g" ] [ strings data ]);
    (Option.get (Catalog.stats_opt (Db.catalog db) "t")).Stats.cols.(0)
  in
  let d = stats_with true and r = stats_with false in
  Alcotest.(check (float 0.)) "dict distinct exact" 37. d.Stats.distinct;
  Alcotest.(check (float 0.)) "raw distinct matches" 37. r.Stats.distinct;
  Alcotest.(check (option (pair string string)))
    "same str_range" r.Stats.str_range d.Stats.str_range

(* Primary-key columns are known unique: distinct = row count exactly. *)
let test_unique_constraint_distinct () =
  let n = 10_000 in
  let db = Db.create () in
  Db.load_table db "t"
    ~cons:{ Catalog.no_constraints with primary_key = [ "id" ] }
    (rel [ "id" ] [ ints (Array.init n (fun i -> i * 3)) ]);
  let st = Option.get (Catalog.stats_opt (Db.catalog db) "t") in
  Alcotest.(check (float 0.))
    "pk distinct exact" (float_of_int n) st.Stats.cols.(0).Stats.distinct

(* ------------------------------------------------------------------ *)
(* Zone maps and scan skipping                                        *)
(* ------------------------------------------------------------------ *)

(* Three-block column exercising the degenerate zone shapes: an ascending
   block, an all-NULL block (empty zone interval), a constant block. *)
let zone_shaped_db () =
  let bs = Stats.block_size in
  let n = 3 * bs in
  let vals =
    Array.init n (fun i ->
        if i < bs then Value.VInt i (* 0 .. bs-1, ascending *)
        else if i < 2 * bs then Value.VNull (* all-NULL block *)
        else Value.VInt 5 (* single-value block *))
  in
  let payload = Array.init n (fun i -> float_of_int (i mod 100)) in
  let db = Db.create () in
  Db.load_table db "t"
    (rel [ "k"; "v" ] [ Column.of_values Value.TInt vals; floats payload ]);
  db

let test_zone_maps_shapes () =
  let db = zone_shaped_db () in
  let st = Option.get (Catalog.stats_opt (Db.catalog db) "t") in
  let zs = Option.get st.Stats.zones.(0) in
  Alcotest.(check int) "three blocks" 3 (Array.length zs);
  Alcotest.(check (float 0.)) "block 0 min" 0. zs.(0).Stats.zmin;
  Alcotest.(check (float 0.))
    "block 0 max"
    (float_of_int (Stats.block_size - 1))
    zs.(0).Stats.zmax;
  Alcotest.(check bool)
    "all-NULL block is the empty interval" true
    (zs.(1).Stats.zmin > zs.(1).Stats.zmax);
  Alcotest.(check (float 0.)) "constant block min" 5. zs.(2).Stats.zmin;
  Alcotest.(check (float 0.)) "constant block max" 5. zs.(2).Stats.zmax

(* Skipped execution must equal unskipped execution exactly. The same
   queries run on both backends and thread counts (execute_everywhere
   cross-checks them) and against a shuffled copy of the same rows, whose
   zones prune nothing — so any answer divergence indicts the skipping. *)
let test_zone_skip_equivalence () =
  let db = zone_shaped_db () in
  (* same rows, interleaved so every block's zone spans the full domain *)
  let n = 3 * Stats.block_size in
  let perm = Array.init n (fun i -> (i * 7919) mod n) in
  let k = (Catalog.relation (Db.catalog db) "t").Relation.cols.(0) in
  let v = (Catalog.relation (Db.catalog db) "t").Relation.cols.(1) in
  let db2 = Db.create () in
  Db.load_table db2 "t"
    (rel [ "k"; "v" ]
       [ Column.of_values Value.TInt
           (Array.map (fun i -> Column.get k i) perm);
         Column.of_values Value.TFloat
           (Array.map (fun i -> Column.get v i) perm) ]);
  List.iter
    (fun sql ->
      let skipping = execute_everywhere db sql in
      let control = execute_everywhere db2 sql in
      check_rel sql control skipping)
    [ (* prunes the NULL and constant blocks *)
      "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE k >= 1000";
      (* selects only the constant block's value, plus 1 row of block 0 *)
      "SELECT COUNT(*) AS n FROM t WHERE k = 5";
      (* empty range: every block prunes *)
      "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE k < 0";
      (* range + second conjunct the zones know nothing about *)
      "SELECT COUNT(*) AS n FROM t WHERE k < 100 AND v < 50";
      (* grouped aggregate over a pruned scan *)
      "SELECT k, COUNT(*) AS n FROM t WHERE k >= 4090 AND k < 4100 \
       GROUP BY k ORDER BY k";
      (* OR of two checkable ranges *)
      "SELECT COUNT(*) AS n FROM t WHERE k < 3 OR k > 4090" ]

(* ------------------------------------------------------------------ *)
(* Join ordering on skewed catalogs                                   *)
(* ------------------------------------------------------------------ *)

let skewed_db () =
  let db = Db.create () in
  let big_n = 20_000 and small_n = 12 in
  Db.load_table db "big"
    (rel [ "b_id"; "b_k" ]
       [ ints (Array.init big_n Fun.id);
         ints (Array.init big_n (fun i -> i mod small_n)) ]);
  Db.load_table db "small"
    ~cons:{ Catalog.no_constraints with primary_key = [ "s_id" ] }
    (rel [ "s_id"; "s_tag" ]
       [ ints (Array.init small_n Fun.id);
         strings (Array.init small_n (fun i -> Printf.sprintf "t%d" i)) ]);
  db

let rec find_join (p : Plan.plan) =
  match p.Plan.node with
  | Plan.Join { left; right; _ } -> Some (left, right)
  | Plan.Scan _ | Plan.PValues _ -> None
  | Plan.Filter (s, _)
  | Plan.Project (s, _)
  | Plan.Aggregate (s, _, _)
  | Plan.Sort (s, _)
  | Plan.LimitN (s, _)
  | Plan.Distinct s
  | Plan.Window (s, _, _) -> find_join s
  | Plan.SemiJoin { left; _ } -> find_join left

let rec base_scans (p : Plan.plan) =
  match p.Plan.node with
  | Plan.Scan name -> [ name ]
  | Plan.PValues _ -> []
  | Plan.Filter (s, _)
  | Plan.Project (s, _)
  | Plan.Aggregate (s, _, _)
  | Plan.Sort (s, _)
  | Plan.LimitN (s, _)
  | Plan.Distinct s
  | Plan.Window (s, _, _) -> base_scans s
  | Plan.Join { left; right; _ } | Plan.SemiJoin { left; right; _ } ->
    base_scans left @ base_scans right

(* The probe side goes left, the build side right: on a 20000-vs-12 join the
   planner must put [small] on the right, whichever order the query names
   the tables. *)
let test_build_side_is_small () =
  let db = skewed_db () in
  List.iter
    (fun sql ->
      let bq = Db.plan db sql in
      match find_join bq.Plan.main with
      | None -> Alcotest.fail ("no join in plan for: " ^ sql)
      | Some (left, right) ->
        Alcotest.(check (list string)) ("build side of: " ^ sql) [ "small" ]
          (base_scans right);
        Alcotest.(check (list string)) ("probe side of: " ^ sql) [ "big" ]
          (base_scans left);
        Alcotest.(check bool)
          ("build estimate below probe estimate: " ^ sql)
          true
          (right.Plan.est <= left.Plan.est))
    [ "SELECT COUNT(*) AS n FROM big, small WHERE b_k = s_id";
      "SELECT COUNT(*) AS n FROM small, big WHERE s_id = b_k" ]

(* Three-way chain: the two smaller relations join first (smallest estimated
   intermediate), leaving the big table to probe last. *)
let test_three_way_order () =
  let db = skewed_db () in
  Db.load_table db "mid"
    (rel [ "m_id"; "m_k" ]
       [ ints (Array.init 300 Fun.id); ints (Array.init 300 (fun i -> i mod 12)) ]);
  let bq =
    Db.plan db
      "SELECT COUNT(*) AS n FROM big, mid, small WHERE b_k = s_id AND m_k = s_id"
  in
  match find_join bq.Plan.main with
  | None -> Alcotest.fail "no join in plan"
  | Some (left, right) ->
    (* top join: big probes the (mid x small) build *)
    Alcotest.(check (list string)) "top probe" [ "big" ] (base_scans left);
    Alcotest.(check bool)
      "top build covers mid and small" true
      (List.sort compare (base_scans right) = [ "mid"; "small" ])

(* ------------------------------------------------------------------ *)
(* Cardinality estimates                                              *)
(* ------------------------------------------------------------------ *)

let rec find_filter (p : Plan.plan) =
  match p.Plan.node with
  | Plan.Filter _ -> Some p
  | Plan.Scan _ | Plan.PValues _ -> None
  | Plan.Project (s, _)
  | Plan.Aggregate (s, _, _)
  | Plan.Sort (s, _)
  | Plan.LimitN (s, _)
  | Plan.Distinct s
  | Plan.Window (s, _, _) -> find_filter s
  | Plan.Join { left; right; _ } | Plan.SemiJoin { left; right; _ } -> (
    match find_filter left with Some f -> Some f | None -> find_filter right)

(* Single-table range predicates on TPC-H: the estimate derived from
   min/max interpolation must land within 10x of the true row count
   (acceptance criterion). *)
let test_tpch_estimates_within_10x () =
  let db = Tpch.Dbgen.make_db 0.005 in
  List.iter
    (fun where ->
      let sql = "SELECT * FROM lineitem WHERE " ^ where in
      let bq = Db.plan db sql in
      let actual = Relation.n_rows (Db.execute db sql) in
      match find_filter bq.Plan.main with
      | None -> Alcotest.fail ("no filter for: " ^ where)
      | Some f ->
        let est = Float.max 1. f.Plan.est
        and act = Float.max 1. (float_of_int actual) in
        let ratio = Float.max (est /. act) (act /. est) in
        if ratio > 10. then
          Alcotest.failf "%s: est %.0f vs actual %d (ratio %.1f)" where est
            actual ratio)
    [ "l_quantity < 10";
      "l_quantity >= 45";
      "l_shipdate >= DATE '1995-01-01'";
      "l_orderkey < 1000";
      "l_discount >= 0.05 AND l_discount <= 0.07";
      "l_extendedprice > 20000" ]

(* explain output carries both numbers. *)
let test_explain_shows_est_and_actual () =
  let db = Tpch.Dbgen.make_db 0.005 in
  let txt = Db.explain db "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10" in
  Alcotest.(check bool) "has est" true (contains_sub "est=" txt);
  Alcotest.(check bool) "has actual" true (contains_sub "actual=" txt)

(* ------------------------------------------------------------------ *)
(* Query cache                                                        *)
(* ------------------------------------------------------------------ *)

let cache_db ?settings () =
  let db = Db.create ?settings () in
  Db.load_table db "t"
    (rel [ "k"; "v" ]
       [ ints [| 1; 2; 3; 4; 5 |]; floats [| 1.; 2.; 3.; 4.; 5. |] ]);
  db

let test_cache_hit_miss () =
  with_clean_cache_env (fun () ->
      let db = cache_db () in
      let sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k" in
      let r1 = Db.execute db sql in
      let st = Db.cache_stats db in
      Alcotest.(check int) "first run misses" 1 st.Db.misses;
      Alcotest.(check int) "no hit yet" 0 st.Db.hits;
      let r2 = Db.execute db sql in
      let st = Db.cache_stats db in
      Alcotest.(check int) "second run hits" 1 st.Db.hits;
      check_rel "identical relation on repeat" r1 r2;
      (* whitespace-insensitive key *)
      let r3 = Db.execute db "SELECT k,   SUM(v) AS s\nFROM t GROUP BY k ORDER BY k" in
      Alcotest.(check int) "normalized SQL hits" 2 (Db.cache_stats db).Db.hits;
      check_rel "normalized repeat" r1 r3;
      (* different backend and thread count are distinct entries *)
      ignore (Db.execute ~backend:Db.Compiled db sql);
      ignore (Db.execute ~threads:3 db sql);
      let st = Db.cache_stats db in
      Alcotest.(check int) "other configs miss" 3 st.Db.misses)

let test_cache_invalidation_on_ingest () =
  with_clean_cache_env (fun () ->
      let db = cache_db () in
      let sql = "SELECT COUNT(*) AS n FROM t" in
      let before = Db.execute db sql in
      Alcotest.(check string)
        "5 rows before" "n=5"
        (Printf.sprintf "n=%d"
           (match Column.get before.Relation.cols.(0) 0 with
           | Value.VInt n -> n
           | _ -> -1));
      (* reload with more rows: the cached result must not survive *)
      Db.load_table db "t"
        (rel [ "k"; "v" ] [ ints [| 1; 2; 3; 4; 5; 6 |]; floats (Array.make 6 1.) ]);
      Alcotest.(check int) "cache emptied" 0 (Db.cache_stats db).Db.entries;
      let after = Db.execute db sql in
      Alcotest.(check string)
        "6 rows after" "n=6"
        (Printf.sprintf "n=%d"
           (match Column.get after.Relation.cols.(0) 0 with
           | Value.VInt n -> n
           | _ -> -1)))

let test_cache_disabled_under_faults () =
  with_clean_cache_env (fun () ->
      let db = cache_db () in
      let sql = "SELECT COUNT(*) AS n FROM t" in
      Faults.arm ~seed:11 ();
      Fun.protect ~finally:Faults.disarm (fun () ->
          ignore (Db.execute db sql);
          ignore (Db.execute db sql));
      let st = Db.cache_stats db in
      Alcotest.(check int) "no cache traffic under faults" 0
        (st.Db.hits + st.Db.misses))

(* [cache = false] in a query's settings, or in the database's settings,
   which a snapshot keeps: no hit is served and no miss counted. *)
let test_cache_toggle () =
  with_clean_cache_env (fun () ->
      let off = { Settings.default with cache = false } in
      let sql = "SELECT COUNT(*) AS n FROM t" in
      let traffic db =
        let st = Db.cache_stats db in
        st.Db.hits + st.Db.misses
      in
      let db = cache_db () in
      ignore (Db.execute ~settings:off db sql);
      ignore (Db.execute ~settings:off db sql);
      Alcotest.(check int) "query settings off: no traffic" 0 (traffic db);
      let snap = Db.snapshot (cache_db ~settings:off ()) in
      ignore (Db.execute snap sql);
      ignore (Db.execute snap sql);
      Alcotest.(check int) "snapshot of a cache-off database: no traffic" 0
        (traffic snap);
      ignore (Db.execute db sql);
      ignore (Db.execute db sql);
      Alcotest.(check int) "database settings on: hit" 1
        (Db.cache_stats db).Db.hits)

(* LRU bound: far more distinct queries than [cache] capacity; entries stay
   bounded and evictions are counted. *)
let test_cache_eviction () =
  with_clean_cache_env (fun () ->
      let db = cache_db () in
      for i = 1 to 100 do
        ignore
          (Db.execute db (Printf.sprintf "SELECT COUNT(*) AS n FROM t WHERE k < %d" i))
      done;
      let st = Db.cache_stats db in
      Alcotest.(check bool) "entries bounded" true (st.Db.entries <= 64);
      Alcotest.(check bool) "evictions counted" true (st.Db.evictions > 0))

let suites =
  [ ( "stats",
      [ tc "min/max/null/distinct at ingest" test_basic_stats;
        tc "dict vs raw distinct consistency" test_dict_distinct_consistency;
        tc "unique constraint gives exact distinct" test_unique_constraint_distinct ] );
    ( "zone-maps",
      [ tc "block shapes incl. all-NULL and constant" test_zone_maps_shapes;
        tc "skipping equals unskipped execution" test_zone_skip_equivalence ] );
    ( "join-order",
      [ tc "small side builds" test_build_side_is_small;
        tc "three-way chain order" test_three_way_order ] );
    ( "estimates",
      [ tc "TPC-H range predicates within 10x" test_tpch_estimates_within_10x;
        tc "explain prints est and actual" test_explain_shows_est_and_actual ] );
    ( "query-cache",
      [ tc "hit/miss accounting and repeat identity" test_cache_hit_miss;
        tc "invalidation on ingest" test_cache_invalidation_on_ingest;
        tc "stands down under faults" test_cache_disabled_under_faults;
        tc "cache = false settings" test_cache_toggle;
        tc "LRU eviction bound" test_cache_eviction ] ) ]
