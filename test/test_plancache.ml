(** Parameterized plan cache: fingerprint round-trips over the full TPC-H
    and paper-workload query set, bind-vs-direct execution identity on both
    backends, guard-driven specialization, text normalization, and
    shape-keyed matview routing. *)

open Sqldb
open Helpers

(* ------------------------------------------------------------------ *)
(* Query corpus: every TPC-H query and every paper workload, compiled  *)
(* to SQL against its own dataset.                                     *)
(* ------------------------------------------------------------------ *)

let tpch_db = lazy (Tpch.Dbgen.make_db 0.005)

let tpch_sqls =
  lazy
    (let db = Lazy.force tpch_db in
     List.map
       (fun (name, src) ->
         (name, db, Pytond.compile ~db ~source:src ~fname:"query" ()))
       Tpch.Queries.all)

(* The hybrid_* workloads share one dataset; build it once. *)
let hybrid_db =
  lazy
    (let db = Db.create () in
     Workloads.load_hybrid ~rows:20_000 db;
     db)

let workload_sqls =
  lazy
    (List.map
       (fun (name, load, src) ->
         let db =
           if String.length name >= 6 && String.sub name 0 6 = "hybrid" then
             Lazy.force hybrid_db
           else begin
             let db = Db.create () in
             load db;
             db
           end
         in
         (name, db, Pytond.compile ~db ~source:src ~fname:"query" ()))
       Workloads.all)

let corpus () = Lazy.force tpch_sqls @ Lazy.force workload_sqls

(* ------------------------------------------------------------------ *)
(* Round-trip: parameterize -> re-render literals -> re-fingerprint    *)
(* must be a fixpoint, and the shape itself must parse and print       *)
(* stably.                                                             *)
(* ------------------------------------------------------------------ *)

(* Substitute the extracted constants back into the shape text. Shape
   tokens are space-separated, so each [$k] is a standalone word. *)
let relit (f : Sql_shape.t) : string =
  String.split_on_char ' ' f.Sql_shape.shape
  |> List.map (fun w ->
         if String.length w >= 2 && w.[0] = '$' then
           match int_of_string_opt (String.sub w 1 (String.length w - 1)) with
           | Some k when k >= 1 && k <= Array.length f.Sql_shape.params ->
             Sql_ast.lit_to_sql f.Sql_shape.params.(k - 1)
           | _ -> w
         else w)
  |> String.concat " "

let test_roundtrip =
  tc "fingerprint round-trips over TPC-H and workloads" (fun () ->
      List.iter
        (fun (name, _db, sql) ->
          let f = Sql_shape.fingerprint sql in
          (* the shape is legal SQL, and print/parse converges: one
             round may reassociate AND chains, after which printing is a
             fixpoint *)
          let ast = Sql_parse.parse f.Sql_shape.shape in
          let p1 = Sql_print.query_to_sql ast in
          let p2 = Sql_print.query_to_sql (Sql_parse.parse p1) in
          Alcotest.(check string)
            (name ^ ": shape print/parse stable")
            p2
            (Sql_print.query_to_sql (Sql_parse.parse p2));
          (* substituting the constants back and re-fingerprinting yields
             the identical shape and parameter vector *)
          let f2 = Sql_shape.fingerprint (relit f) in
          Alcotest.(check string)
            (name ^ ": shape stable under re-fingerprint")
            f.Sql_shape.shape f2.Sql_shape.shape;
          Alcotest.(check bool)
            (name ^ ": params stable under re-fingerprint")
            true
            (f.Sql_shape.params = f2.Sql_shape.params))
        (corpus ()))

let test_dollar_rejected =
  tc "pre-existing $k placeholders are rejected" (fun () ->
      let sql = "SELECT o_id FROM orders WHERE o_cust = $1" in
      match Sql_shape.fingerprint sql with
      | exception Sql_shape.Unparameterizable _ -> ()
      | _ -> Alcotest.fail "fingerprint accepted a $k placeholder")

(* ------------------------------------------------------------------ *)
(* Bind-vs-direct identity: planning the shape as a template and       *)
(* binding the constants must execute bit-identically to planning the  *)
(* literal text, on both backends, single- and multi-threaded.         *)
(* ------------------------------------------------------------------ *)

let test_bind_identity =
  tc "template bind executes identically to direct plan" (fun () ->
      List.iter
        (fun (name, db, sql) ->
          let cat = Catalog.pin db.Db.catalog in
          let f = Sql_shape.fingerprint sql in
          let direct = Db.plan_on cat sql in
          let tpl, _guards =
            Planner.plan_template cat ~params:f.Sql_shape.params
              (Sql_parse.parse f.Sql_shape.shape)
          in
          let bound = Plan.bind_query f.Sql_shape.params tpl in
          List.iter
            (fun threads ->
              check_rel
                (Printf.sprintf "%s vectorized @%dt" name threads)
                (Exec_vectorized.run_query ~threads cat direct)
                (Exec_vectorized.run_query ~threads cat bound);
              check_rel
                (Printf.sprintf "%s compiled @%dt" name threads)
                (Exec_compiled.run_query ~threads cat direct)
                (Exec_compiled.run_query ~threads cat bound))
            [ 1; 3 ])
        (corpus ()))

(* With faults armed the plan cache stands down: results stay correct, no
   template is planned or bound, and EXPLAIN says so. *)
let test_faults_stand_down =
  tc "plan cache stands down under fault injection" (fun () ->
      let db = mini_db () in
      let sql = "SELECT o_id FROM orders WHERE o_total < 150.0" in
      let expected = Db.execute db sql in
      let before = Db.cache_stats db in
      Faults.arm ~seed:42 ();
      Fun.protect ~finally:Faults.arm_from_env (fun () ->
          let r = Db.execute db sql in
          check_rel "armed result identical" expected r;
          let s = Db.cache_stats db in
          Alcotest.(check int) "no cold template planned"
            before.Db.bind_misses s.Db.bind_misses;
          Alcotest.(check int) "no template bound" before.Db.bind_hits
            s.Db.bind_hits;
          Alcotest.(check bool) "explain reports the plan cache off" true
            (contains_sub "plancache: off" (Db.explain db sql))))

(* ------------------------------------------------------------------ *)
(* Plan-cache behavior through Db.execute                              *)
(* ------------------------------------------------------------------ *)

let test_bind_hit =
  tc "same shape, new constant: bound without replanning" (fun () ->
      let db = mini_db () in
      let q c = Printf.sprintf "SELECT o_id FROM orders WHERE o_cust = %d" c in
      let r10 = Db.execute db (q 10) in
      Alcotest.(check int) "two orders for cust 10" 2 (Relation.n_rows r10);
      let s1 = Db.cache_stats db in
      Alcotest.(check int) "cold plan" 1 s1.Db.bind_misses;
      Alcotest.(check int) "one shape cached" 1 s1.Db.plan_entries;
      let r20 = Db.execute ~owner:"t1" db (q 20) in
      Alcotest.(check int) "two orders for cust 20" 2 (Relation.n_rows r20);
      let s2 = Db.cache_stats db in
      Alcotest.(check int) "template bound, no replan" 1 s2.Db.bind_hits;
      Alcotest.(check int) "still one shape" 1 s2.Db.plan_entries;
      let _, _, _, _, _, bh = Db.owner_stats db "t1" in
      Alcotest.(check int) "bind hit attributed to tenant" 1 bh)

let test_toggle =
  tc "plancache = false settings" (fun () ->
      let db = mini_db () in
      let settings = { Settings.default with plancache = false } in
      List.iter
        (fun c ->
          ignore
            (Db.execute ~settings db
               (Printf.sprintf "SELECT o_id FROM orders WHERE o_cust = %d" c)))
        [ 10; 20 ];
      let s = Db.cache_stats db in
      Alcotest.(check int) "no templates planned" 0 s.Db.bind_misses;
      Alcotest.(check int) "no templates bound" 0 s.Db.bind_hits;
      Alcotest.(check int) "no shapes cached" 0 s.Db.plan_entries)

let test_plan_quota =
  tc "per-tenant plan quota evicts oldest template" (fun () ->
      let db = mini_db () in
      let exec sql = ignore (Db.execute ~owner:"a" ~plan_quota:1 db sql) in
      exec "SELECT o_id FROM orders WHERE o_cust = 10";
      exec "SELECT o_total FROM orders WHERE o_cust = 10";
      let s = Db.cache_stats db in
      Alcotest.(check int) "quota holds one template" 1 s.Db.plan_entries)

let test_invalidation =
  tc "replacing a table drops its cached templates" (fun () ->
      let db = mini_db () in
      ignore (Db.execute db "SELECT o_id FROM orders WHERE o_cust = 10");
      ignore (Db.execute db "SELECT c_name FROM cust WHERE c_id = 10");
      Alcotest.(check int) "two shapes cached" 2
        (Db.cache_stats db).Db.plan_entries;
      Db.load_table db "orders"
        (rel [ "o_id"; "o_cust"; "o_total"; "o_date" ]
           [ ints [| 1 |]; ints [| 10 |]; floats [| 9. |];
             dates [| "1999-01-01" |] ]);
      Alcotest.(check int) "orders template dropped, cust kept" 1
        (Db.cache_stats db).Db.plan_entries)

(* ------------------------------------------------------------------ *)
(* Guards: a constant whose selectivity falls outside the template's   *)
(* assumed bucket forces a specialized replan, cached as a sibling.    *)
(* ------------------------------------------------------------------ *)

let test_guard_trip =
  tc "out-of-range constant replans into a specialization" (fun () ->
      let db = mini_db () in
      (* o_total spans [50, 200]: 100 and 110 estimate into the same
         selectivity bucket; 51 is far more selective. *)
      let q c =
        Printf.sprintf
          "SELECT o_id FROM orders WHERE o_total < %.1f ORDER BY o_id" c
      in
      let ids r = Relation.canonical r in
      let r1 = Db.execute db (q 100.) in
      Alcotest.(check (list string)) "lt 100" [ "3"; "4" ] (ids r1);
      let r2 = Db.execute db (q 110.) in
      Alcotest.(check (list string)) "lt 110" [ "1"; "3"; "4" ] (ids r2);
      let s = Db.cache_stats db in
      Alcotest.(check int) "same bucket: bound" 1 s.Db.bind_hits;
      Alcotest.(check int) "no trip yet" 0 s.Db.guard_trips;
      (* before executing: explain predicts the trip *)
      let e = Db.explain db (q 51.) in
      Alcotest.(check bool) "explain reports guard trip" true
        (contains_sub "guard trip" e);
      let r3 = Db.execute db (q 51.) in
      Alcotest.(check (list string)) "lt 51" [ "3" ] (ids r3);
      let s2 = Db.cache_stats db in
      Alcotest.(check int) "guard tripped" 1 s2.Db.guard_trips;
      Alcotest.(check int) "shared entry not poisoned" 1 s2.Db.plan_entries;
      (* the specialization now serves this bucket *)
      let e2 = Db.explain db (q 51.) in
      Alcotest.(check bool) "explain reports specialized bind" true
        (contains_sub "specialized bind hit" e2);
      (* and the original template still binds in its own bucket *)
      let r4 = Db.execute db (q 105.) in
      Alcotest.(check (list string)) "lt 105" [ "1"; "3"; "4" ] (ids r4);
      let s3 = Db.cache_stats db in
      Alcotest.(check int) "template still binds" 2 s3.Db.bind_hits;
      Alcotest.(check int) "no second trip" 1 s3.Db.guard_trips)

(* Text the fingerprint rejects has no cache key: it runs uncached, so
   nothing is stored, and the planner reports the same typed error as
   with the cache off. *)
let test_unkeyed_runs_uncached =
  tc "unfingerprintable text runs uncached" (fun () ->
      let db = mini_db () in
      let raises what sql check =
        match Db.execute db sql with
        | exception e when check e -> ()
        | exception e ->
          Alcotest.failf "%s: unexpected %s" what (Printexc.to_string e)
        | _ -> Alcotest.failf "%s: executed" what
      in
      let bind = function Planner.Bind_error _ -> true | _ -> false in
      let parse = function Sql_parse.Parse_error _ -> true | _ -> false in
      raises "bare $1" "SELECT o_id FROM orders WHERE o_cust = $1" bind;
      raises "bare $1 in the select list" "SELECT $1 FROM orders" bind;
      raises "unterminated literal" "SELECT o_id FROM orders WHERE o_cust = 'x"
        parse;
      let s = Db.cache_stats db in
      Alcotest.(check int) "no entry stored" 0 s.Db.entries;
      Alcotest.(check int) "no miss counted" 0 s.Db.misses;
      Alcotest.(check int) "no template planned" 0 s.Db.bind_misses)

(* ------------------------------------------------------------------ *)
(* Matview routing through the shape key                               *)
(* ------------------------------------------------------------------ *)

let test_matview_shape_routing =
  tc "view serves comment/whitespace variants of its SQL" (fun () ->
      let db = mini_db () in
      let sql =
        "SELECT o_cust, SUM(o_total) AS s FROM orders WHERE o_total > 60.0 \
         GROUP BY o_cust ORDER BY o_cust"
      in
      (match Db.register_view db ~name:"v" sql with
      | Ok () -> ()
      | Error e -> Alcotest.failf "register_view: %s" e);
      let expected = Db.execute db sql in
      let variant =
        "select o_cust , SUM( o_total ) as s -- cached upstream\n\
         from orders where o_total > 60.0 group by o_cust order by o_cust"
      in
      let r = Db.execute db variant in
      check_rel "variant answered" expected r;
      let s = Db.cache_stats db in
      Alcotest.(check bool) "served from the view"
        true (s.Db.view_hits >= 2))

(* ORDER BY items are positional references: an ordinal after a CASE
   expression stays literal in the shape (WHEN/THEN/ELSE inside ORDER BY
   must not reopen parameter extraction), so the planner still resolves
   it to a column instead of sorting by a bound constant. *)
let test_order_ordinal_after_case =
  tc "ORDER BY ordinal after CASE stays literal" (fun () ->
      let sql =
        "SELECT a, b FROM t ORDER BY CASE WHEN a = 1 THEN 0 ELSE 1 END, 2"
      in
      let f = Sql_shape.fingerprint sql in
      Alcotest.(check string)
        "shape"
        "SELECT a , b FROM t ORDER BY CASE WHEN a = 1 THEN 0 ELSE 1 END , 2"
        f.Sql_shape.shape;
      Alcotest.(check int) "no slots" 0 (Array.length f.Sql_shape.params);
      let db = Db.create () in
      Db.load_table db "t"
        (rel [ "a"; "b" ] [ ints [| 2; 1; 3; 1 |]; ints [| 5; 9; 1; 2 |] ]);
      let r = Db.execute db sql in
      Alcotest.(check (list string))
        "CASE rank, then column 2"
        [ "1|2"; "1|9"; "3|1"; "2|5" ]
        (List.init (Relation.n_rows r) (fun i ->
             String.concat "|"
               (Array.to_list (Array.map Value.to_string (Relation.row r i))))))

let suites =
  [ ( "plancache",
      [ test_roundtrip; test_dollar_rejected; test_bind_identity;
        test_faults_stand_down; test_bind_hit; test_toggle; test_plan_quota;
        test_invalidation; test_guard_trip; test_unkeyed_runs_uncached;
        test_matview_shape_routing; test_order_ordinal_after_case ] ) ]
