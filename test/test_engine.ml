(** SQL engine tests: parser, planner, and cross-backend execution
    equivalence (vectorized vs compiled, 1 and 3 threads). *)

open Sqldb
open Helpers

let q db sql = execute_everywhere db sql

(* A 20000-row table [w] — an id, a 300-value int key [g], a float [x], a
   3-letter string [s] and a wide hashed key [h] — and a 10000-row table
   [v] joining [w] on every other id. *)
let agg_db () =
  let n = 20_000 in
  let db = Db.create () in
  Db.load_table db "w"
    (rel [ "id"; "g"; "x"; "s"; "h" ]
       [ ints (Array.init n Fun.id);
         ints (Array.init n (fun i -> i * 7 mod 300));
         floats (Array.init n (fun i -> float_of_int (i mod 97) /. 4.));
         strings (Array.init n (fun i -> [| "a"; "b"; "c" |].(i mod 3)));
         ints (Array.init n (fun i -> i mod 1013 * 100_003)) ]);
  Db.load_table db "v"
    (rel [ "vid"; "y" ]
       [ ints (Array.init (n / 2) (fun i -> 2 * i));
         ints (Array.init (n / 2) (fun i -> i)) ]);
  db

let parse_tests =
  [ tc "select star" (fun () ->
        let ast = Sql_parse.parse "SELECT * FROM t" in
        match ast.Sql_ast.body with
        | Sql_ast.Select s ->
          Alcotest.(check int) "one item" 1 (List.length s.items)
        | _ -> Alcotest.fail "expected select");
    tc "roundtrip through printer" (fun () ->
        let sql =
          "WITH v(a, b) AS (SELECT o_id AS a, o_total AS b FROM orders) \
           SELECT a, SUM(b) AS s FROM v WHERE a > 1 GROUP BY a ORDER BY s \
           DESC LIMIT 3"
        in
        let printed = Sql_print.query_to_sql (Sql_parse.parse sql) in
        (* printing the re-parse of the print is a fixpoint *)
        Alcotest.(check string)
          "fixpoint" printed
          (Sql_print.query_to_sql (Sql_parse.parse printed)));
    tc "date literal" (fun () ->
        match Sql_parse.parse "SELECT DATE '1995-01-01' AS d" with
        | { body = Sql_ast.Select { items = [ Sql_ast.Item (Sql_ast.Lit (Value.VDate d), _) ]; _ }; _ } ->
          Alcotest.(check string) "date" "1995-01-01" (Value.iso_of_date d)
        | _ -> Alcotest.fail "bad parse");
    tc "operator precedence" (fun () ->
        match Sql_parse.parse "SELECT 1 + 2 * 3 AS x" with
        | { body = Sql_ast.Select { items = [ Sql_ast.Item (e, _) ]; _ }; _ } ->
          Alcotest.(check string) "prec" "1 + 2 * 3"
            (Sql_print.expr_to_sql e)
        | _ -> Alcotest.fail "bad parse");
    tc "between desugars" (fun () ->
        let r = Db.execute (mini_db ()) "SELECT o_id FROM orders WHERE o_total BETWEEN 70.0 AND 130.0 ORDER BY o_id" in
        Alcotest.(check (list string)) "rows" [ "1"; "4"; "5" ] (Relation.canonical r));
    tc "rejects garbage" (fun () ->
        Alcotest.check_raises "parse error"
          (Sql_parse.Parse_error "expected keyword SELECT (at token 0: FROM)")
          (fun () -> ignore (Sql_parse.parse "FROM x SELECT")))
  ]

let exec_tests =
  [ tc "filter + project" (fun () ->
        let r = q (mini_db ()) "SELECT o_id, o_total * 2.0 AS t2 FROM orders WHERE o_total >= 100.0 ORDER BY o_id" in
        check_rel "result"
          (rel [ "o_id"; "t2" ]
             [ ints [| 1; 2; 5 |]; floats [| 200.; 400.; 250. |] ])
          r);
    tc "join with group" (fun () ->
        let r =
          q (mini_db ())
            "SELECT c.c_name, SUM(o.o_total) AS total FROM cust AS c, orders \
             AS o WHERE c.c_id = o.o_cust GROUP BY c.c_name ORDER BY total \
             DESC"
        in
        check_rel "result"
          (rel [ "c_name"; "total" ]
             [ strings [| "alice"; "bob" |]; floats [| 300.; 175. |] ])
          r);
    tc "left join null handling" (fun () ->
        let r =
          q (mini_db ())
            "SELECT c.c_name, COUNT(o.o_id) AS cnt FROM cust AS c LEFT JOIN \
             orders AS o ON c.c_id = o.o_cust GROUP BY c.c_name"
        in
        check_rel "count skips nulls"
          (rel [ "c_name"; "cnt" ]
             [ strings [| "alice"; "bob"; "carol" |]; ints [| 2; 2; 0 |] ])
          r);
    tc "right join" (fun () ->
        let r =
          q (mini_db ())
            "SELECT c.c_name FROM orders AS o RIGHT JOIN cust AS c ON \
             o.o_cust = c.c_id WHERE o.o_id IS NULL"
        in
        check_rel "unmatched right" (rel [ "c_name" ] [ strings [| "carol" |] ]) r);
    tc "full join" (fun () ->
        let r =
          q (mini_db ())
            "SELECT COUNT(*) AS n FROM orders AS o FULL JOIN cust AS c ON \
             o.o_cust = c.c_id"
        in
        (* 5 matched order rows + 1 unmatched customer *)
        check_rel "total rows" (rel [ "n" ] [ ints [| 6 |] ]) r);
    tc "exists (semi join)" (fun () ->
        let r =
          q (mini_db ())
            "SELECT c.c_name FROM cust AS c WHERE EXISTS (SELECT * FROM \
             orders AS o WHERE o.o_cust = c.c_id AND o.o_total > 150.0)"
        in
        check_rel "semi" (rel [ "c_name" ] [ strings [| "alice" |] ]) r);
    tc "not exists (anti join)" (fun () ->
        let r =
          q (mini_db ())
            "SELECT c.c_name FROM cust AS c WHERE NOT EXISTS (SELECT * FROM \
             orders AS o WHERE o.o_cust = c.c_id)"
        in
        check_rel "anti" (rel [ "c_name" ] [ strings [| "carol" |] ]) r);
    tc "in subquery" (fun () ->
        let r =
          q (mini_db ())
            "SELECT c_name FROM cust WHERE c_id IN (SELECT o_cust FROM orders \
             WHERE o_total < 60.0)"
        in
        check_rel "in" (rel [ "c_name" ] [ strings [| "bob" |] ]) r);
    tc "not in list" (fun () ->
        let r =
          q (mini_db ()) "SELECT c_name FROM cust WHERE c_id NOT IN (10, 20)"
        in
        check_rel "not in" (rel [ "c_name" ] [ strings [| "carol" |] ]) r);
    tc "distinct" (fun () ->
        let r = q (mini_db ()) "SELECT DISTINCT o_cust FROM orders" in
        Alcotest.(check int) "3 customers" 3 (Relation.n_rows r));
    tc "order by / limit" (fun () ->
        let r =
          Db.execute (mini_db ())
            "SELECT o_id FROM orders ORDER BY o_total DESC LIMIT 2"
        in
        Alcotest.(check (list string))
          "top2 in order" [ "2"; "5" ]
          (List.map
             (fun i -> Value.to_string (Column.get (Relation.column r "o_id") i))
             [ 0; 1 ]));
    tc "row_number window" (fun () ->
        let r =
          q (mini_db ())
            "SELECT o_id, row_number() OVER (ORDER BY o_total) AS rk FROM \
             orders"
        in
        let find_rk oid =
          let ids = Relation.column r "o_id" and rks = Relation.column r "rk" in
          let rec go i =
            if Column.int_at ids i = oid then Column.int_at rks i else go (i + 1)
          in
          go 0
        in
        Alcotest.(check int) "cheapest is rank1" 1 (find_rk 3);
        Alcotest.(check int) "dearest is rank5" 5 (find_rk 2));
    tc "case when" (fun () ->
        let r =
          q (mini_db ())
            "SELECT SUM(CASE WHEN o_total > 100.0 THEN 1 ELSE 0 END) AS big \
             FROM orders"
        in
        check_rel "case" (rel [ "big" ] [ ints [| 2 |] ]) r);
    tc "date filters & functions" (fun () ->
        let r =
          q (mini_db ())
            "SELECT year(o_date) AS y, COUNT(*) AS n FROM orders WHERE o_date \
             >= DATE '1995-01-01' GROUP BY year(o_date) ORDER BY y"
        in
        check_rel "years"
          (rel [ "y"; "n" ] [ ints [| 1995; 1996 |]; ints [| 3; 1 |] ])
          r);
    tc "like patterns" (fun () ->
        let r =
          q (mini_db ()) "SELECT c_name FROM cust WHERE c_name LIKE '%li%'"
        in
        check_rel "like" (rel [ "c_name" ] [ strings [| "alice" |] ]) r);
    tc "scalar agg over empty is null" (fun () ->
        let r =
          q (mini_db ()) "SELECT SUM(o_total) AS s FROM orders WHERE o_id > 99"
        in
        Alcotest.(check (list string)) "null" [ "NULL" ] (Relation.canonical r));
    tc "count star over empty is zero" (fun () ->
        let r =
          q (mini_db ()) "SELECT COUNT(*) AS n FROM orders WHERE o_id > 99"
        in
        check_rel "zero" (rel [ "n" ] [ ints [| 0 |] ]) r);
    tc "count distinct" (fun () ->
        let r = q (mini_db ()) "SELECT COUNT(DISTINCT o_cust) AS n FROM orders" in
        check_rel "ndistinct" (rel [ "n" ] [ ints [| 3 |] ]) r);
    tc "values" (fun () ->
        let r = q (mini_db ()) "SELECT * FROM (VALUES (1, 'x'), (2, 'y')) AS v" in
        Alcotest.(check int) "2 rows" 2 (Relation.n_rows r));
    tc "cross join" (fun () ->
        let r =
          q (mini_db ())
            "SELECT COUNT(*) AS n FROM cust AS a, (VALUES (1), (2)) AS b"
        in
        check_rel "cross size" (rel [ "n" ] [ ints [| 6 |] ]) r);
    tc "substring / concat" (fun () ->
        let r =
          q (mini_db ())
            "SELECT substring(c_name, 1, 2) || '!' AS s FROM cust WHERE c_id \
             = 10"
        in
        check_rel "substr" (rel [ "s" ] [ strings [| "al!" |] ]) r);
    tc "having" (fun () ->
        let r =
          q (mini_db ())
            "SELECT o_cust, COUNT(*) AS n FROM orders GROUP BY o_cust HAVING \
             COUNT(*) > 1 ORDER BY o_cust"
        in
        check_rel "having"
          (rel [ "o_cust"; "n" ] [ ints [| 10; 20 |]; ints [| 2; 2 |] ])
          r);
    tc "cte chain" (fun () ->
        let r =
          q (mini_db ())
            "WITH a AS (SELECT o_cust, o_total FROM orders WHERE o_total > \
             60.0), b AS (SELECT o_cust, SUM(o_total) AS t FROM a GROUP BY \
             o_cust) SELECT COUNT(*) AS n FROM b"
        in
        check_rel "cte" (rel [ "n" ] [ ints [| 3 |] ]) r);
    tc "semi-join residual casts a string" (fun () ->
        (* the pair residual evaluates like any other expression: CAST of
           an ISO string to DATE, compared against the outer row *)
        let db = Db.create () in
        Db.load_table db "a"
          (rel [ "k"; "d" ]
             [ ints [| 1; 2; 3 |];
               dates [| "1995-01-01"; "1996-06-01"; "1997-01-01" |] ]);
        Db.load_table db "b"
          (rel [ "k"; "s" ]
             [ ints [| 1; 2; 3 |];
               strings [| "1996-01-01"; "1996-01-01"; "1996-01-01" |] ]);
        let r =
          q db
            "SELECT k FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.k = a.k \
             AND CAST(b.s AS DATE) < a.d) ORDER BY k"
        in
        Alcotest.(check (list string))
          "rows" [ "2"; "3" ] (Relation.canonical r));
    tc "sum and avg over a bool" (fun () ->
        (* a bool adds its 0/1: SUM is an int count of the true rows *)
        let db = Db.create () in
        Db.load_table db "a"
          (rel [ "k"; "f" ]
             [ ints [| 1; 5; 20; 3 |]; floats [| 1.5; 2.5; 2.5; 1.5 |] ]);
        let r = q db "SELECT SUM(k < 10) AS s, AVG(k < 10) AS av FROM a" in
        Alcotest.(check (list string)) "global" [ "3|0.750" ]
          (Relation.canonical ~digits:3 r);
        let r =
          q db
            "SELECT f, SUM(k < 10) AS s, AVG(k < 10) AS av FROM a GROUP BY f"
        in
        Alcotest.(check (list string)) "grouped by a float"
          [ "1.500|2|1.000"; "2.500|1|0.500" ]
          (Relation.canonical ~digits:3 r));
    tc "lingo backend rejects windows" (fun () ->
        Alcotest.check_raises "unsupported"
          (Db.Unsupported
             "lingodb-sim: window functions (row_number) not supported")
          (fun () ->
            ignore
              (Db.execute ~backend:Db.Lingo (mini_db ())
                 "SELECT row_number() OVER (ORDER BY o_id) AS r FROM orders")));
    (* Edges of the shared aggregate fold: a 20000-row table spans several
       8192-row strides and, at 3 threads, several chunk partials. *)
    tc "global aggregate whose filter keeps no rows" (fun () ->
        let r =
          q (agg_db ())
            "SELECT COUNT(*) AS n, SUM(x) AS sx, MIN(id) AS mn, AVG(x) AS ax \
             FROM w WHERE id < 0"
        in
        Alcotest.(check (list string)) "empty" [ "0|NULL|NULL|NULL" ]
          (Relation.canonical r);
        let r = q (agg_db ()) "SELECT COUNT(*) AS n FROM w WHERE x > 1000.0" in
        check_rel "no survivor" (rel [ "n" ] [ ints [| 0 |] ]) r);
    tc "survivors only in the last stride" (fun () ->
        let r =
          q (agg_db ())
            "SELECT COUNT(*) AS n, SUM(id) AS si, MIN(s) AS ms, MAX(x) AS mx \
             FROM w WHERE id >= 19995"
        in
        Alcotest.(check (list string)) "last five" [ "5|99985|a|4.2500" ]
          (Relation.canonical r);
        let r =
          q (agg_db ())
            "SELECT s, COUNT(*) AS n, SUM(id) AS si FROM w WHERE id >= 19995 \
             GROUP BY s"
        in
        Alcotest.(check (list string)) "grouped"
          [ "a|2|39993"; "b|2|39995"; "c|1|19997" ]
          (Relation.canonical r));
    tc "global distinct aggregates" (fun () ->
        let r =
          q (agg_db ())
            "SELECT COUNT(DISTINCT g) AS dg, SUM(DISTINCT g) AS sg, \
             COUNT(DISTINCT s) AS ds, COUNT(*) AS n FROM w"
        in
        Alcotest.(check (list string)) "distinct" [ "300|44850|3|20000" ]
          (Relation.canonical r));
    tc "grouped aggregate over no rows keeps its types" (fun () ->
        let db = agg_db () in
        let sql =
          "SELECT s, g, COUNT(*) AS n, SUM(x) AS sx, AVG(g) AS ag FROM w \
           WHERE id < 0 GROUP BY s, g"
        in
        let types r =
          Array.to_list
            (Array.map (fun c -> Value.ty_name c.Column.ty) r.Relation.cols)
        in
        let expected = [ "VARCHAR"; "INTEGER"; "INTEGER"; "DOUBLE"; "DOUBLE" ] in
        let vec = q db sql in
        Alcotest.(check (list string)) "vectorized types" expected (types vec);
        List.iter
          (fun fuse ->
            List.iter
              (fun threads ->
                let r =
                  Db.execute ~backend:Db.Compiled ~threads
                    ~settings:{ Settings.default with fuse; cache = false }
                    db sql
                in
                let label = Printf.sprintf "fuse=%b @%dt" fuse threads in
                Alcotest.(check int) (label ^ " rows") 0 (Relation.n_rows r);
                Alcotest.(check (list string))
                  (label ^ " types") expected (types r))
              thread_counts)
          [ true; false ]);
    tc "global aggregate partials with radix forced" (fun () ->
        let queries =
          [ "SELECT COUNT(*) AS n, SUM(x) AS sx, MIN(x) AS mn, MAX(id) AS mx \
             FROM w WHERE g < 150";
            "SELECT COUNT(*) AS n, SUM(w.x) AS sx, MAX(v.y) AS my FROM w, v \
             WHERE w.id = v.vid AND v.y < 7000";
            "SELECT h, COUNT(*) AS n, SUM(x) AS sx FROM w WHERE id < 9000 \
             GROUP BY h" ]
        in
        let default = List.map (fun sql -> q (agg_db ()) sql) queries in
        List.iter2
          (fun sql expected ->
            check_rel ("radix forced | " ^ sql) expected
              (execute_everywhere ~settings:radix_forced (agg_db ()) sql))
          queries default)
  ]

(* Property: engine filter agrees with a row-by-row oracle. *)
let engine_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"filter matches oracle" ~count:100
         QCheck2.Gen.(list_size (int_range 1 60) (int_range (-50) 50))
         (fun xs ->
           let arr = Array.of_list xs in
           let db = Db.create () in
           Db.load_table db "t" (rel [ "x" ] [ ints arr ]);
           let r = Db.execute db "SELECT x FROM t WHERE x > 0 AND x % 2 = 0" in
           let expected =
             List.filter (fun x -> x > 0 && x mod 2 = 0) xs
             |> List.map string_of_int |> List.sort compare
           in
           Relation.canonical r = expected));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"sum matches oracle" ~count:100
         QCheck2.Gen.(list_size (int_range 1 60) (int_range (-100) 100))
         (fun xs ->
           let db = Db.create () in
           Db.load_table db "t" (rel [ "x" ] [ ints (Array.of_list xs) ]);
           let r = Db.execute ~backend:Db.Compiled db "SELECT SUM(x) AS s FROM t" in
           Relation.canonical r
           = [ string_of_int (List.fold_left ( + ) 0 xs) ]));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"join cardinality matches oracle" ~count:60
         QCheck2.Gen.(
           pair
             (list_size (int_range 1 30) (int_range 0 8))
             (list_size (int_range 1 30) (int_range 0 8)))
         (fun (xs, ys) ->
           let db = Db.create () in
           Db.load_table db "a" (rel [ "x" ] [ ints (Array.of_list xs) ]);
           Db.load_table db "b" (rel [ "y" ] [ ints (Array.of_list ys) ]);
           let r =
             Db.execute ~backend:Db.Compiled db
               "SELECT COUNT(*) AS n FROM a, b WHERE a.x = b.y"
           in
           let expected =
             List.fold_left
               (fun acc x ->
                 acc + List.length (List.filter (fun y -> y = x) ys))
               0 xs
           in
           Relation.canonical r = [ string_of_int expected ])) ]

let suites =
  [ ("sql-parse", parse_tests);
    ("sql-exec", exec_tests);
    ("engine-props", engine_props) ]
