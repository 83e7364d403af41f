(** End-to-end pipeline tests: dataframe baseline, interpreter, translation
    to TondIR, and full Python→SQL→engine equivalence on the paper's
    workloads and TPC-H. *)

open Helpers
module Df = Dataframe.Df

(* ---------------- dataframe baseline ---------------------------------- *)

let df_tests =
  [ tc "merge with pandas suffixing" (fun () ->
        let a =
          Df.create [ ("k", ints [| 1; 2 |]); ("v", ints [| 10; 20 |]) ]
        in
        let b =
          Df.create [ ("k", ints [| 1; 1 |]); ("v", ints [| 7; 8 |]) ]
        in
        let j = Df.merge ~left_on:[ "k" ] ~right_on:[ "k" ] a b in
        Alcotest.(check (list string))
          "columns renamed" [ "k"; "v_x"; "v_y" ] (Df.columns j);
        Alcotest.(check int) "two matches" 2 (Df.n_rows j));
    tc "left merge yields nulls" (fun () ->
        let a = Df.create [ ("k", ints [| 1; 9 |]) ] in
        let b = Df.create [ ("k", ints [| 1 |]); ("w", ints [| 5 |]) ] in
        let j = Df.merge ~how:Df.Left ~left_on:[ "k" ] ~right_on:[ "k" ] a b in
        Alcotest.(check int) "rows" 2 (Df.n_rows j);
        Alcotest.(check bool) "null for unmatched" true
          (Sqldb.Column.has_nulls (Df.column j "w")));
    tc "groupby_agg" (fun () ->
        let d =
          Df.create
            [ ("g", strings [| "a"; "b"; "a" |]); ("x", ints [| 1; 2; 3 |]) ]
        in
        let r =
          Df.groupby_agg d ~by:[ "g" ]
            ~aggs:[ ("s", "x", Df.ASum); ("n", "x", Df.ACount) ]
        in
        check_rel "groups"
          (rel [ "g"; "s"; "n" ]
             [ strings [| "a"; "b" |]; ints [| 4; 2 |]; ints [| 2; 1 |] ])
          (Df.to_relation r));
    tc "pivot_table (paper §II-A example)" (fun () ->
        let d =
          Df.create
            [ ("a", strings [| "x"; "y"; "y"; "z"; "y"; "x"; "z" |]);
              ("b", strings [| "v1"; "v3"; "v1"; "v2"; "v3"; "v2"; "v2" |]);
              ("c", ints [| 10; 30; 60; 20; 40; 60; 50 |]) ]
        in
        let p = Df.pivot_table d ~index:"a" ~columns:"b" ~values:"c" ~aggfunc:Df.ASum in
        check_rel "pivot"
          (rel [ "a"; "v1"; "v2"; "v3" ]
             [ strings [| "x"; "y"; "z" |];
               floats [| 10.; 60.; 0. |];
               floats [| 60.; 0.; 70. |];
               floats [| 0.; 70.; 0. |] ])
          (Df.to_relation p));
    tc "sort/head/unique/isin" (fun () ->
        let d = Df.create [ ("x", ints [| 3; 1; 2; 1 |]) ] in
        let s = Df.sort_values d ~by:[ ("x", true) ] in
        Alcotest.(check int) "first" 1 (Sqldb.Column.int_at (Df.column s "x") 0);
        Alcotest.(check int) "unique" 3
          (Sqldb.Column.length (Df.Series.unique (Df.column d "x")));
        let m = Df.Series.isin (Df.column d "x") [ Sqldb.Value.VInt 1 ] in
        Alcotest.(check int) "isin count" 2
          (Array.fold_left (fun a b -> if b then a + 1 else a) 0 m)) ]

(* ---------------- interpreter ----------------------------------------- *)

let run_py db src = Pytond.run_python ~db ~source:src ~fname:"query" ()

let interp_tests =
  [ tc "straight-line pandas" (fun () ->
        let r =
          run_py (mini_db ())
            {|
@pytond()
def query(orders):
    o = orders[orders.o_total > 60.0]
    g = o.groupby(['o_cust']).agg(n=('o_id', 'count'))
    return g.sort_values(by='o_cust')
|}
        in
        check_rel "grouped"
          (rel [ "o_cust"; "n" ] [ ints [| 10; 20; 30 |]; ints [| 2; 1; 1 |] ])
          r);
    tc "np.where and masks" (fun () ->
        let r =
          run_py (mini_db ())
            {|
import numpy as np

@pytond()
def query(orders):
    o = orders.copy()
    o['big'] = np.where(o.o_total > 100.0, 1, 0)
    return o.big.sum()
|}
        in
        Alcotest.(check (list string)) "sum" [ "2" ] (Sqldb.Relation.canonical r));
    tc "lambda apply" (fun () ->
        let r =
          run_py (mini_db ())
            {|
@pytond()
def query(orders):
    s = orders.o_total.apply(lambda x: x * 2.0)
    return s.sum()
|}
        in
        Alcotest.(check (list string)) "doubled" [ "1100.0000" ]
          (Sqldb.Relation.canonical ~digits:4 r)) ]

(* ---------------- translation ----------------------------------------- *)

let translate_tests =
  [ tc "filter+merge matches paper Table V shape" (fun () ->
        let db = mini_db () in
        let c =
          Pytond.front ~db
            ~source:
              {|
@pytond()
def query(orders, cust):
    big = orders[orders.o_total > 100.0]
    j = big.merge(cust, left_on='o_cust', right_on='c_id')
    return j
|}
            ~fname:"query"
        in
        let text = Tondir.Ir.program_to_string c.Pytond.ir in
        Alcotest.(check bool) "filter rule present" true
          (contains_sub "(o_total > 100)" text);
        Alcotest.(check bool) "join equality present" true
          (contains_sub "(o_cust = c_id)" text));
    tc "validity of every TPC-H translation" (fun () ->
        let db = Tpch.Dbgen.make_db 0.001 in
        let tables = Sqldb.Catalog.names (Sqldb.Db.catalog db) in
        List.iter
          (fun (name, source) ->
            let c = Pytond.front ~db ~source ~fname:"query" in
            let errors =
              Tondir.Analysis.validate ~known_relations:tables c.Pytond.ir
            in
            Alcotest.(check (list string)) (name ^ " valid") [] errors)
          Tpch.Queries.all);
    tc "einsum covariance produces gram + reshape rules" (fun () ->
        let db = Sqldb.Db.create () in
        Workloads.load_covar db ~rows:10 ~cols:3 ~sparsity:1.0;
        let c =
          Pytond.front ~db ~source:Workloads.covar_dense_src ~fname:"query"
        in
        let text = Tondir.Ir.program_to_string c.Pytond.ir in
        Alcotest.(check bool) "sum-of-products" true
          (contains_sub "sum((a_c0 * b_c0))" text);
        Alcotest.(check bool) "values reshape" true (contains_sub "= [" text));
    tc "sparse einsum groups output indices" (fun () ->
        let db = Sqldb.Db.create () in
        Workloads.load_covar db ~rows:10 ~cols:3 ~sparsity:0.5;
        let c =
          Pytond.front ~db ~source:Workloads.covar_sparse_src ~fname:"query"
        in
        let text = Tondir.Ir.program_to_string c.Pytond.ir in
        Alcotest.(check bool) "grouped by j,k" true
          (contains_sub "group(x_j, x_k)" text)) ]

(* ---------------- end-to-end equivalence ------------------------------ *)

let tpch_sf = 0.005

let e2e_tpch =
  let db = lazy (Tpch.Dbgen.make_db tpch_sf) in
  List.map
    (fun (name, source) ->
      tc name (fun () ->
          let db = Lazy.force db in
          let base = Pytond.run_python ~db ~source ~fname:"query" () in
          List.iter
            (fun (level, backend, label) ->
              let r =
                Pytond.run ~level ~backend ~db ~source ~fname:"query" ()
              in
              check_rel ~digits:3 (name ^ " " ^ label) base r)
            [ (Pytond.O4, Pytond.Vectorized, "O4/vec");
              (Pytond.O4, Pytond.Compiled, "O4/comp");
              (Pytond.O0, Pytond.Compiled, "O0/comp") ]))
    Tpch.Queries.all

let e2e_workloads =
  List.map
    (fun (name, load, source) ->
      tc name (fun () ->
          let db = Sqldb.Db.create () in
          load db;
          let base = Pytond.run_python ~db ~source ~fname:"query" () in
          List.iter
            (fun (backend, threads, label) ->
              let r =
                Pytond.run ~backend ~threads ~db ~source ~fname:"query" ()
              in
              check_rel ~digits:3 (name ^ " " ^ label) base r)
            [ (Pytond.Vectorized, 1, "vec");
              (Pytond.Compiled, 1, "comp");
              (Pytond.Compiled, 3, "comp@3t") ]))
    Workloads.all

let e2e_covar =
  [ tc "covariance dense matches numpy" (fun () ->
        let db = Sqldb.Db.create () in
        Workloads.load_covar db ~rows:500 ~cols:6 ~sparsity:1.0;
        let base =
          Pytond.run_python ~db ~source:Workloads.covar_dense_src ~fname:"query" ()
        in
        let r =
          Pytond.run ~db ~source:Workloads.covar_dense_src ~fname:"query" ()
        in
        check_rel ~digits:3 "dense" base r);
    tc "covariance sparse matches dense totals" (fun () ->
        let db = Sqldb.Db.create () in
        Workloads.load_covar db ~rows:500 ~cols:6 ~sparsity:0.3;
        let dense =
          Pytond.run ~db ~source:Workloads.covar_dense_src ~fname:"query" ()
        in
        let sparse =
          Pytond.run ~db ~source:Workloads.covar_sparse_src ~fname:"query" ()
        in
        (* compare as (j,k,v) triples: densify the dense output *)
        let total r from =
          let acc = ref 0. in
          for i = 0 to Sqldb.Relation.n_rows r - 1 do
            let row = Sqldb.Relation.row r i in
            Array.iteri
              (fun j v ->
                if j >= from then
                  acc := !acc +. (try Sqldb.Value.as_float v with _ -> 0.))
              row
          done;
          !acc
        in
        Alcotest.(check (float 1e-3)) "totals agree" (total dense 1)
          (total sparse 2)) ]

let e2e_lingo =
  [ tc "lingo backend runs TPC-H q6 but rejects uid workloads" (fun () ->
        let db = Tpch.Dbgen.make_db 0.002 in
        let r =
          Pytond.run ~backend:Pytond.Lingo ~db
            ~source:(Tpch.Queries.find "q6") ~fname:"query" ()
        in
        Alcotest.(check int) "one row" 1 (Sqldb.Relation.n_rows r);
        (* hybrid workloads need row_number() for to_numpy: lingo-sim fails *)
        let db2 = Sqldb.Db.create () in
        Workloads.load_hybrid ~rows:100 db2;
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Pytond.run ~backend:Pytond.Lingo ~db:db2
                  ~source:Workloads.hybrid_covar_src ~fname:"query" ());
             false
           with Pytond.Error e ->
             e.Pytond.Errors.stage = Pytond.Errors.Exec
             && e.Pytond.Errors.code = "backend")) ]

let suites =
  [ ("dataframe", df_tests);
    ("interp", interp_tests);
    ("translate", translate_tests);
    ("e2e-tpch", e2e_tpch);
    ("e2e-workloads", e2e_workloads);
    ("e2e-covar", e2e_covar);
    ("e2e-lingo", e2e_lingo) ]
