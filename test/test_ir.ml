(** TondIR tests: pretty-printing, validation, flow-breaker analysis, the
    optimization passes of §IV, and SQL code generation. *)

open Tondir.Ir
module Analysis = Tondir.Analysis
module Opt = Optimizer.Passes
open Helpers

let access rel vars = Access { rel; vars }

let base_columns = function
  | "r" -> Some [ "a"; "b"; "c"; "d" ]
  | "r4" -> Some [ "e"; "f"; "g" ]
  | "orders" -> Some [ "o_id"; "o_cust"; "o_total"; "o_date" ]
  | "cust" -> Some [ "c_id"; "c_name" ]
  | _ -> None

let gen p = Sqlgen.Gen.generate ~base_columns p

let pretty_tests =
  [ tc "rule rendering" (fun () ->
        let r =
          mk_rule
            (mk_head ~group:(Some [ "a" ]) "r1" [ "a"; "s" ])
            [ access "r" [ "a"; "b"; "_"; "_" ];
              Assign ("s", Agg (Sum, Var "b")) ]
        in
        Alcotest.(check string)
          "datalog"
          "r1(a, s) group(a) :- r(a, b, _, _),\n    (s = sum(b))."
          (rule_to_string r));
    tc "bound vars in order" (fun () ->
        let body =
          [ access "r" [ "a"; "b"; "_"; "_" ]; Assign ("s", Var "a") ]
        in
        Alcotest.(check (list string)) "bound" [ "a"; "b"; "s" ]
          (bound_vars body));
    tc "assign definition vs equality" (fun () ->
        let body =
          [ access "r" [ "a"; "b"; "_"; "_" ];
            Assign ("s", Var "a"); Assign ("a", Var "b") ]
        in
        Alcotest.(check bool) "s defines" true (assign_is_definition body 1);
        Alcotest.(check bool) "a compares" false (assign_is_definition body 2))
  ]

let validate_tests =
  [ tc "valid program passes" (fun () ->
        let p =
          { rules =
              [ mk_rule (mk_head "x" [ "a" ]) [ access "r" [ "a"; "_"; "_"; "_" ] ] ] }
        in
        Alcotest.(check (list string)) "no errors" []
          (Analysis.validate ~known_relations:[ "r" ] p));
    tc "unbound head var flagged" (fun () ->
        let p =
          { rules =
              [ mk_rule (mk_head "x" [ "z" ]) [ access "r" [ "a"; "_"; "_"; "_" ] ] ] }
        in
        Alcotest.(check bool) "error found" true
          (Analysis.validate ~known_relations:[ "r" ] p <> []));
    tc "unknown relation flagged" (fun () ->
        let p =
          { rules = [ mk_rule (mk_head "x" [ "a" ]) [ access "nope" [ "a" ] ] ] }
        in
        Alcotest.(check bool) "error found" true (Analysis.validate p <> [])) ]

let flow_tests =
  [ tc "table VII classification" (fun () ->
        let plain =
          mk_rule (mk_head "x" [ "a" ]) [ access "r" [ "a"; "_"; "_"; "_" ] ]
        in
        let agg =
          mk_rule (mk_head "x" [ "s" ])
            [ access "r" [ "a"; "_"; "_"; "_" ]; Assign ("s", Agg (Sum, Var "a")) ]
        in
        let sorted =
          mk_rule
            (mk_head ~sort:[ ("a", Asc) ] "x" [ "a" ])
            [ access "r" [ "a"; "_"; "_"; "_" ] ]
        in
        let outer =
          mk_rule (mk_head "x" [ "a"; "e" ])
            [ access "r" [ "a"; "_"; "_"; "_" ];
              OuterAccess (OLeft, { rel = "r4"; vars = [ "e"; "_"; "_" ] },
                           [ ("a", "e") ]) ]
        in
        Alcotest.(check bool) "plain" false (Analysis.is_flow_breaker plain);
        Alcotest.(check bool) "agg" true (Analysis.is_flow_breaker agg);
        Alcotest.(check bool) "sort" true (Analysis.is_flow_breaker sorted);
        Alcotest.(check bool) "outer" true (Analysis.is_flow_breaker outer)) ]

(* ---------------- optimizer passes (paper §IV examples) ------------- *)

let count_rules p = List.length p.rules

let opt_tests =
  [ tc "local DCE drops dead assignment" (fun () ->
        (* paper's local-DCE example *)
        let p =
          { rules =
              [ mk_rule (mk_head "r1" [ "a"; "b" ])
                  [ access "r" [ "a"; "b"; "c"; "_" ];
                    Cond (Binop (Lt, Var "a", Const (CInt 10)));
                    Assign ("x", Binop (Mul, Var "c", Const (CInt 2))) ] ] }
        in
        let p' = Opt.local_dce p in
        let has_assign =
          List.exists
            (function Assign ("x", _) -> true | _ -> false)
            (List.hd p'.rules).body
        in
        Alcotest.(check bool) "x removed" false has_assign);
    tc "global DCE prunes unused attributes" (fun () ->
        (* paper's global-DCE example: c, d dead in consumer *)
        let p =
          { rules =
              [ mk_rule (mk_head "r1" [ "a"; "b"; "c"; "d" ])
                  [ access "r" [ "a"; "b"; "c"; "d" ];
                    Cond (Binop (Lt, Var "a", Const (CInt 10))) ];
                mk_rule
                  (mk_head ~group:(Some [ "a" ]) "r2" [ "a"; "s" ])
                  [ access "r1" [ "a"; "b"; "_"; "_" ];
                    Assign ("s", Agg (Sum, Var "b")) ] ] }
        in
        let p' = Opt.global_dce p in
        let first = List.hd p'.rules in
        Alcotest.(check int) "r1 narrowed to 2 cols" 2
          (List.length first.head.rel.vars));
    tc "group-agg elimination on unique key" (fun () ->
        let ctx =
          { Opt.is_unique = (fun rel pos -> rel = "r" && pos = [ 0 ]) }
        in
        let p =
          { rules =
              [ mk_rule
                  (mk_head ~group:(Some [ "id" ]) "r1" [ "id"; "s" ])
                  [ access "r" [ "id"; "_"; "b"; "_" ];
                    Assign ("s", Agg (Sum, Var "b")) ] ] }
        in
        let p' = Opt.group_agg_elim ctx p in
        let r1 = List.hd p'.rules in
        Alcotest.(check bool) "group removed" true (r1.head.group = None);
        let still_agg =
          List.exists
            (function Assign (_, t) -> term_has_agg t | _ -> false)
            r1.body
        in
        Alcotest.(check bool) "sum unwrapped" false still_agg);
    tc "self-join elimination on unique key" (fun () ->
        let ctx =
          { Opt.is_unique = (fun rel pos -> rel = "r" && pos = [ 0 ]) }
        in
        let p =
          { rules =
              [ mk_rule (mk_head "r1" [ "id"; "b"; "b2" ])
                  [ access "r" [ "id"; "b"; "_"; "_" ];
                    access "r" [ "id"; "b2"; "_"; "_" ] ] ] }
        in
        let p' = Opt.self_join_elim ctx p in
        let accesses =
          List.length
            (List.filter
               (function Access _ -> true | _ -> false)
               (List.hd p'.rules).body)
        in
        Alcotest.(check int) "one access left" 1 accesses;
        (* head's b2 renamed to b *)
        Alcotest.(check (list string)) "head renamed" [ "id"; "b"; "b" ]
          (List.hd p'.rules).head.rel.vars);
    tc "rule inlining fuses chains" (fun () ->
        (* paper's rule-inlining example shape *)
        let p =
          { rules =
              [ mk_rule (mk_head "r2" [ "b"; "c"; "d" ])
                  [ access "r" [ "a"; "b"; "c"; "d" ];
                    Cond (Binop (Gt, Var "a", Const (CInt 1000))) ];
                mk_rule (mk_head "r3" [ "b"; "d" ])
                  [ access "r2" [ "b"; "c"; "d" ];
                    Cond (Binop (Ne, Var "c", Const (CString "A"))) ];
                mk_rule (mk_head "r5" [ "e"; "g" ])
                  [ access "r4" [ "e"; "f"; "g" ];
                    Cond (Binop (Gt, Var "f", Const (CInt 100))) ];
                mk_rule
                  (mk_head ~group:(Some [ "b" ]) "r7" [ "b"; "m" ])
                  [ access "r3" [ "b"; "x" ];
                    access "r5" [ "x"; "g" ];
                    Assign ("m", Agg (Max, Var "g")) ] ] }
        in
        let p' = Opt.inline_rules p in
        Alcotest.(check int) "all fused into sink" 1 (count_rules p'));
    tc "multi-consumer rules stay" (fun () ->
        let p =
          { rules =
              [ mk_rule (mk_head "r1" [ "a" ])
                  [ access "r" [ "a"; "_"; "_"; "_" ] ];
                mk_rule (mk_head "r2" [ "a"; "a2" ])
                  [ access "r1" [ "a" ]; access "r1" [ "a2" ] ] ] }
        in
        Alcotest.(check int) "no inlining" 2 (count_rules (Opt.inline_rules p)));
    tc "flow breakers stop inlining" (fun () ->
        let p =
          { rules =
              [ mk_rule
                  (mk_head ~group:(Some [ "a" ]) "g" [ "a"; "s" ])
                  [ access "r" [ "a"; "b"; "_"; "_" ];
                    Assign ("s", Agg (Sum, Var "b")) ];
                mk_rule (mk_head "out" [ "a"; "s" ]) [ access "g" [ "a"; "s" ] ] ] }
        in
        Alcotest.(check int) "group rule kept" 2
          (count_rules (Opt.inline_rules p))) ]

(* ---------------- codegen --------------------------------------------- *)

let gen_tests =
  [ tc "simple rule to CTE" (fun () ->
        let p =
          { rules =
              [ mk_rule (mk_head "x" [ "a"; "b" ])
                  [ access "r" [ "a"; "b"; "_"; "_" ];
                    Cond (Binop (Gt, Var "a", Const (CInt 3))) ] ] }
        in
        Alcotest.(check string)
          "sql"
          "WITH x AS (SELECT r1.a AS a, r1.b AS b FROM r AS r1 WHERE r1.a > \
           3)\nSELECT * FROM x"
          (gen p));
    tc "generated SQL parses and runs" (fun () ->
        let p =
          { rules =
              [ mk_rule
                  (mk_head ~group:(Some [ "cu" ]) ~sort:[ ("s", Desc) ] "x"
                     [ "cu"; "s" ])
                  [ access "orders" [ "_"; "cu"; "t"; "_" ];
                    Assign ("s", Agg (Sum, Var "t")) ] ] }
        in
        let sql = gen p in
        let r = Sqldb.Db.execute (mini_db ()) sql in
        Alcotest.(check int) "3 groups" 3 (Sqldb.Relation.n_rows r));
    tc "exists correlates" (fun () ->
        let p =
          { rules =
              [ mk_rule (mk_head "x" [ "n" ])
                  [ access "cust" [ "cid"; "n" ];
                    Exists
                      ( true,
                        [ access "orders" [ "_"; "cid"; "_"; "_" ] ] ) ] ] }
        in
        let sql = gen p in
        let r = Sqldb.Db.execute (mini_db ()) sql in
        Alcotest.(check (list string)) "anti" [ "carol" ]
          (Sqldb.Relation.canonical r));
    tc "relation versioning on redefinition" (fun () ->
        let p =
          { rules =
              [ mk_rule (mk_head "v" [ "a" ]) [ access "r" [ "a"; "_"; "_"; "_" ] ];
                mk_rule (mk_head "v" [ "a" ])
                  [ access "v" [ "a" ]; Cond (Binop (Gt, Var "a", Const (CInt 0))) ] ] }
        in
        let sql = gen p in
        Alcotest.(check bool) "versioned name appears" true
          (contains_sub "v__v2" sql));
    tc "dialects differ on year()" (fun () ->
        let p =
          { rules =
              [ mk_rule (mk_head "x" [ "y" ])
                  [ access "orders" [ "_"; "_"; "_"; "d" ];
                    Assign ("y", Ext ("year", [ Var "d" ])) ] ] }
        in
        let duck = Sqlgen.Gen.generate ~dialect:Sqldb.Sql_print.duckdb ~base_columns p in
        let hyper = Sqlgen.Gen.generate ~dialect:Sqldb.Sql_print.hyper ~base_columns p in
        Alcotest.(check bool) "duck uses year()" true
          (contains_sub "year(" duck);
        Alcotest.(check bool) "hyper uses EXTRACT" true
          (contains_sub "EXTRACT(YEAR FROM" hyper);
        (* both execute identically on the engine *)
        let r1 = Sqldb.Db.execute (mini_db ()) duck in
        let r2 = Sqldb.Db.execute (mini_db ()) hyper in
        check_rel "dialects agree" r1 r2) ]

(* Rule inlining names the variables it introduces; the names must depend
   on the program alone, not on how many programs were compiled before it
   or beside it (the server compiles on several domains at once). *)
let fresh_name_tests =
  [ tc "fresh names repeat across compiles and domains" (fun () ->
        let db = Tpch.Dbgen.make_db 0.001 in
        let ir q () =
          Tondir.Ir.program_to_string
            (Pytond.optimize ~db ~level:Pytond.O4
               (Pytond.front ~db ~source:(Tpch.Queries.find q) ~fname:"query"))
        in
        let inlined = ref false in
        List.iter
          (fun q ->
            let first = ir q () in
            if contains_sub "__i" first then inlined := true;
            Alcotest.(check string) (q ^ ": second compile") first (ir q ());
            let doms = List.init 2 (fun _ -> Domain.spawn (ir q)) in
            List.iter
              (fun d ->
                Alcotest.(check string) (q ^ ": concurrent compile") first
                  (Domain.join d))
              doms)
          (List.map fst Tpch.Queries.all);
        Alcotest.(check bool) "some program inlines with fresh names" true
          !inlined) ]

(* Sibling aggregates: [big] (orders above [floor]) feeds two ungrouped
   aggregates that [out] reads side by side, the shape of q14's [promo]
   and [total]. [sibling] builds one aggregate rule over [src]. *)
let sibling ?(extra = []) name src agg =
  mk_rule (mk_head name [ "v" ])
    (access src [ "cu"; "t" ] :: extra
    @ [ Assign ("v", Ext ("coalesce", [ Agg (agg, Var "t"); Const (CFloat 0.) ])) ])

let siblings_program ?(floor = 60.) ?(s2 = sibling "s2" "big" Max)
    ?(out = [ access "s1" [ "a" ]; access "s2" [ "b" ] ]) ?(more = []) () =
  { rules =
      [ mk_rule (mk_head "big" [ "cu"; "t" ])
          [ access "orders" [ "_"; "cu"; "t"; "_" ];
            Cond (Binop (Gt, Var "t", Const (CFloat floor))) ];
        sibling "s1" "big" Sum; s2 ]
      @ more
      @ [ mk_rule (mk_head "out" [ "a"; "b"; "x" ])
            (out @ [ Assign ("x", Binop (Add, Var "a", Var "b")) ]) ] }

let merges p = Opt.merge_sibling_aggs p <> p

let merge_tests =
  [ tc "sibling aggregates merge into one rule" (fun () ->
        let p' = Opt.merge_sibling_aggs (siblings_program ()) in
        Alcotest.(check (list string)) "rules" [ "big"; "s1"; "out" ]
          (List.map rule_defines p'.rules);
        Alcotest.(check (list string)) "merged rule"
          [ "s1(v, v__m1) :- big(cu, t),\n\
            \    (v = coalesce(sum(t), 0)),\n\
            \    (v__m1 = coalesce(max(t), 0))." ]
          [ rule_to_string (List.nth p'.rules 1) ];
        Alcotest.(check (list string)) "consumer reads it once" [ "s1" ]
          (rule_reads (List.nth p'.rules 2));
        (* the producer now has one reader and inlines into the merge *)
        let o4 = Opt.optimize (siblings_program ()) in
        Alcotest.(check (list string)) "O4 rules" [ "s1"; "out" ]
          (List.map rule_defines o4.rules));
    tc "grouped sibling does not merge" (fun () ->
        let s2 =
          mk_rule
            (mk_head ~group:(Some [ "cu" ]) "s2" [ "cu"; "v" ])
            [ access "big" [ "cu"; "t" ]; Assign ("v", Agg (Sum, Var "t")) ]
        in
        Alcotest.(check bool) "unchanged" false
          (merges
             (siblings_program ~s2
                ~out:[ access "s1" [ "a" ]; access "s2" [ "_"; "b" ] ]
                ())));
    tc "siblings over different relations do not merge" (fun () ->
        let s2 =
          mk_rule (mk_head "s2" [ "v" ])
            [ access "orders" [ "_"; "_"; "t"; "_" ];
              Assign ("v", Agg (Max, Var "t")) ]
        in
        Alcotest.(check bool) "unchanged" false
          (merges (siblings_program ~s2 ())));
    tc "sibling with a second reader does not merge" (fun () ->
        let more =
          [ mk_rule (mk_head "peek" [ "b" ]) [ access "s2" [ "b" ] ] ]
        in
        Alcotest.(check bool) "unchanged" false
          (merges (siblings_program ~more ())));
    tc "sibling with a filter does not merge" (fun () ->
        let s2 =
          sibling "s2" "big" Max
            ~extra:[ Cond (Binop (Lt, Var "t", Const (CFloat 150.))) ]
        in
        Alcotest.(check bool) "unchanged" false
          (merges (siblings_program ~s2 ())));
    tc "sibling read by outer join or exists does not merge" (fun () ->
        let outer =
          [ access "s1" [ "a" ];
            OuterAccess (OLeft, { rel = "s2"; vars = [ "b" ] }, [ ("a", "b") ]) ]
        and exists =
          [ access "s1" [ "a" ]; access "s1b" [ "b" ];
            Exists (false, [ access "s2" [ "a" ] ]) ]
        in
        Alcotest.(check bool) "outer: unchanged" false
          (merges (siblings_program ~out:outer ()));
        let s1b = sibling "s1b" "big" Min in
        let p = siblings_program ~out:exists () in
        let p =
          { rules =
              List.concat_map
                (fun r -> if rule_defines r = "s2" then [ r; s1b ] else [ r ])
                p.rules }
        in
        (* s1 and s1b still merge; s2, read inside the exists, stays *)
        let p' = Opt.merge_sibling_aggs p in
        Alcotest.(check (list string)) "exists: s2 kept"
          [ "big"; "s1"; "s2"; "out" ]
          (List.map rule_defines p'.rules));
    tc "merged and unmerged SQL agree, empty input too" (fun () ->
        let db = mini_db () in
        List.iter
          (fun (floor, expected) ->
            let p = siblings_program ~floor () in
            let run p = Sqldb.Relation.canonical (Sqldb.Db.execute db (gen p)) in
            Alcotest.(check (list string))
              (Printf.sprintf "floor %g unmerged" floor) expected (run p);
            Alcotest.(check (list string))
              (Printf.sprintf "floor %g merged" floor) expected
              (run (Opt.merge_sibling_aggs p));
            Alcotest.(check (list string))
              (Printf.sprintf "floor %g O4" floor) expected
              (run (Opt.optimize p)))
          [ (60., [ "500.0000|200.0000|700.0000" ]);
            (1000., [ "0.0000|0.0000|0.0000" ]) ]) ]

let suites =
  [ ("tondir-pretty", pretty_tests);
    ("tondir-validate", validate_tests);
    ("tondir-flow", flow_tests);
    ("optimizer", opt_tests @ merge_tests @ fresh_name_tests);
    ("sqlgen", gen_tests) ]
