(** Dictionary encoding and selection-vector tests.

    Covers the storage-layer invariants (encode/decode round trips, shared
    dictionaries across gathers), SQL-level equivalence of dictionary vs
    raw-string execution (including the full TPC-H suite on both backends),
    null handling in dictionary sort/group-by, and randomized equivalence of
    the row-selection routines ([Kernel.select], [Kernel.selector] and the
    selection-vector filter) against a plain [compile_pred] loop. *)

open Sqldb
open Helpers

(* ------------------------------------------------------------------ *)
(* Column-level round trips                                           *)
(* ------------------------------------------------------------------ *)

let test_encode_roundtrip () =
  let raw = strings [| "b"; "a"; "b"; "c"; "a"; "b" |] in
  let enc = Column.encode raw in
  Alcotest.(check bool) "encoded to dict" true (Column.is_dict enc);
  let dec = Column.decode enc in
  for i = 0 to Column.length raw - 1 do
    Alcotest.(check string)
      (Printf.sprintf "row %d" i)
      (Column.string_at raw i) (Column.string_at dec i)
  done

let test_encode_nulls () =
  let raw =
    Column.of_values Value.TString
      [| Value.VString "x"; Value.VNull; Value.VString "y"; Value.VNull |]
  in
  let enc = Column.encode raw in
  Alcotest.(check bool) "encoded to dict" true (Column.is_dict enc);
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "null bit %d" i)
      (Value.is_null (Column.get raw i))
      (Value.is_null (Column.get enc i))
  done;
  let dec = Column.decode enc in
  Alcotest.(check bool) "null survives decode" true
    (Value.is_null (Column.get dec 1))

let test_take_shares_dict () =
  let enc = Column.encode (strings [| "a"; "b"; "a"; "c" |]) in
  let gathered = Column.take enc [| 3; 1; 1 |] in
  Alcotest.(check bool) "gather keeps dict" true (Column.is_dict gathered);
  Alcotest.(check string) "gathered value" "c" (Column.string_at gathered 0);
  (* -1 gather produces a null row *)
  let outer = Column.take enc [| 0; -1 |] in
  Alcotest.(check bool) "outer null" true (Value.is_null (Column.get outer 1))

let test_high_cardinality_stays_raw () =
  let raw =
    Column.of_strings (Array.init 3000 (fun i -> Printf.sprintf "v%d" i))
  in
  let enc = Column.encode ~max_distinct:1024 raw in
  Alcotest.(check bool) "stays raw" false (Column.is_dict enc)

(* ------------------------------------------------------------------ *)
(* SQL-level equivalence: dictionary vs raw strings                   *)
(* ------------------------------------------------------------------ *)

(* Build the same database twice, dictionary-encoded and with raw strings. *)
let with_encodings (build : Settings.t -> 'a) : 'a * 'a =
  (build Settings.default, build { Settings.default with dict = false })

let string_db settings =
  let db = Db.create ~settings () in
  Db.load_table db "items"
    (rel
       [ "id"; "grp"; "tag"; "price" ]
       [ ints [| 1; 2; 3; 4; 5; 6; 7; 8 |];
         strings [| "red"; "blue"; "red"; "green"; "blue"; "red"; "green";
                    "blue" |];
         Column.of_values Value.TString
           [| Value.VString "hot"; Value.VNull; Value.VString "cold";
              Value.VString "hot"; Value.VNull; Value.VString "mild";
              Value.VString "cold"; Value.VString "hot" |];
         floats [| 1.5; 2.0; 3.25; 4.0; 0.5; 2.75; 3.0; 1.0 |] ]);
  Db.load_table db "colors"
    (rel
       [ "name"; "rank" ]
       [ strings [| "red"; "green"; "blue"; "black" |];
         ints [| 1; 2; 3; 4 |] ])
  |> ignore;
  db

let equivalence_queries =
  [ "SELECT grp, COUNT(*) AS n, SUM(price) AS s FROM items GROUP BY grp";
    "SELECT * FROM items WHERE grp = 'red'";
    "SELECT * FROM items WHERE grp <> 'red'";
    "SELECT * FROM items WHERE grp = 'no-such-color'";
    "SELECT * FROM items WHERE grp <> 'no-such-color'";
    "SELECT * FROM items WHERE tag = 'hot'";
    "SELECT * FROM items WHERE tag <> 'hot'";
    "SELECT * FROM items WHERE grp IN ('red', 'green')";
    "SELECT * FROM items WHERE grp LIKE 'b%'";
    "SELECT * FROM items WHERE grp LIKE 'gre%'";
    "SELECT * FROM items WHERE grp NOT LIKE 'b%'";
    "SELECT * FROM items WHERE tag LIKE 'h%'";
    "SELECT * FROM items WHERE tag NOT LIKE 'c%'";
    "SELECT i.id, c.rank FROM items AS i, colors AS c WHERE i.grp = c.name";
    "SELECT DISTINCT grp, tag FROM items";
    "SELECT tag, COUNT(*) AS n FROM items GROUP BY tag";
    "SELECT * FROM items ORDER BY grp, id";
    "SELECT * FROM items ORDER BY tag DESC, id";
    "SELECT grp, MIN(tag) AS lo, MAX(tag) AS hi FROM items GROUP BY grp" ]

let test_sql_equivalence () =
  List.iter
    (fun sql ->
      List.iter
        (fun backend ->
          let dict, raw =
            with_encodings (fun s -> Db.execute ~backend (string_db s) sql)
          in
          check_rel
            (Printf.sprintf "%s | %s" (Db.backend_name backend) sql)
            raw dict)
        [ Db.Vectorized; Db.Compiled ])
    equivalence_queries

(* Encode -> filter -> join -> decode equals raw-string execution, with the
   dictionary case verified to actually run on dictionary columns. *)
let test_roundtrip_pipeline () =
  let sql =
    "SELECT i.grp, c.rank, COUNT(*) AS n FROM items AS i, colors AS c \
     WHERE i.grp = c.name AND i.grp IN ('red', 'blue') \
     GROUP BY i.grp, c.rank ORDER BY i.grp"
  in
  let dict, raw = with_encodings (fun s -> Db.execute (string_db s) sql) in
  check_rel "pipeline round-trip" raw (Relation.decode_strings dict);
  (* the dictionary db really stores dict columns *)
  let db = string_db Settings.default in
  let items = (Catalog.find (Db.catalog db) "items").Catalog.rel in
  Alcotest.(check bool) "grp is dict" true
    (Column.is_dict (Relation.column items "grp"));
  Alcotest.(check bool) "tag is dict (nullable)" true
    (Column.is_dict (Relation.column items "tag"));
  (* a raw-string database keeps an empty table's first append raw *)
  let raw = string_db { Settings.default with dict = false } in
  let raw_items = Catalog.relation (Db.catalog raw) "items" in
  Db.load_table raw "late" (Relation.take raw_items [||]);
  Db.append_table raw "late" raw_items;
  let late = Catalog.relation (Db.catalog raw) "late" in
  Alcotest.(check bool) "appended grp stays raw" false
    (Column.is_dict (Relation.column late "grp"))

(* Full TPC-H suite: dictionary and raw-string execution must produce
   identical results on every query and backend (acceptance criterion). *)
let test_tpch_equivalence () =
  let dbs = with_encodings (fun s -> Tpch.Dbgen.make_db ~settings:s 0.01) in
  let db_dict, db_raw = dbs in
  List.iter
    (fun (name, source) ->
      List.iter
        (fun backend ->
          let pbackend =
            match backend with
            | Db.Compiled -> Pytond.Compiled
            | _ -> Pytond.Vectorized
          in
          let run db =
            Pytond.run ~backend:pbackend ~db ~source ~fname:"query" ()
          in
          check_rel
            (Printf.sprintf "%s %s" name (Db.backend_name backend))
            (run db_raw) (run db_dict))
        [ Db.Vectorized; Db.Compiled ])
    Tpch.Queries.all

(* ------------------------------------------------------------------ *)
(* Code-direct predicates (equality and prefix LIKE on codes)         *)
(* ------------------------------------------------------------------ *)

(* [Eval.dict_eq_pred] / [Eval.dict_prefix_pred] operate on raw codes
   without touching the strings; check their edge cases directly against
   naive string evaluation: absent literals, prefixes longer than some
   values with an equal head ("PRO" vs prefix "PROMO"), negation over
   nulls. *)
let test_code_direct_preds () =
  let vals =
    [| Value.VString "PRO"; Value.VNull; Value.VString "PROMO";
       Value.VString "PROMOX"; Value.VString "PRZ"; Value.VString "A";
       Value.VString "PROMO"; Value.VNull |]
  in
  let c = Column.encode (Column.of_values Value.TString vals) in
  Alcotest.(check bool) "column is dict" true (Column.is_dict c);
  let n = Array.length vals in
  let naive f i = match vals.(i) with Value.VString s -> f s | _ -> false in
  let check_pred name (got : (int -> bool) option) (expect : int -> bool) =
    match got with
    | None -> Alcotest.fail (name ^ ": expected a fast path")
    | Some p ->
      for i = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s row %d" name i)
          (expect i) (p i)
      done
  in
  List.iter
    (fun (k, negated) ->
      check_pred
        (Printf.sprintf "eq %s negated=%b" k negated)
        (Eval.dict_eq_pred c k ~negated)
        (naive (fun s -> String.equal s k <> negated)))
    [ ("PROMO", false); ("PROMO", true); ("absent", false); ("absent", true) ];
  List.iter
    (fun (p, negated) ->
      check_pred
        (Printf.sprintf "prefix %s negated=%b" p negated)
        (Eval.dict_prefix_pred c p ~negated)
        (naive (fun s ->
             (String.length s >= String.length p
             && String.equal (String.sub s 0 (String.length p)) p)
             <> negated)))
    [ ("PROMO", false); ("PROMO", true); ("PRO", false); ("P", false);
      ("Z", false); ("", false) ];
  (* non-dictionary columns must decline so the decode path runs *)
  let raw = Column.of_values Value.TString vals in
  Alcotest.(check bool) "raw eq declines" true
    (Eval.dict_eq_pred raw "PROMO" ~negated:false = None);
  Alcotest.(check bool) "raw prefix declines" true
    (Eval.dict_prefix_pred raw "PRO" ~negated:false = None);
  (* LIKE patterns with inner metacharacters fall back to the table path,
     which must agree with the pattern matcher *)
  check_pred "non-prefix like"
    (Eval.dict_like_pred c "P%O" ~negated:false)
    (naive (fun s -> Eval.compile_like "P%O" s))

(* ------------------------------------------------------------------ *)
(* Null handling in dictionary sort / group-by                        *)
(* ------------------------------------------------------------------ *)

let test_null_sort_group () =
  let build settings =
    let db = Db.create ~settings () in
    Db.load_table db "t"
      (rel [ "k"; "v" ]
         [ Column.of_values Value.TString
             [| Value.VString "b"; Value.VNull; Value.VString "a";
                Value.VNull; Value.VString "b"; Value.VString "a" |];
           ints [| 1; 2; 3; 4; 5; 6 |] ]);
    db
  in
  List.iter
    (fun sql ->
      List.iter
        (fun backend ->
          let dict, raw =
            with_encodings (fun s -> Db.execute ~backend (build s) sql)
          in
          check_rel
            (Printf.sprintf "%s | %s" (Db.backend_name backend) sql)
            raw dict)
        [ Db.Vectorized; Db.Compiled ])
    [ "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k";
      "SELECT * FROM t ORDER BY k, v";
      "SELECT * FROM t ORDER BY k DESC, v";
      "SELECT DISTINCT k FROM t" ]

(* ------------------------------------------------------------------ *)
(* Selection-vector filter equivalence (randomized)                   *)
(* ------------------------------------------------------------------ *)

let random_relation rand n =
  let tags = [| "x"; "y"; "z"; "w" |] in
  let scol =
    Column.of_values Value.TString
      (Array.init n (fun _ ->
           if Random.State.int rand 10 = 0 then Value.VNull
           else Value.VString tags.(Random.State.int rand 4)))
  in
  let icol = Column.of_ints (Array.init n (fun _ -> Random.State.int rand 20)) in
  rel [ "s"; "i" ] [ Column.encode scol; icol ]

let random_pred rand =
  let open Plan in
  let atom () =
    match Random.State.int rand 4 with
    | 0 ->
      PBin (Sql_ast.Eq, PCol 0, PLit (Value.VString [| "x"; "y"; "z"; "q" |].(Random.State.int rand 4)))
    | 1 -> PInList (PCol 0, [ Value.VString "x"; Value.VString "w" ], Random.State.bool rand)
    | 2 -> PBin (Sql_ast.Lt, PCol 1, PLit (Value.VInt (Random.State.int rand 20)))
    | _ -> PLike (PCol 0, (if Random.State.bool rand then "x%" else "%y%"), false)
  in
  match Random.State.int rand 3 with
  | 0 -> atom ()
  | 1 -> PBin (Sql_ast.And, atom (), atom ())
  | _ -> PBin (Sql_ast.Or, atom (), atom ())

(* The reference survivors: a plain compile_pred loop over every row. *)
let reference_filter cols ~n pred =
  let test = Eval.compile_pred cols pred in
  List.filter test (List.init n Fun.id)

(* [Kernel.select] over all rows, [Kernel.selector] over a range that
   starts past row 0, and the selection-vector filter over a subset must
   all keep exactly the reference's survivors, with masks (fuse on) and
   without. Trial lengths cross the selector's 8192-row stride. *)
let test_selection_equivalence () =
  let rand = Random.State.make [| 0x5e1ec7 |] in
  let offsets = Random.State.make [| 0x5e1ec7; 1 |] in
  let trial label n =
    let r = random_relation rand n in
    let cols = r.Relation.cols in
    let pred = random_pred rand in
    (* a strict subset selection must yield exactly the subset's survivors *)
    let sub =
      Array.of_list
        (List.filter (fun _ -> Random.State.bool rand)
           (List.init n Fun.id))
    in
    let in_sub = Array.make n false in
    Array.iter (fun i -> in_sub.(i) <- true) sub;
    let lo = Random.State.int offsets n in
    List.iter
      (fun fuse ->
        let settings = { Settings.default with fuse } in
        let label = Printf.sprintf "%s fuse=%b" label fuse in
        let eager = reference_filter cols ~n pred in
        List.iter
          (fun threads ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s full sel @%dt" label threads)
              eager
              (Array.to_list
                 (Kernel.select ~settings ~threads cols [ pred ] [] ~n)))
          [ 1; 3 ];
        let from_lo = ref [] in
        Kernel.selector ~fuse cols [ pred ] [] ~lo ~hi:(n - 1) (fun idx k ->
            for t = 0 to k - 1 do
              from_lo := idx.(t) :: !from_lo
            done);
        Alcotest.(check (list int))
          (Printf.sprintf "%s rows from %d" label lo)
          (List.filter (fun i -> i >= lo) eager)
          (List.rev !from_lo);
        let got =
          Exec_vectorized.filter_sel ~grain:settings.grain ~threads:1 cols sub
            pred
        in
        Alcotest.(check (list int))
          (Printf.sprintf "%s subset sel" label)
          (List.filter (fun i -> in_sub.(i)) eager)
          (Array.to_list got))
      [ true; false ]
  in
  for t = 1 to 50 do
    trial (Printf.sprintf "trial %d" t) (1 + Random.State.int rand 200)
  done;
  (* four random predicates per length: one alone may keep no row *)
  List.iter
    (fun n ->
      for t = 1 to 4 do
        trial (Printf.sprintf "trial n=%d #%d" n t) n
      done)
    [ 8191; 8193; 20_000 ]

let suites =
  [ ( "dict-storage",
      [ tc "encode round-trip" test_encode_roundtrip;
        tc "encode with nulls" test_encode_nulls;
        tc "take shares dictionary" test_take_shares_dict;
        tc "high cardinality stays raw" test_high_cardinality_stays_raw ] );
    ( "dict-equivalence",
      [ tc "sql equivalence dict vs raw" test_sql_equivalence;
        tc "encode-filter-join-decode round trip" test_roundtrip_pipeline;
        tc "tpch suite dict vs raw" test_tpch_equivalence;
        tc "code-direct eq/prefix predicates" test_code_direct_preds;
        tc "nulls in dict sort/group-by" test_null_sort_group ] );
    ( "selection-vectors",
      [ tc "select matches compile_pred" test_selection_equivalence ] ) ]
