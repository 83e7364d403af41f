(** Unit & property tests for the storage primitives: values, dates,
    bitsets, columns, relations. *)

open Sqldb
open Helpers

let date_tests =
  [ tc "iso roundtrip" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check string)
              s s
              (Value.iso_of_date (Value.date_of_iso s)))
          [ "1970-01-01"; "1992-01-01"; "1998-08-02"; "2000-02-29";
            "1900-03-01"; "2024-12-31" ]);
    tc "epoch zero" (fun () ->
        Alcotest.(check int) "1970-01-01 is day 0" 0
          (Value.date_of_iso "1970-01-01"));
    tc "ordering" (fun () ->
        Alcotest.(check bool)
          "dates ordered" true
          (Value.date_of_iso "1995-03-15" < Value.date_of_iso "1995-03-16"));
    tc "year/month extraction" (fun () ->
        let d = Value.date_of_iso "1996-07-04" in
        Alcotest.(check int) "year" 1996 (Value.year_of_days d);
        Alcotest.(check int) "month" 7 (Value.month_of_days d));
    tc "leap year" (fun () ->
        let d = Value.date_of_iso "2000-02-29" in
        let y, m, day = Value.ymd_of_days d in
        Alcotest.(check (triple int int int)) "ymd" (2000, 2, 29) (y, m, day))
  ]

let date_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"days->ymd->days roundtrip" ~count:500
         QCheck2.Gen.(int_range (-100_000) 100_000)
         (fun d ->
           let y, m, day = Value.ymd_of_days d in
           Value.days_of_ymd y m day = d)) ]

let bitset_tests =
  [ tc "set/get/clear" (fun () ->
        let b = Bitset.create 100 in
        Bitset.set b 0;
        Bitset.set b 63;
        Bitset.set b 99;
        Alcotest.(check bool) "0 set" true (Bitset.get b 0);
        Alcotest.(check bool) "63 set" true (Bitset.get b 63);
        Alcotest.(check bool) "1 unset" false (Bitset.get b 1);
        Bitset.clear b 63;
        Alcotest.(check bool) "63 cleared" false (Bitset.get b 63);
        Alcotest.(check int) "popcount" 2 (Bitset.popcount b));
    tc "union" (fun () ->
        let a = Bitset.create 16 and b = Bitset.create 16 in
        Bitset.set a 1;
        Bitset.set b 2;
        let u = Bitset.union a b in
        Alcotest.(check (list int)) "union bits" [ 1; 2 ]
          (Array.to_list (Bitset.to_indices u))) ]

let bitset_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"of_indices/to_indices roundtrip" ~count:200
         QCheck2.Gen.(list_size (int_bound 50) (int_bound 199))
         (fun idx ->
           let idx = List.sort_uniq compare idx in
           let b = Bitset.of_indices ~len:200 (Array.of_list idx) in
           Array.to_list (Bitset.to_indices b) = idx)) ]

let column_tests =
  [ tc "take with -1 yields nulls" (fun () ->
        let c = ints [| 10; 20; 30 |] in
        let t = Column.take c [| 2; -1; 0 |] in
        Alcotest.(check bool) "null at 1" true (Column.is_null t 1);
        Alcotest.(check int) "t[0]" 30 (Column.int_at t 0);
        Alcotest.(check int) "t[2]" 10 (Column.int_at t 2));
    tc "of_values infers nulls" (fun () ->
        let c =
          Column.of_values Value.TFloat
            [| Value.VFloat 1.; Value.VNull; Value.VFloat 3. |]
        in
        Alcotest.(check bool) "has nulls" true (Column.has_nulls c);
        Alcotest.(check bool) "mid null" true (Column.is_null c 1));
    tc "concat fast path" (fun () ->
        let c = Column.concat [ ints [| 1; 2 |]; ints [| 3 |] ] in
        Alcotest.(check int) "len" 3 (Column.length c);
        Alcotest.(check int) "last" 3 (Column.int_at c 2));
    tc "concat with nulls" (fun () ->
        let a = Column.take (ints [| 1 |]) [| -1 |] in
        let c = Column.concat [ a; ints [| 5 |] ] in
        Alcotest.(check bool) "null kept" true (Column.is_null c 0);
        Alcotest.(check int) "value kept" 5 (Column.int_at c 1)) ]

let column_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"take permutes values" ~count:200
         QCheck2.Gen.(list_size (int_range 1 40) (int_range (-1000) 1000))
         (fun xs ->
           let arr = Array.of_list xs in
           let c = ints arr in
           let n = Array.length arr in
           let idx = Array.init n (fun i -> n - 1 - i) in
           let t = Column.take c idx in
           Array.for_all
             (fun i -> Column.int_at t i = arr.(n - 1 - i))
             (Array.init n Fun.id))) ]

(* Every int, date and float payload and every dictionary code vector is a
   bigarray. The column operations are checked against a reference over
   boxed [Value.t] arrays, and every null slot's payload must read zero
   ({!Kernel}'s comparison masks rely on it). Before each operation the
   allocator is handed back freed vectors full of non-zero cells of the
   output's size, so a producer that skipped writing a null slot would
   most likely read them. *)
let bigarray_tests =
  let values_of c = Array.init (Column.length c) (Column.get c) in
  let dirty n =
    for _ = 1 to 4 do
      ignore (Sys.opaque_identity (Column.ivec_make n 0x5a5a5a));
      ignore (Sys.opaque_identity (Column.fvec_make n 1e300))
    done;
    Gc.full_major ()
  in
  let fresh n f =
    dirty n;
    f ()
  in
  let check name (expect : Value.t array) (c : Column.t) =
    Alcotest.(check int) (name ^ " length") (Array.length expect) (Column.length c);
    Alcotest.(check (list string))
      (name ^ " values")
      (Array.to_list (Array.map Value.to_string expect))
      (Array.to_list (Array.map Value.to_string (values_of c)));
    Array.iteri
      (fun i v ->
        if Value.is_null v then
          match c.Column.data with
          | Column.I _ ->
            Alcotest.(check int) (Printf.sprintf "%s null %d int_at" name i) 0
              (Column.int_at c i)
          | Column.F _ ->
            Alcotest.(check bool)
              (Printf.sprintf "%s null %d float_at" name i)
              true
              (Column.float_at c i = 0.)
          | Column.D (codes, _) ->
            Alcotest.(check int) (Printf.sprintf "%s null %d code" name i) 0
              codes.{i}
          | Column.S _ | Column.B _ -> ())
      expect
  in
  let n = 300 in
  let idx = Array.init n (fun i -> if i mod 11 = 3 then -1 else n - 1 - i) in
  let gather vs = Array.map (fun i -> if i < 0 then Value.VNull else vs.(i)) idx in
  let nullable every f =
    Array.init n (fun i -> if i mod every = 0 then Value.VNull else f i)
  in
  let cases =
    [ ("int", Value.TInt, nullable 5 (fun i -> Value.VInt ((i * 37 mod 211) - 100)));
      ( "float",
        Value.TFloat,
        nullable 7 (fun i -> Value.VFloat (float_of_int (i - (n / 2)) /. 3.)) );
      ("date", Value.TDate, nullable 9 (fun i -> Value.VDate (i * 3)));
      ( "dict",
        Value.TString,
        nullable 6 (fun i -> Value.VString (Printf.sprintf "s%d" (i mod 13))) ) ]
  in
  (* a dictionary case's columns are encoded, the others built as given *)
  let build ty vs =
    let c = Column.of_values ty vs in
    if ty = Value.TString then Column.encode c else c
  in
  [ tc "round trip vs boxed values" (fun () ->
        List.iter
          (fun (name, ty, vals) ->
            let c = fresh n (fun () -> build ty vals) in
            check (name ^ " of_values") vals c;
            let t = fresh n (fun () -> Column.take c idx) in
            check (name ^ " take") (gather vals) t;
            let cat =
              fresh (2 * n) (fun () -> Column.concat [ t; c; Column.take c [| -1 |] ])
            in
            check (name ^ " concat")
              (Array.concat [ gather vals; vals; [| Value.VNull |] ])
              cat;
            if ty = Value.TString then
              Alcotest.(check bool) "one dictionary stays coded" true
                (Column.is_dict cat))
          cases);
    tc "concat over two dictionaries" (fun () ->
        let a = nullable 4 (fun i -> Value.VString (Printf.sprintf "a%d" (i mod 5)))
        and b = nullable 3 (fun i -> Value.VString (Printf.sprintf "b%d" (i mod 7))) in
        let c = Column.concat [ build Value.TString a; build Value.TString b ] in
        check "two dictionaries" (Array.append a b) c);
    tc "append_chunk vs boxed values" (fun () ->
        List.iter
          (fun (name, ty, vals) ->
            let batch = gather vals in
            let batch =
              if ty = Value.TString then
                (* values the resident dictionary has not seen *)
                Array.map
                  (function
                    | Value.VString s -> Value.VString ("new-" ^ s) | v -> v)
                  batch
              else batch
            in
            let a =
              fresh (2 * n) (fun () ->
                  let c = build ty vals in
                  fst
                    (Column.append_chunk (Column.room c) c
                       (Column.of_values ty batch)))
            in
            check (name ^ " append_chunk") (Array.append vals batch) a)
          cases);
    tc "const NULL" (fun () ->
        List.iter
          (fun ty ->
            let c = fresh n (fun () -> Column.const ty Value.VNull n) in
            check
              (Value.ty_name ty ^ " const NULL")
              (Array.make n Value.VNull) c)
          [ Value.TInt; Value.TFloat; Value.TDate; Value.TString; Value.TBool ]) ]

let relation_tests =
  [ tc "schema & canonical" (fun () ->
        let r =
          rel [ "a"; "b" ] [ ints [| 2; 1 |]; strings [| "y"; "x" |] ]
        in
        Alcotest.(check int) "rows" 2 (Relation.n_rows r);
        Alcotest.(check (list string))
          "canonical sorted" [ "1|x"; "2|y" ] (Relation.canonical r));
    tc "rename" (fun () ->
        let r = rel [ "a" ] [ ints [| 1 |] ] in
        let r = Relation.rename r [| "z" |] in
        Alcotest.(check bool) "renamed" true (Relation.col_index r "z" = Some 0));
    tc "concat" (fun () ->
        let a = rel [ "x" ] [ ints [| 1 |] ] in
        let b = rel [ "x" ] [ ints [| 2 |] ] in
        Alcotest.(check int) "rows" 2
          (Relation.n_rows (Relation.concat ~grain:0 [ a; b ])))
  ]

let like_props =
  let naive_like = Sqldb.Eval.like_match in
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"compile_like agrees with like_match" ~count:500
         QCheck2.Gen.(
           pair
             (string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_bound 8))
             (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 10)))
         (fun (pat, s) -> Sqldb.Eval.compile_like pat s = naive_like pat s));
    (* The fast paths run once per row in filter loops: 10k matches of the
       'x%', '%x' and '%x%' shapes must leave the minor heap exactly as an
       empty loop does (each counter read boxes its own result). *)
    tc "LIKE fast paths allocate nothing per match" (fun () ->
        let words f =
          let w0 = Gc.minor_words () in
          for _ = 1 to 10_000 do
            ignore (Sys.opaque_identity (f ()))
          done;
          Gc.minor_words () -. w0
        in
        let idle = words (fun () -> true) in
        List.iter
          (fun (pat, s) ->
            let m = Sqldb.Eval.compile_like pat in
            Alcotest.(check bool) (pat ^ " matches") true (m s);
            Alcotest.(check (float 0.)) (pat ^ " words") idle
              (words (fun () -> m s)))
          [ ("spec%", "special requests");
            ("%requests", "special requests");
            ("%requests%", "carefully special requests sleep") ]) ]

let suites =
  [ ("dates", date_tests @ date_props);
    ("bitset", bitset_tests @ bitset_props);
    ("column", column_tests @ column_props);
    ("bigarray", bigarray_tests);
    ("relation", relation_tests);
    ("like", like_props) ]
