(** Shared test utilities. *)

open Sqldb

let check_rel ?(digits = 4) msg (expected : Relation.t) (actual : Relation.t) =
  Alcotest.(check (list string))
    msg
    (Relation.canonical ~digits expected)
    (Relation.canonical ~digits actual)

(* Like [check_rel] on pre-canonicalized rows, but float cells may differ
   by one unit in the last rounded decimal plus a small relative term:
   parallel aggregation sums in chunk order, so the low bits of large
   float sums legitimately depend on the thread count. String cells must
   still match exactly, and any real defect (a lost or duplicated row)
   moves an aggregate by far more than the tolerance. *)
let check_rows_close ?(digits = 3) msg (expected : string list)
    (actual : string list) =
  let close a b =
    String.equal a b
    ||
    match (float_of_string_opt a, float_of_string_opt b) with
    | Some x, Some y ->
      Float.abs (x -. y)
      <= (1.6 *. (10. ** float_of_int (-digits)))
         +. (1e-6 *. Float.max (Float.abs x) (Float.abs y))
    | _ -> false
  in
  let row_close ra rb =
    let ca = String.split_on_char '|' ra in
    let cb = String.split_on_char '|' rb in
    List.length ca = List.length cb && List.for_all2 close ca cb
  in
  if
    not
      (List.length expected = List.length actual
      && List.for_all2 row_close expected actual)
  then (* re-raise through the exact check for a readable diff *)
    Alcotest.(check (list string)) msg expected actual

let rel names cols = Relation.create (Array.of_list names) (Array.of_list cols)

let ints = Column.of_ints
let floats = Column.of_floats
let strings = Column.of_strings
let bools = Column.of_bools
let dates l = Column.of_dates (Array.map Value.date_of_iso l)

(* A small orders/customers database reused across suites. *)
let mini_db () =
  let db = Db.create () in
  Db.load_table db "orders"
    ~cons:{ Catalog.no_constraints with primary_key = [ "o_id" ] }
    (rel [ "o_id"; "o_cust"; "o_total"; "o_date" ]
       [ ints [| 1; 2; 3; 4; 5 |];
         ints [| 10; 10; 20; 30; 20 |];
         floats [| 100.; 200.; 50.; 75.; 125. |];
         dates [| "1995-01-01"; "1995-06-15"; "1996-02-01"; "1994-12-31";
                  "1995-03-03" |] ]);
  Db.load_table db "cust"
    ~cons:{ Catalog.no_constraints with primary_key = [ "c_id" ] }
    (rel [ "c_id"; "c_name" ]
       [ ints [| 10; 20; 40 |]; strings [| "alice"; "bob"; "carol" |] ]);
  db

(* execute on every backend and insist the results agree; [each] also sees
   every run's result *)
let execute_everywhere ?(threads_list = [ 1; 3 ]) ?(each = fun _ _ _ -> ())
    ?settings db sql : Relation.t =
  let reference = Db.execute ~backend:Db.Vectorized ?settings db sql in
  List.iter
    (fun backend ->
      List.iter
        (fun threads ->
          let r = Db.execute ~backend ~threads ?settings db sql in
          check_rel
            (Printf.sprintf "%s @%dt" (Db.backend_name backend) threads)
            reference r;
          each backend threads r)
        threads_list)
    [ Db.Vectorized; Db.Compiled ];
  reference

let tc name f = Alcotest.test_case name `Quick f

(* substring search used by codegen tests *)
let contains_sub (sub : string) (s : string) : bool =
  let ls = String.length s and lsub = String.length sub in
  let rec at i =
    i + lsub <= ls && (String.equal (String.sub s i lsub) sub || at (i + 1))
  in
  lsub = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Engine configuration                                               *)
(* ------------------------------------------------------------------ *)

(* Engine settings are values ({!Settings.t}) a database or a query
   carries; only the parallel dispatch mode is process-level. Run [f]
   under [mode] and restore the previous mode, whatever [f] does. *)
let with_parallel mode (f : unit -> 'a) : 'a =
  let saved = Parallel.current_mode () in
  Parallel.set_mode mode;
  Fun.protect ~finally:(fun () -> Parallel.set_mode saved) f

(* Radix partitioning on every join build and aggregation, and every
   parallel region split, even at one thread. *)
let radix_forced = { Settings.default with radix = true; grain = 0 }

(* ------------------------------------------------------------------ *)
(* Differential runner                                                *)
(* ------------------------------------------------------------------ *)

let backends = [ Db.Vectorized; Db.Compiled ]
let thread_counts = [ 1; 3 ]

(* Exact ordered row rendering: [Relation.canonical] sorts and rounds,
   which would mask an order change or a low-bit divergence. *)
let ordered_rows (r : Relation.t) : string list =
  List.init (Relation.n_rows r) (fun i ->
      String.concat "|"
        (Array.to_list (Array.map Value.to_string (Relation.row r i))))

(* Join, filter and global-aggregate output order is an invariant (probe
   order, survivor order, one row) and compares exactly. GROUP BY output
   order is not: radix aggregation emits partition-major, the vectorized
   dense path slot order, the compiled path first-seen order. Grouped
   answers compare as sorted multisets, still with exact cells. *)
let has_group_by sql = contains_sub "GROUP BY" sql

(* Run every query under settings [base] and [subject] on both backends at
   1 and 3 threads, with the result cache off: a cached result from one
   configuration would answer the other without executing it. *)
let diff_queries ~label ~(base : Settings.t) ~(subject : Settings.t)
    (db : Db.t) (queries : string list) =
  List.iter
    (fun sql ->
      List.iter
        (fun backend ->
          List.iter
            (fun threads ->
              let run (s : Settings.t) =
                let settings = { s with cache = false } in
                let rows =
                  ordered_rows (Db.execute ~backend ~threads ~settings db sql)
                in
                if has_group_by sql then List.sort String.compare rows
                else rows
              in
              Alcotest.(check (list string))
                (Printf.sprintf "%s %s @%dt | %s" label
                   (Db.backend_name backend) threads sql)
                (run base) (run subject))
            thread_counts)
        backends)
    queries
