(** Configuration oracle: every engine configuration answers what the
    Pandas program answers.

    Each configuration sets engine toggles through their setters
    ({!Helpers.with_config}) and builds its databases inside that
    configuration, because dictionary encoding is decided at ingest.
    Under each one runs the same fixed corpus:

    - the 22 TPC-H programs at SF 0.002 through {!Pytond.run}, on both
      backends at 1 and 3 threads, against the interpreter baseline
      ({!Pytond.run_python}). At this scale q17 and q19 select no rows, so
      the empty-sum path is on the corpus too;
    - the paper workloads ({!Workloads.all}), the same way on the
      vectorized backend at 1 thread;
    - the [matview-cache] append/replace sequence on the dashboard shapes,
      and registered views under append rounds, each read against a cold
      run on a snapshot of the same data.

    The configurations other than the default are the fallback paths:
    radix partitioning forced down to the smallest build, the single-table
    join and chunked group merge, raw string columns, the unfused
    executors, and recompute in place of delta refresh. *)

open Sqldb
open Helpers

let sf = 0.002

let configs : (string * ((unit -> unit) -> unit)) list =
  [ ("default", fun f -> with_config f);
    ("radix forced", fun f -> with_config ~radix:true ~grain:0 f);
    ("radix off", fun f -> with_config ~radix:false f);
    ("raw strings", fun f -> with_config ~dict:false f);
    ("fuse off", fun f -> with_config ~fuse:false f);
    ("IVM off", fun f -> with_config ~ivm:false f) ]

(* Every program on each backend at each thread count against its
   baseline rows. At 3 threads float sums merge per chunk, so their last
   rounded digit may move. *)
let check_programs ~backends ~threads_list db
    (programs : (string * string * string list) list) =
  List.iter
    (fun (name, source, base) ->
      List.iter
        (fun backend ->
          List.iter
            (fun threads ->
              let r =
                Relation.canonical ~digits:3
                  (Pytond.run ~backend ~threads ~db ~source ~fname:"query" ())
              in
              let msg =
                Printf.sprintf "%s %s @%dt" name (Db.backend_name backend)
                  threads
              in
              if threads = 1 then Alcotest.(check (list string)) msg base r
              else check_rows_close ~digits:3 msg base r)
            threads_list)
        backends)
    programs

let baseline db (name, source) =
  ( name,
    source,
    Relation.canonical ~digits:3
      (Pytond.run_python ~db ~source ~fname:"query" ()) )

let tpch_baselines =
  lazy (List.map (baseline (Tpch.Dbgen.make_db sf)) Tpch.Queries.all)

let workload_baselines =
  lazy
    (List.map
       (fun (name, load, source) ->
         let db = Db.create () in
         load db;
         baseline db (name, source))
       Workloads.all)

(* [tpch ()] is a private snapshot of the configuration's TPC-H database. *)
let test_tpch tpch () =
  check_programs ~backends ~threads_list:thread_counts (tpch ())
    (Lazy.force tpch_baselines)

(* The workloads run on the vectorized backend at 1 thread only, to keep
   the suite inside its time budget; the TPC-H corpus covers the compiled
   backend and the 3-thread paths. *)
let test_workloads _ () =
  List.iter2
    (fun (_, load, _) program ->
      let db = Db.create () in
      load db;
      check_programs ~backends:[ Db.Vectorized ] ~threads_list:[ 1 ] db
        [ program ])
    Workloads.all
    (Lazy.force workload_baselines)

(* Registered views over both refresh paths (q1, q3 and q14 driven by
   lineitem, q12 by orders) and one fallback view (q17), read after each
   append. *)
let test_views tpch () =
  let db = tpch () in
  let sqls =
    List.map
      (fun q ->
        let sql = Test_matview.tpch_sql db q in
        Test_matview.ok_or_fail (Db.register_view db ~name:q sql);
        (q, sql))
      [ "q1"; "q3"; "q12"; "q14"; "q17" ]
  in
  List.iteri
    (fun k table ->
      Test_matview.append_copies db table ~n:40 ~k;
      List.iter
        (fun (q, sql) ->
          check_rows_close ~digits:4
            (Printf.sprintf "view %s after append %d" q k)
            (Relation.canonical ~digits:4 (Db.execute (Db.snapshot db) sql))
            (Relation.canonical ~digits:4 (Db.execute db sql)))
        sqls)
    [ "lineitem"; "orders"; "lineitem" ]

(* The result-cache sequence on the compiled backend: stale reads that
   recompute run on it, and delta refreshes on the vectorized engine. *)
let test_cache tpch () =
  Test_matview.cache_sequence ~counting:false Db.Compiled (tpch ())

let suites =
  [ ( "config-oracle",
      List.concat_map
        (fun (label, config) ->
          (* One TPC-H database per configuration, generated inside it at
             first use. *)
          let db = lazy (Tpch.Dbgen.make_db sf) in
          let tpch () = Db.snapshot (Lazy.force db) in
          (* Runs at 3 threads dispatch in [Simulated] mode: the same
             chunks, radix partitions and merges as on real domains, run
             one after another, so the suite pays for no domain spawns. *)
          List.map
            (fun (what, test) ->
              tc (label ^ ": " ^ what) (fun () ->
                  with_config ~parallel:Parallel.Simulated (fun () ->
                      config (test tpch))))
            [ ("TPC-H", test_tpch);
              ("workloads", test_workloads);
              ("registered views", test_views);
              ("cached results", test_cache) ])
        configs ) ]
