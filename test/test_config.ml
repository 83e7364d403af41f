(** Configuration oracle: every engine configuration answers what the
    Pandas program answers.

    Each configuration is one {!Settings.t}. Its databases are built
    with it, because dictionary encoding is decided at ingest, and every
    query on them runs under it. Under each one runs the same fixed
    corpus:

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

let configs : (string * Settings.t) list =
  let d = Settings.default in
  [ ("default", d);
    ("radix forced", radix_forced);
    ("radix off", { d with radix = false });
    ("raw strings", { d with dict = false });
    ("fuse off", { d with fuse = false });
    ("IVM off", { d with ivm = false }) ]

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
let test_tpch _ tpch () =
  check_programs ~backends ~threads_list:thread_counts (tpch ())
    (Lazy.force tpch_baselines)

(* The workloads run on the vectorized backend at 1 thread only, to keep
   the suite inside its time budget; the TPC-H corpus covers the compiled
   backend and the 3-thread paths. *)
let test_workloads settings _ () =
  List.iter2
    (fun (_, load, _) program ->
      let db = Db.create ~settings () in
      load db;
      check_programs ~backends:[ Db.Vectorized ] ~threads_list:[ 1 ] db
        [ program ])
    Workloads.all
    (Lazy.force workload_baselines)

(* Registered views over both refresh paths (q1, q3 and q14 driven by
   lineitem, q12 by orders) and one fallback view (q17), read after each
   append. *)
let test_views _ tpch () =
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
let test_cache _ tpch () =
  Test_matview.cache_sequence ~counting:false Db.Compiled (tpch ())

(* Two databases over one generated dataset, one at [Settings.default]
   and one with the fused paths off and radix forced, each built and
   queried by its own domain at the same time on both backends. Every
   answer must be the interpreter's. Settings change cost, never answers,
   so each query's materialized rows ({!Guard} counts them per domain)
   must also match a serial run under its own settings, and the default
   database, whose compiled aggregates fuse over their base table and
   gather no morsels, must gather fewer rows in all. *)
let test_concurrent_settings () =
  Faults.disarm ();
  Fun.protect ~finally:Faults.arm_from_env @@ fun () ->
  let tables = Tpch.Dbgen.generate ~threads:1 sf in
  let baselines = Lazy.force tpch_baselines in
  let run db =
    List.concat_map
      (fun (name, source, base) ->
        List.map
          (fun (backend, dialect) ->
            let sql = Pytond.compile ~dialect ~db ~source ~fname:"query" () in
            let g = Option.get (Guard.install ~row_budget:max_int ()) in
            Fun.protect ~finally:Guard.clear (fun () ->
                let r = Db.execute ~backend db sql in
                ( Printf.sprintf "%s %s" name (Db.backend_name backend),
                  (base, Relation.canonical ~digits:3 r),
                  (backend, Atomic.get g.Guard.rows) )))
          [ (Db.Vectorized, "duckdb"); (Db.Compiled, "hyper") ])
      baselines
  in
  let in_domain settings () =
    let db = Db.create ~settings () in
    Tpch.Dbgen.load ~threads:1 db tables;
    (db, run db)
  in
  let gathered =
    List.map
      (fun (db, runs) ->
        List.iter2
          (fun (what, (base, r), (_, n)) (_, _, (_, n_alone)) ->
            Alcotest.(check (list string)) what base r;
            Alcotest.(check int) (what ^ " rows as alone") n_alone n)
          runs
          (run (Db.snapshot db));
        List.fold_left
          (fun acc (_, _, (b, n)) -> if b = Db.Compiled then acc + n else acc)
          0 runs)
      (List.map Domain.join
         (List.map
            (fun s -> Domain.spawn (in_domain s))
            [ Settings.default; { radix_forced with fuse = false } ]))
  in
  Alcotest.(check bool) "fused aggregates gather fewer rows" true
    (match gathered with [ f; u ] -> f < u | _ -> false)

let suites =
  [ ( "config-concurrent",
      [ tc "two settings in two domains at once" test_concurrent_settings ] );
    ( "config-oracle",
      List.concat_map
        (fun (label, settings) ->
          (* One TPC-H database per configuration, generated with its
             settings at first use. *)
          let db = lazy (Tpch.Dbgen.make_db ~settings sf) in
          let tpch () = Db.snapshot (Lazy.force db) in
          (* Runs at 3 threads dispatch in [Simulated] mode: the same
             chunks, radix partitions and merges as on real domains, run
             one after another, so the suite pays for no domain spawns. *)
          List.map
            (fun (what, test) ->
              tc (label ^ ": " ^ what) (fun () ->
                  with_parallel Parallel.Simulated (test settings tpch)))
            [ ("TPC-H", test_tpch);
              ("workloads", test_workloads);
              ("registered views", test_views);
              ("cached results", test_cache) ])
        configs ) ]
