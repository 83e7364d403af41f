(** Differential fault oracle: every workload and a TPC-H selection run
    under injected faults ({!Sqldb.Faults}) on every engine configuration,
    and each run must either produce exactly the fault-free answer or fail
    with a clean typed error — never crash the process, never return a
    silently wrong relation.

    The interpreter baseline is not fault-instrumented, so it provides the
    reference answer; [Pytond.run] exercises in-engine recovery (chunk retry
    in [Parallel], suppressed-retry in [Db.execute]) and [Pytond.run_auto]
    additionally exercises the interpreter fallback for faults that escape
    recovery. *)

open Helpers
module Faults = Sqldb.Faults

let seeds = [ 11; 23; 47 ]

let configs =
  [ (Pytond.Vectorized, 1, "vec@1"); (Pytond.Vectorized, 3, "vec@3");
    (Pytond.Compiled, 1, "comp@1"); (Pytond.Compiled, 3, "comp@3") ]

(* Run [source] against [db] under seed-armed faults on one configuration.
   Acceptable outcomes: the reference relation, or a typed [Pytond.Error].
   Anything else — an untyped exception, a mismatching relation — fails. *)
let oracle_one ~label ~db ~source ~reference ~seed (backend, threads, cfg) =
  Faults.arm ~seed ();
  Fun.protect ~finally:Faults.arm_from_env (fun () ->
      let tag = Printf.sprintf "%s %s seed=%d" label cfg seed in
      (* direct run: in-engine recovery only *)
      (match Pytond.run ~backend ~threads ~db ~source ~fname:"query" () with
      | r ->
        check_rows_close ~digits:3 (tag ^ " run")
          (Sqldb.Relation.canonical ~digits:3 reference)
          (Sqldb.Relation.canonical ~digits:3 r)
      | exception Pytond.Error _ -> ());
      (* run_auto: must always produce the reference (fallback rescues any
         escaped exec fault; translate errors cannot occur here) *)
      Faults.arm ~seed ();
      let a =
        Pytond.run_auto ~backend ~threads ~db ~source ~fname:"query" ()
      in
      check_rows_close ~digits:3 (tag ^ " run_auto")
        (Sqldb.Relation.canonical ~digits:3 reference)
        (Sqldb.Relation.canonical ~digits:3 a.Pytond.relation))

let oracle ~label ~db ~source ~seed =
  Faults.disarm ();
  let reference = Pytond.run_python ~db ~source ~fname:"query" () in
  List.iter (oracle_one ~label ~db ~source ~reference ~seed) configs

let workload_oracle seed =
  tc (Printf.sprintf "workloads under faults, seed %d" seed) (fun () ->
      List.iter
        (fun (name, load, source) ->
          let db = Sqldb.Db.create () in
          load db;
          oracle ~label:name ~db ~source ~seed)
        Workloads.all)

let tpch_queries = [ "q1"; "q3"; "q4"; "q12"; "q16"; "q19" ]

let tpch_oracle seed =
  tc (Printf.sprintf "TPC-H under faults, seed %d" seed) (fun () ->
      let db = Tpch.Dbgen.make_db 0.005 in
      List.iter
        (fun q -> oracle ~label:q ~db ~source:(Tpch.Queries.find q) ~seed)
        tpch_queries)

(* The query cache must stand down while faults are armed — a cached result
   would mask the recovery paths under test — and serve correct results
   again once disarmed, even when faulty runs happened in between. *)
let cache_interaction_test =
  tc "query cache stands down under faults, recovers after" (fun () ->
      Fun.protect ~finally:Faults.arm_from_env (fun () ->
          with_config ~cache:true @@ fun () ->
          Faults.disarm ();
          let db = Tpch.Dbgen.make_db 0.005 in
          let source = Tpch.Queries.find "q6" in
          let reference = Pytond.run ~db ~source ~fname:"query" () in
          List.iter
            (fun seed ->
              Faults.arm ~seed ();
              (* armed: executions bypass the cache entirely *)
              let before = (Sqldb.Db.cache_stats db).Sqldb.Db.misses in
              (match Pytond.run ~db ~source ~fname:"query" () with
              | r ->
                Alcotest.(check (list string))
                  (Printf.sprintf "armed result, seed %d" seed)
                  (Sqldb.Relation.canonical ~digits:3 reference)
                  (Sqldb.Relation.canonical ~digits:3 r)
              | exception Pytond.Error _ -> ());
              Alcotest.(check int)
                (Printf.sprintf "no cache traffic while armed, seed %d" seed)
                before
                ((Sqldb.Db.cache_stats db).Sqldb.Db.misses);
              Faults.disarm ();
              (* disarmed: cached execution returns the clean answer *)
              let r1 = Pytond.run ~db ~source ~fname:"query" () in
              let r2 = Pytond.run ~db ~source ~fname:"query" () in
              Alcotest.(check (list string))
                (Printf.sprintf "cached repeat after disarm, seed %d" seed)
                (Sqldb.Relation.canonical ~digits:3 r1)
                (Sqldb.Relation.canonical ~digits:3 r2))
            seeds))

(* Chunk-level recovery in isolation: an injected worker crash re-runs the
   chunk inline, so a fault-heavy parallel map still returns exactly the
   sequential answer in every dispatch mode. *)
let sum_chunks () =
  Sqldb.Parallel.map_chunks ~threads:4 1000 (fun s l ->
      let acc = ref 0 in
      for i = s to s + l - 1 do
        acc := !acc + i
      done;
      !acc)

let parallel_retry_test =
  tc "map_chunks recovers injected worker crashes in every mode" (fun () ->
      let expected = sum_chunks () in
      let saved_mode = Sqldb.Parallel.current_mode () in
      Fun.protect
        ~finally:(fun () ->
          Sqldb.Parallel.set_mode saved_mode;
          Faults.arm_from_env ())
        (fun () ->
          List.iter
            (fun mode ->
              Sqldb.Parallel.set_mode mode;
              List.iter
                (fun seed ->
                  Faults.arm ~seed ();
                  Alcotest.(check (list int))
                    (Printf.sprintf "seed %d" seed)
                    expected (sum_chunks ()))
                seeds)
            [ Sqldb.Parallel.Sequential_only; Sqldb.Parallel.Domains;
              Sqldb.Parallel.Simulated ]))

(* The registry itself: deterministic draws per seed, suppression masks
   firing, env round-trip. *)
let registry_tests =
  [ tc "draw sequence is deterministic per seed" (fun () ->
        let draw_seq seed =
          Faults.arm ~seed ();
          Fun.protect ~finally:Faults.arm_from_env (fun () ->
              List.init 64 (fun _ ->
                  Faults.fires Faults.Worker_crash ~site:"t"))
        in
        Alcotest.(check (list bool))
          "same seed, same draws" (draw_seq 11) (draw_seq 11);
        Alcotest.(check bool)
          "some draw fires under some seed" true
          (List.exists (fun s -> List.mem true (draw_seq s)) [ 11; 23; 47; 5; 7 ]));
    tc "suppression masks injection" (fun () ->
        Faults.arm ~seed:11 ();
        Fun.protect ~finally:Faults.arm_from_env (fun () ->
            Faults.with_suppressed (fun () ->
                for _ = 1 to 200 do
                  Faults.crash_point ~site:"t";
                  Faults.dict_corrupt_point ~site:"t"
                done)));
    tc "PYTOND_FAULTS round-trips through arm_from_env" (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Unix.putenv "PYTOND_FAULTS" "";
            Faults.arm_from_env ())
          (fun () ->
            Unix.putenv "PYTOND_FAULTS" "42";
            Faults.arm_from_env ();
            Alcotest.(check bool) "armed" true (Faults.armed ());
            Unix.putenv "PYTOND_FAULTS" "";
            Faults.arm_from_env ();
            Alcotest.(check bool) "disarmed" false (Faults.armed ()))) ]

let suites =
  [ ("faults-registry", registry_tests);
    ("faults-parallel", [ parallel_retry_test ]);
    ("faults-cache", [ cache_interaction_test ]);
    ( "faults-oracle",
      List.map workload_oracle seeds @ List.map tpch_oracle seeds ) ]
