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
   sequential answer in every dispatch mode. 1000 rows sit under the
   default grain, so the map runs under grain 0 to split at all. *)
let sum_chunks () =
  Sqldb.Parallel.map_chunks ~grain:0 ~threads:4 1000 (fun s l ->
      let acc = ref 0 in
      for i = s to s + l - 1 do
        acc := !acc + i
      done;
      !acc)

let parallel_retry_test =
  tc "map_chunks recovers injected worker crashes in every mode" (fun () ->
      let expected = sum_chunks () in
      Fun.protect ~finally:Faults.arm_from_env (fun () ->
          List.iter
            (fun mode ->
              with_parallel mode @@ fun () ->
              List.iter
                (fun seed ->
                  Faults.arm ~seed ();
                  let got = sum_chunks () in
                  Alcotest.(check bool)
                    (Printf.sprintf "seed %d splits" seed)
                    true
                    (List.length got > 1);
                  Alcotest.(check (list int))
                    (Printf.sprintf "seed %d" seed)
                    expected got)
                seeds)
            [ Sqldb.Parallel.Sequential_only; Sqldb.Parallel.Domains;
              Sqldb.Parallel.Simulated ]))

(* ------------------------------------------------------------------ *)
(* The domain pool                                                    *)
(* ------------------------------------------------------------------ *)

module Parallel = Sqldb.Parallel

(* Real domains, faults off; the regions below run at grain 0, so every
   one splits. *)
let pooled f =
  Faults.disarm ();
  Fun.protect ~finally:Faults.arm_from_env (fun () ->
      with_parallel Parallel.Domains f)

(* The chunks of [0, n) must come back in order and cover it exactly. *)
let check_cover what n chunks =
  Alcotest.(check bool) (what ^ " splits") true (List.length chunks > 1);
  Alcotest.(check int)
    (what ^ " covers in order")
    n
    (List.fold_left
       (fun next (s, l) ->
         Alcotest.(check int) (what ^ " chunk start") next s;
         s + l)
       0 chunks)

(* Wait up to two seconds for [cond]. *)
let await cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < 2. do
    Domain.cpu_relax ()
  done

(* The first item a worker runs raises [e] (item 1 when the host has one
   core and the pool no workers); the caller holds its first item until
   then, so a worker does take one. When the exception reaches the
   caller, every other item must have finished; the next region must
   succeed. *)
let raise_in_worker e =
  let caller = Domain.self () in
  let workers = Parallel.available_cores () > 1 in
  let raised = Atomic.make false and finished = Atomic.make 0 in
  (match
     Parallel.map_list ~grain:0 ~threads:3 ~rows:4
       (fun i ->
         let on_caller = Domain.self () = caller in
         if
           (if workers then not on_caller else i = 1)
           && Atomic.compare_and_set raised false true
         then raise e;
         if workers && on_caller then await (fun () -> Atomic.get raised);
         (* a worker's items finish last *)
         Unix.sleepf (if on_caller then 0.005 else 0.05);
         Atomic.incr finished)
       [ 0; 1; 2; 3 ]
   with
  | _ -> Alcotest.fail "the region returned"
  | exception e' ->
    Alcotest.(check bool) "the item's exception" true (e' == e);
    Alcotest.(check int) "the other items finished first" 3
      (Atomic.get finished));
  check_cover "next region" 9
    (Parallel.map_chunks ~grain:0 ~threads:3 9 (fun s l -> (s, l)))

let pool_tests =
  [ tc "a chunk that opens a nested region completes" (fun () ->
        pooled @@ fun () ->
        check_cover "outer region" 6
          (Parallel.map_chunks ~grain:0 ~threads:3 6 (fun s l ->
               check_cover "inner region" 5
                 (Parallel.map_chunks ~grain:0 ~threads:3 5 (fun s l ->
                      (s, l)));
               (s, l))));
    tc "a guard trip in a worker's item waits for the region" (fun () ->
        pooled @@ fun () ->
        raise_in_worker
          (Sqldb.Guard.Trip { reason = Sqldb.Guard.Cancelled; detail = "test" }));
    tc "an injected fault in a worker's item waits for the region" (fun () ->
        pooled @@ fun () ->
        raise_in_worker
          (Faults.Injected { kind = Faults.Dict_corrupt; site = "test" }));
    tc "two dispatching domains get their own ordered results" (fun () ->
        pooled @@ fun () ->
        let run k () =
          List.for_all
            (fun _ ->
              Parallel.map_list ~grain:0 ~threads:3 ~rows:20 (fun i -> k * i)
                (List.init 20 Fun.id)
              = List.init 20 (fun i -> k * i))
            (List.init 50 Fun.id)
        in
        let d = Domain.spawn (run 3) in
        let here = run 7 () in
        Alcotest.(check (pair bool bool))
          "both ordered" (true, true) (Domain.join d, here));
    tc "an inline region is one call" (fun () ->
        Faults.disarm ();
        Fun.protect ~finally:Faults.arm_from_env @@ fun () ->
        with_parallel Parallel.Domains @@ fun () ->
        let calls = ref [] in
        ignore
          (Parallel.map_chunks ~grain:Sqldb.Settings.default.grain ~threads:3 5
             (fun s l -> calls := (s, l) :: !calls));
        Alcotest.(check (list (pair int int))) "one call" [ (0, 5) ] !calls) ]

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
    ("parallel", pool_tests);
    ("faults-cache", [ cache_interaction_test ]);
    ( "faults-oracle",
      List.map workload_oracle seeds @ List.map tpch_oracle seeds ) ]
