(** Service-layer tests: the multi-tenant {!Sqldb.Server} (admission
    control, per-tenant caps, retry, circuit breaker), snapshot-isolated
    ingest, per-table cache invalidation, guard isolation across domains,
    and the typed exit-code contract.

    The centrepiece is a concurrent soak: client domains hammer mixed TPC-H
    queries through the server while a writer appends into [lineitem] and
    the fault registry injects crashes/corruption. Every response must be
    either a correct result — consistent with exactly one catalog snapshot,
    differentially checked against serial execution on each pinned version —
    or a typed error. No crash, no torn read, no unbounded queue. *)

open Sqldb

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Small synthetic servers: pin the admission/retry/breaker machinery  *)
(* ------------------------------------------------------------------ *)

(* Poll server stats until [pred] holds; the soak's synchronization needs
   are coarse (did N submissions land?), so polling keeps the tests free of
   extra signalling plumbing. *)
let wait_for ?(timeout_s = 5.) server pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred (Server.stats server) then ()
    else if Unix.gettimeofday () -. t0 > timeout_s then
      Alcotest.fail "wait_for: condition not reached"
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let test_queue_shed () =
  (* one worker parked on a gate; queue_cap 2 admitted behind it; the next
     submit must shed with a positive retry-after hint *)
  let gate = Semaphore.Counting.make 0 in
  let exec ~tenant:_ ~fallback:_ () = Semaphore.Counting.acquire gate in
  let server = Server.create ~workers:1 ~queue_cap:2 ~exec () in
  let submit_bg name =
    Domain.spawn (fun () -> Server.submit server ~tenant:name ())
  in
  let d1 = submit_bg "a" in
  (* the worker has the first job when a second submission can only queue *)
  wait_for server (fun s -> s.Server.submitted >= 1);
  let d2 = submit_bg "b" in
  let d3 = submit_bg "c" in
  wait_for server (fun s -> s.Server.submitted >= 3);
  (match Server.submit server ~tenant:"d" () with
  | Error (Server.Overloaded { scope; retry_after_ms }) ->
    Alcotest.(check string) "shed at the server queue" "server" scope;
    Alcotest.(check bool) "retry-after hint" true (retry_after_ms > 0)
  | Ok _ -> Alcotest.fail "expected Overloaded, got Ok"
  | Error e -> Alcotest.fail ("expected Overloaded, got " ^ Printexc.to_string e));
  Semaphore.Counting.release gate;
  Semaphore.Counting.release gate;
  Semaphore.Counting.release gate;
  List.iter
    (fun d ->
      match Domain.join d with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printexc.to_string e))
    [ d1; d2; d3 ];
  let s = Server.stats server in
  Alcotest.(check int) "one rejection" 1 s.Server.rejected;
  Alcotest.(check bool) "queue stayed bounded" true
    (s.Server.max_depth <= 2);
  Server.stop server

let test_tenant_cap () =
  let gate = Semaphore.Counting.make 0 in
  let exec ~tenant:_ ~fallback:_ () = Semaphore.Counting.acquire gate in
  let policy = { Tenant.default_policy with Tenant.max_in_flight = 1 } in
  let server =
    Server.create ~workers:4 ~queue_cap:32 ~default_policy:policy ~exec ()
  in
  let d1 = Domain.spawn (fun () -> Server.submit server ~tenant:"acme" ()) in
  wait_for server (fun s -> s.Server.submitted >= 1);
  (match Server.submit server ~tenant:"acme" () with
  | Error (Server.Overloaded { scope; _ }) ->
    Alcotest.(check string) "shed at the tenant cap" "tenant:acme" scope
  | _ -> Alcotest.fail "expected tenant Overloaded");
  (* a different tenant has its own slots *)
  let d2 = Domain.spawn (fun () -> Server.submit server ~tenant:"zeta" ()) in
  wait_for server (fun s -> s.Server.submitted >= 2);
  Semaphore.Counting.release gate;
  Semaphore.Counting.release gate;
  Alcotest.(check bool) "first tenant finished" true
    (Result.is_ok (Domain.join d1));
  Alcotest.(check bool) "other tenant unaffected" true
    (Result.is_ok (Domain.join d2));
  (* slot released: the capped tenant admits again *)
  Semaphore.Counting.release gate;
  (match Server.submit server ~tenant:"acme" () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Printexc.to_string e));
  Server.stop server

let test_retry_transient () =
  let calls = Atomic.make 0 in
  let exec ~tenant:_ ~fallback:_ () =
    if Atomic.fetch_and_add calls 1 = 0 then
      raise (Faults.Injected { kind = Faults.Worker_crash; site = "test" })
    else "ok"
  in
  let server = Server.create ~workers:1 ~exec () in
  (match Server.submit server ~tenant:"t" () with
  | Ok o ->
    Alcotest.(check string) "recovered value" "ok" o.Server.value;
    Alcotest.(check int) "second attempt succeeded" 2 o.Server.attempts;
    Alcotest.(check bool) "on the primary engine" false o.Server.via_fallback
  | Error e -> Alcotest.fail (Printexc.to_string e));
  let ten = Option.get (Server.tenant server "t") in
  Alcotest.(check int) "retry counted" 1 (Tenant.stats ten).Tenant.s_retries;
  Server.stop server

let test_retry_budget_exhausted () =
  (* a fault that never stops firing must surface as the typed exception,
     after exactly policy.max_retries extra attempts *)
  let calls = Atomic.make 0 in
  let exec ~tenant:_ ~fallback:_ () =
    Atomic.incr calls;
    raise (Faults.Injected { kind = Faults.Dict_corrupt; site = "test" })
  in
  let policy = { Tenant.default_policy with Tenant.max_retries = 2 } in
  let server = Server.create ~workers:1 ~default_policy:policy ~exec () in
  (match Server.submit server ~tenant:"t" () with
  | Error (Faults.Injected _) -> ()
  | Ok _ -> Alcotest.fail "expected the injected fault to surface"
  | Error e -> Alcotest.fail ("wrong error: " ^ Printexc.to_string e));
  Alcotest.(check int) "1 attempt + 2 retries" 3 (Atomic.get calls);
  Server.stop server

let test_breaker_fallback () =
  let exec ~tenant:_ ~fallback () =
    if fallback then "fallback" else failwith "primary down"
  in
  let policy =
    { Tenant.default_policy with
      Tenant.breaker_threshold = 3;
      breaker_cooldown_ms = 60_000. }
  in
  let server = Server.create ~workers:1 ~default_policy:policy ~exec () in
  for i = 1 to 3 do
    match Server.submit server ~tenant:"t" () with
    | Error (Failure _) -> ()
    | _ -> Alcotest.fail (Printf.sprintf "submit %d: expected primary failure" i)
  done;
  (* threshold reached: the tenant now rides the fallback engine *)
  (match Server.submit server ~tenant:"t" () with
  | Ok o ->
    Alcotest.(check string) "served by fallback" "fallback" o.Server.value;
    Alcotest.(check bool) "flagged as fallback" true o.Server.via_fallback
  | Error e -> Alcotest.fail (Printexc.to_string e));
  let ten = Option.get (Server.tenant server "t") in
  let ts = Tenant.stats ten in
  Alcotest.(check bool) "breaker open" true ts.Tenant.s_breaker_open;
  Alcotest.(check int) "fallback counted" 1 ts.Tenant.s_fallbacks;
  (* other tenants' breakers are independent *)
  (match Server.submit server ~tenant:"fresh" () with
  | Error (Failure _) -> ()
  | _ -> Alcotest.fail "fresh tenant should still probe the primary");
  Server.stop server

(* ------------------------------------------------------------------ *)
(* Snapshot-isolated ingest + per-table cache invalidation             *)
(* ------------------------------------------------------------------ *)

let two_table_db ?settings () =
  let db = Db.create ?settings () in
  Db.load_table db "a"
    (Helpers.rel [ "x"; "grp" ]
       [ Helpers.ints [| 1; 2; 3; 4 |]; Helpers.ints [| 0; 1; 0; 1 |] ]);
  Db.load_table db "b"
    (Helpers.rel [ "y" ] [ Helpers.ints [| 10; 20 |] ]);
  db

(* the cache stands down while faults are armed, so disarm them for these *)
let with_clean_cache f () =
  let refault = Faults.armed () in
  Faults.disarm ();
  Fun.protect ~finally:(fun () -> if refault then Faults.arm_from_env ()) f

let q_a = "SELECT SUM(x) AS s FROM a"

let test_cache_survives_unrelated_ingest =
  with_clean_cache (fun () ->
      let db = two_table_db () in
      let r1 = Db.execute db q_a in
      ignore (Db.execute db q_a);
      (* ingest into b: a's entry must keep both plan and result *)
      Db.append_table db "b" (Helpers.rel [ "y" ] [ Helpers.ints [| 30 |] ]);
      let r3 = Db.execute db q_a in
      Helpers.check_rel "unrelated ingest preserves the cached result" r1 r3;
      let cs = Db.cache_stats db in
      Alcotest.(check int) "two full hits" 2 cs.Db.hits;
      Alcotest.(check int) "no plan-level rebinds" 0 cs.Db.plan_hits;
      Alcotest.(check int) "one miss (first run)" 1 cs.Db.misses;
      Alcotest.(check int) "entry retained" 1 cs.Db.entries)

let append_a db =
  Db.append_table db "a" (Helpers.rel [ "x"; "grp" ]
      [ Helpers.ints [| 10 |]; Helpers.ints [| 0 |] ])

(* A shape {!Planner.analyze_ivm} rejects (DISTINCT below the aggregate):
   every stale read binds the cached template and re-executes. *)
let q_distinct =
  "WITH d AS (SELECT DISTINCT x, grp FROM a) SELECT SUM(x) AS s FROM d"

let test_cache_plan_reuse_on_append =
  with_clean_cache (fun () ->
      let db = two_table_db () in
      (match Planner.analyze_ivm (Db.plan db q_distinct) with
      | Ok _ -> Alcotest.fail "expected a shape the delta engine rejects"
      | Error _ -> ());
      ignore (Db.execute db q_distinct);
      let before = Db.cache_stats db in
      List.iteri
        (fun i expected ->
          append_a db;
          let r = Db.execute db q_distinct in
          Alcotest.(check (list string))
            "re-executed result sees the appended rows"
            [ expected ] (Relation.canonical ~digits:0 r);
          Helpers.check_rel "stale read answers as a fresh snapshot"
            (Db.execute (Db.snapshot db) q_distinct) r;
          let cs = Db.cache_stats db in
          Alcotest.(check int) "append reuses the bound plan" (i + 1)
            cs.Db.plan_hits;
          Alcotest.(check int) "no new miss" 1 cs.Db.misses;
          Alcotest.(check int) "no delta refresh" 0 cs.Db.delta_refreshes;
          (* each stale read binds the cached template, no replan *)
          Alcotest.(check int) "template bound"
            (before.Db.bind_hits + i + 1)
            cs.Db.bind_hits;
          Alcotest.(check int) "no cold template" before.Db.bind_misses
            cs.Db.bind_misses;
          Alcotest.(check int) "no new template" before.Db.plan_entries
            cs.Db.plan_entries;
          Alcotest.(check int) "entry updated in place" before.Db.entries
            cs.Db.entries)
        (* the appended 10 is a duplicate after the first append *)
        [ "20"; "20" ];
      (* the re-stamped entry is a full hit again *)
      ignore (Db.execute db q_distinct);
      Alcotest.(check int) "hit after re-stamp" 1 (Db.cache_stats db).Db.hits)

(* A maintainable shape: its first stale read builds the entry's view
   (counted as a recompute), later stale reads apply the appended rows by
   delta — no bind, no miss. *)
let test_cache_delta_on_append =
  with_clean_cache (fun () ->
      let db = two_table_db () in
      ignore (Db.execute db q_a);
      append_a db;
      let r1 = Db.execute db q_a in
      Alcotest.(check (list string))
        "first stale read sees the appended rows" [ "20" ]
        (Relation.canonical ~digits:0 r1);
      let before = Db.cache_stats db in
      Alcotest.(check int) "first stale read recomputes" 1
        before.Db.plan_hits;
      append_a db;
      let r2 = Db.execute db q_a in
      Alcotest.(check (list string))
        "refreshed result sees the appended rows" [ "30" ]
        (Relation.canonical ~digits:0 r2);
      Helpers.check_rel "stale read answers as a fresh snapshot"
        (Db.execute (Db.snapshot db) q_a) r2;
      let cs = Db.cache_stats db in
      Alcotest.(check int) "no new miss" 1 cs.Db.misses;
      Alcotest.(check int) "entry updated in place" before.Db.entries
        cs.Db.entries;
      Alcotest.(check int) "one delta refresh"
        (before.Db.delta_refreshes + 1)
        cs.Db.delta_refreshes;
      Alcotest.(check int) "no recompute" before.Db.plan_hits cs.Db.plan_hits;
      Alcotest.(check int) "no template bound" before.Db.bind_hits
        cs.Db.bind_hits;
      Alcotest.(check int) "entry holds its view" 1 cs.Db.maintained_entries;
      ignore (Db.execute db q_a);
      Alcotest.(check int) "hit after refresh" 1 (Db.cache_stats db).Db.hits)

let test_cache_recompute_without_plancache =
  with_clean_cache (fun () ->
      let settings = { Settings.default with plancache = false } in
      let db = two_table_db ~settings () in
      ignore (Db.execute db q_a);
      append_a db;
      let r = Db.execute db q_a in
      Alcotest.(check (list string))
        "replanned result sees the appended rows"
        [ "20" ] (Relation.canonical ~digits:0 r);
      Helpers.check_rel "stale read answers as a fresh snapshot"
        (Db.execute (Db.snapshot db) q_a) r;
      let cs = Db.cache_stats db in
      Alcotest.(check int) "stale read counted as a recompute" 1
        cs.Db.plan_hits;
      Alcotest.(check int) "no template bound" 0 cs.Db.bind_hits;
      Alcotest.(check int) "no template planned" 0 cs.Db.bind_misses)

let test_cache_dropped_on_replace =
  with_clean_cache (fun () ->
      let db = two_table_db () in
      ignore (Db.execute db q_a);
      (* replace may change the schema: the entry must be dropped outright *)
      Db.load_table db "a"
        (Helpers.rel [ "x"; "grp" ]
           [ Helpers.ints [| 7 |]; Helpers.ints [| 0 |] ]);
      let r = Db.execute db q_a in
      Alcotest.(check (list string))
        "fresh plan over the replaced table" [ "7" ]
        (Relation.canonical ~digits:0 r);
      let cs = Db.cache_stats db in
      Alcotest.(check int) "replace forces a miss" 2 cs.Db.misses;
      Alcotest.(check int) "no plan reuse across replace" 0 cs.Db.plan_hits)

let test_tenant_cache_quota =
  with_clean_cache (fun () ->
      let db = two_table_db () in
      let run owner sql = ignore (Db.execute ~owner ~cache_quota:2 db sql) in
      run "small" "SELECT SUM(x) AS s FROM a";
      run "small" "SELECT SUM(grp) AS s FROM a";
      run "small" "SELECT SUM(y) AS s FROM b";
      (* quota 2: the third insert evicted one of small's earlier entries *)
      let cs = Db.cache_stats db in
      Alcotest.(check int) "quota evicted the tenant's own LRU entry" 1
        cs.Db.evictions;
      Alcotest.(check int) "tenant holds at most its quota" 2 cs.Db.entries)

(* One deadline rule for stored results: a spent budget trips before a
   fresh result is served, whether a cache entry or a registered view
   holds it. *)
let test_deadline_on_stored_results =
  with_clean_cache (fun () ->
      let db = two_table_db () in
      let q_view = "SELECT SUM(y) AS s FROM b" in
      (match Db.register_view db ~name:"vb" q_view with
      | Ok () -> ()
      | Error e -> Alcotest.failf "register_view: %s" e);
      ignore (Db.execute db q_a);
      List.iter
        (fun (what, sql) ->
          ignore (Db.execute db sql);
          (match Db.execute ~timeout_ms:0 db sql with
          | exception Guard.Trip { reason = Guard.Timeout; _ } -> ()
          | _ -> Alcotest.failf "%s: served past a 0 ms deadline" what);
          Alcotest.(check (list string))
            (what ^ ": unguarded read still served")
            (Relation.canonical ~digits:0 (Db.execute (Db.snapshot db) sql))
            (Relation.canonical ~digits:0 (Db.execute db sql)))
        [ ("fresh entry", q_a); ("registered view", q_view) ];
      let cs = Db.cache_stats db in
      Alcotest.(check int) "entry stayed fresh" 0 cs.Db.plan_hits;
      Alcotest.(check int) "view stayed fresh" 0 cs.Db.view_recomputes)

let test_snapshot_pin =
  with_clean_cache (fun () ->
      let db = two_table_db () in
      let before = Db.snapshot db in
      Db.append_table db "a"
        (Helpers.rel [ "x"; "grp" ]
           [ Helpers.ints [| 100 |]; Helpers.ints [| 1 |] ]);
      Alcotest.(check (list string))
        "pinned snapshot still sees the old version" [ "10" ]
        (Relation.canonical ~digits:0 (Db.execute before q_a));
      Alcotest.(check (list string))
        "live handle sees the append" [ "110" ]
        (Relation.canonical ~digits:0 (Db.execute db q_a)))

let test_guard_isolation () =
  (* two concurrent queries on separate domains: a 0ms-deadline guard must
     trip its own query and leave the neighbour's untouched — the DLS
     refactor's whole point *)
  let db = two_table_db () in
  let victim =
    Domain.spawn (fun () ->
        match Db.execute ~timeout_ms:0 db q_a with
        | exception Guard.Trip { reason = Guard.Timeout; _ } -> `Tripped
        | _ -> `Survived)
  in
  let bystander =
    Domain.spawn (fun () -> Relation.canonical ~digits:0 (Db.execute db q_a))
  in
  Alcotest.(check bool) "guarded query tripped" true
    (Domain.join victim = `Tripped);
  Alcotest.(check (list string))
    "unguarded neighbour unaffected" [ "10" ] (Domain.join bystander)

(* ------------------------------------------------------------------ *)
(* Typed exit codes                                                   *)
(* ------------------------------------------------------------------ *)

let test_exit_codes () =
  let code_of exn =
    match Pytond.Errors.of_exn exn with
    | Some e -> Pytond.Errors.exit_code e
    | None -> Alcotest.fail "exception did not classify"
  in
  Alcotest.(check int) "timeout -> 2" 2
    (code_of (Guard.Trip { reason = Guard.Timeout; detail = "t" }));
  Alcotest.(check int) "row budget -> 2" 2
    (code_of (Guard.Trip { reason = Guard.Row_budget; detail = "t" }));
  Alcotest.(check int) "overloaded -> 3" 3
    (code_of (Server.Overloaded { scope = "server"; retry_after_ms = 7 }));
  Alcotest.(check int) "plan error -> 1" 1
    (code_of (Sql_parse.Parse_error "nope"));
  Alcotest.(check int) "escaped fault -> 1" 1
    (code_of (Faults.Injected { kind = Faults.Dict_corrupt; site = "s" }))

(* ------------------------------------------------------------------ *)
(* Concurrent soak                                                    *)
(* ------------------------------------------------------------------ *)

(* Boolean flavour of Helpers.check_rows_close: the soak compares each
   concurrent result against several candidate snapshots, so a mismatch is
   "try the next snapshot", not an immediate failure. *)
let rows_close (expected : string list) (actual : string list) : bool =
  let close a b =
    String.equal a b
    ||
    match (float_of_string_opt a, float_of_string_opt b) with
    | Some x, Some y ->
      Float.abs (x -. y)
      <= 0.0016 +. (1e-6 *. Float.max (Float.abs x) (Float.abs y))
    | _ -> false
  in
  let row_close ra rb =
    let ca = String.split_on_char '|' ra in
    let cb = String.split_on_char '|' rb in
    List.length ca = List.length cb && List.for_all2 close ca cb
  in
  List.length expected = List.length actual
  && List.for_all2 row_close expected actual

let n_clients = 8
let queries_per_client = 26 (* 8 * 26 = 208 total *)
let n_appends = 3

let test_soak () =
  let db = Tpch.Dbgen.make_db 0.005 in
  (* compile the Python sources once; appends preserve schemas so the SQL
     stays valid across every snapshot *)
  let qs =
    List.map
      (fun q ->
        ( q,
          Pytond.compile ~dialect:"hyper" ~db ~source:(Tpch.Queries.find q)
            ~fname:"query" () ))
      [ "q1"; "q3"; "q12" ]
  in
  let batch =
    let li = Catalog.relation (Db.catalog db) "lineitem" in
    Relation.take li (Array.init (min 64 (Relation.n_rows li)) Fun.id)
  in
  (* reference handles: one per catalog version the soak can expose *)
  let snaps_lock = Mutex.create () in
  let snaps = ref [ Db.snapshot db ] in
  let exec ~tenant ~fallback sql =
    let backend = if fallback then Db.Vectorized else Db.Compiled in
    Db.execute ~threads:2 ~backend ~owner:tenant.Tenant.name db sql
  in
  let policy =
    { Tenant.default_policy with
      Tenant.max_in_flight = 6;
      max_retries = 3;
      breaker_threshold = 8 }
  in
  let server =
    Server.create ~workers:3 ~queue_cap:16 ~default_policy:policy ~exec ()
  in
  (* Simulated keeps chunk dispatch (and its injection points) inline, so
     the soak's domain population stays bounded at clients + workers *)
  Helpers.with_parallel Parallel.Simulated @@ fun () ->
  Faults.arm ~seed:20260808 ();
  let results = Array.make n_clients [] in
  let typed_errors = Atomic.make 0 in
  let untyped = ref [] in
  let untyped_lock = Mutex.create () in
  let overloads = Atomic.make 0 in
  Fun.protect ~finally:Faults.arm_from_env (fun () ->
      let client ci () =
        for i = 0 to queries_per_client - 1 do
          let qname, sql = List.nth qs ((ci + i) mod List.length qs) in
          let tenant = "tenant" ^ string_of_int (ci mod 4) in
          let rec go tries =
            match Server.submit server ~tenant sql with
            | Ok o ->
              results.(ci) <-
                (qname, Relation.canonical ~digits:3 o.Server.value)
                :: results.(ci)
            | Error (Server.Overloaded { retry_after_ms; _ }) ->
              Atomic.incr overloads;
              if tries < 20 then begin
                Unix.sleepf (float_of_int (max 1 retry_after_ms) /. 1000.);
                go (tries + 1)
              end
              else Atomic.incr typed_errors
            | Error e -> (
              match Pytond.Errors.of_exn e with
              | Some _ -> Atomic.incr typed_errors
              | None ->
                Mutex.lock untyped_lock;
                untyped := Printexc.to_string e :: !untyped;
                Mutex.unlock untyped_lock)
          in
          go 0
        done
      in
      let writer () =
        for _ = 1 to n_appends do
          Unix.sleepf 0.08;
          Db.append_table db "lineitem" batch;
          Mutex.lock snaps_lock;
          snaps := Db.snapshot db :: !snaps;
          Mutex.unlock snaps_lock
        done
      in
      let doms =
        Domain.spawn writer :: List.init n_clients (fun ci -> Domain.spawn (client ci))
      in
      List.iter Domain.join doms;
      Server.stop server);
  (* ---- assertions ---- *)
  Alcotest.(check (list string)) "no untyped escapes" [] !untyped;
  let s = Server.stats server in
  Alcotest.(check bool) "queue stayed within its bound" true
    (s.Server.max_depth <= 16);
  let answered = Array.fold_left (fun n l -> n + List.length l) 0 results in
  Alcotest.(check int) "every query answered or typed-failed"
    (n_clients * queries_per_client)
    (answered + Atomic.get typed_errors);
  Alcotest.(check bool) "soak actually completed work" true (answered > 0);
  (* differential: serial references on every pinned snapshot, faults off *)
  let references =
    List.concat_map
      (fun snap ->
        List.map
          (fun (qname, sql) ->
            (qname, Relation.canonical ~digits:3 (Db.execute ~backend:Db.Compiled snap sql)))
          qs)
      !snaps
  in
  Array.iteri
    (fun ci lst ->
      List.iter
        (fun (qname, rows) ->
          let ok =
            List.exists
              (fun (rq, rrows) -> rq = qname && rows_close rrows rows)
              references
          in
          if not ok then
            Alcotest.fail
              (Printf.sprintf
                 "client %d: %s result matches no catalog snapshot (%d refs)"
                 ci qname (List.length references)))
        lst)
    results

let suites =
  [ ( "server",
      [ tc "queue shedding with retry-after" test_queue_shed;
        tc "per-tenant in-flight cap" test_tenant_cap;
        tc "transient retry succeeds" test_retry_transient;
        tc "retry budget exhausts to typed error" test_retry_budget_exhausted;
        tc "circuit breaker falls back" test_breaker_fallback ] );
    ( "server-cache",
      [ tc "entries survive unrelated ingest" test_cache_survives_unrelated_ingest;
        tc "append reuses plan, re-executes" test_cache_plan_reuse_on_append;
        tc "append refreshes a maintainable entry by delta"
          test_cache_delta_on_append;
        tc "append recomputes without plan cache"
          test_cache_recompute_without_plancache;
        tc "replace drops entries" test_cache_dropped_on_replace;
        tc "per-tenant cache quota" test_tenant_cache_quota;
        tc "0 ms deadline trips on stored results"
          test_deadline_on_stored_results ] );
    ( "server-snapshot",
      [ tc "pinned snapshot isolated from ingest" test_snapshot_pin;
        tc "guards are domain-local" test_guard_isolation ] );
    ("server-exit-codes", [ tc "typed exit codes" test_exit_codes ]);
    ("server-soak", [ Alcotest.test_case "concurrent mixed soak" `Slow test_soak ])
  ]
