(* pytond_server: a long-lived multi-tenant query service over one shared
   catalog.

   Requests arrive on stdin, one per line:

     TENANT<TAB>@qN           run built-in TPC-H query N through the full
                              PyTond pipeline (Python -> SQL -> engine)
     TENANT<TAB>SELECT ...    run raw SQL directly on the engine
     TENANT<TAB>.view N SQL   register SQL as materialized view N (owned
                              by TENANT, charged against its view quota);
                              executions of the same SQL are then served
                              from the view, incrementally refreshed
     TENANT<TAB>.view N       refresh-if-stale and print view N
     .stats                   print server, cache, view and per-tenant
                              counters
     .quit                    drain and exit

   Every request goes through admission control (bounded queue + the
   tenant's in-flight cap — excess load is shed with a typed `overloaded`
   line carrying a retry-after hint), executes against a pinned catalog
   snapshot under the tenant's Guard budgets, retries transient faults with
   jittered backoff, and falls back to the interpreter baseline when the
   tenant's circuit breaker is open.

   --demo runs a self-driving mixed workload (no stdin) and prints the
   final stats — a smoke test for the whole admission/retry/breaker path.
   --stream N runs the live-dashboard demo instead: q1 and q3 are
   registered as materialized views, then N rounds of lineitem appends
   interleave with dashboard reads served by incremental delta refreshes.

   Example:
     dune exec bin/pytond_server.exe -- --sf 0.01 --workers 4 --demo
     dune exec bin/pytond_server.exe -- --sf 0.01 --stream 5
     printf 'acme\t@q6\n.stats\n.quit\n' | dune exec bin/pytond_server.exe --
*)

open Cmdliner

type request =
  | Tpch_query of string
  | Raw_sql of string
  | View_register of string * string (* view name, SQL *)
  | View_read of string

let status_rel msg =
  Sqldb.Relation.create [| "status" |] [| Sqldb.Column.of_strings [| msg |] |]

let exec_request ~db ~backend ~threads ~(tenant : Sqldb.Tenant.t) ~fallback req =
  let policy = tenant.Sqldb.Tenant.policy in
  let timeout_ms = policy.Sqldb.Tenant.timeout_ms in
  let row_budget = policy.Sqldb.Tenant.row_budget in
  let cache_quota = policy.Sqldb.Tenant.cache_quota in
  let plan_quota = Sqldb.Tenant.effective_plan_quota policy in
  let owner = tenant.Sqldb.Tenant.name in
  match req with
  | Tpch_query q ->
    let source = Tpch.Queries.find q in
    if fallback then Pytond.run_python ~db ~source ~fname:"query" ()
    else
      Pytond.run ~backend ~threads ?timeout_ms ?row_budget ~db ~source
        ~fname:"query" ()
  | Raw_sql sql ->
    (* the vectorized engine is the conservative fallback for raw SQL *)
    let backend = if fallback then Pytond.Vectorized else backend in
    Sqldb.Db.execute ~threads ~backend ?timeout_ms ?row_budget ~owner
      ?cache_quota ?plan_quota db sql
  | View_register (name, sql) -> (
    let quota = Sqldb.Tenant.effective_view_quota policy in
    match
      Sqldb.Db.register_view ~owner ?quota ?timeout_ms ?row_budget db ~name
        sql
    with
    | Ok () -> status_rel (Printf.sprintf "view %s registered" name)
    | Error e -> failwith e)
  | View_read name ->
    Sqldb.Db.refresh ?timeout_ms ?row_budget ~owner db name

let transient = function
  | Sqldb.Faults.Injected _ -> true
  | _ -> false

let parse_line line =
  match String.index_opt line '\t' with
  | None -> None
  | Some i ->
    let tenant = String.sub line 0 i in
    let body =
      String.trim (String.sub line (i + 1) (String.length line - i - 1))
    in
    if tenant = "" || body = "" then None
    else if body.[0] = '@' then
      Some (tenant, Tpch_query (String.sub body 1 (String.length body - 1)))
    else if
      String.length body >= 5 && String.lowercase_ascii (String.sub body 0 5) = ".view"
    then
      let rest = String.trim (String.sub body 5 (String.length body - 5)) in
      match String.index_opt rest ' ' with
      | None -> if rest = "" then None else Some (tenant, View_read rest)
      | Some j ->
        let name = String.sub rest 0 j in
        let sql = String.trim (String.sub rest j (String.length rest - j)) in
        Some (tenant, View_register (name, sql))
    else Some (tenant, Raw_sql body)

let print_outcome tenant (o : _ Sqldb.Server.outcome) =
  Printf.printf "%s: %d rows%s%s (queued %.1fms)\n%!" tenant
    (Sqldb.Relation.n_rows o.Sqldb.Server.value)
    (if o.Sqldb.Server.via_fallback then " [fallback]" else "")
    (if o.Sqldb.Server.attempts > 1 then
       Printf.sprintf " [%d attempts]" o.Sqldb.Server.attempts
     else "")
    o.Sqldb.Server.queued_ms

let print_error tenant e =
  match Pytond.Errors.of_exn e with
  | Some err ->
    Printf.printf "%s: ERROR %s (exit-code %d)\n%!" tenant
      (Pytond.Errors.to_string err)
      (Pytond.Errors.exit_code err)
  | None -> Printf.printf "%s: ERROR %s\n%!" tenant (Printexc.to_string e)

(* Server counters plus engine cache/view counters, with the per-tenant
   cache and view slices the streaming experiments read hit rates from.
   A stale cache entry catches up by a delta refresh when its plan is
   maintainable; "recomputes after an append" counts the entries that are
   not, plus each maintainable entry's one view build. Delta refreshes are
   counted once for registered views and cache entries together. *)
let print_full_stats db server =
  let s = Sqldb.Server.stats server in
  print_string (Sqldb.Server.stats_to_string s);
  let cs = Sqldb.Db.cache_stats db in
  Printf.printf
    "cache: %d hits, %d recomputes after an append, %d misses, %d entries \
     (%d refreshed by delta); views: %d registered, %d hits, %d \
     recomputes; delta refreshes (views and entries): %d\n%!"
    cs.Sqldb.Db.hits cs.Sqldb.Db.plan_hits cs.Sqldb.Db.misses
    cs.Sqldb.Db.entries cs.Sqldb.Db.maintained_entries cs.Sqldb.Db.views
    cs.Sqldb.Db.view_hits cs.Sqldb.Db.view_recomputes
    cs.Sqldb.Db.delta_refreshes;
  Printf.printf
    "plancache: %d bind hits, %d cold plans, %d guard trips, %d shapes \
     cached (%s)\n%!"
    cs.Sqldb.Db.bind_hits cs.Sqldb.Db.bind_misses cs.Sqldb.Db.guard_trips
    cs.Sqldb.Db.plan_entries
    (if db.Sqldb.Db.settings.plancache then "enabled" else "disabled");
  List.iter
    (fun (name, _) ->
      let h, ph, m, vh, dr, bh = Sqldb.Db.owner_stats db name in
      Printf.printf
        "  tenant %-12s cache: hits=%d recomputes=%d misses=%d view_hits=%d \
         delta_refreshes=%d bind_hits=%d\n%!"
        name h ph m vh dr bh)
    (List.sort compare s.Sqldb.Server.tenants)

(* Self-driving smoke workload: two tenants hammer cached TPC-H queries
   while appends land in lineitem, demonstrating shed/retry/snapshot
   behaviour end to end. *)
let run_demo db server =
  let queries = [ "@q6"; "@q1"; "@q6"; "@q3"; "@q6"; "@q1" ] in
  let batch =
    let li = Sqldb.Catalog.relation (Sqldb.Db.catalog db) "lineitem" in
    let n = min 50 (Sqldb.Relation.n_rows li) in
    Sqldb.Relation.take li (Array.init n Fun.id)
  in
  List.iteri
    (fun i q ->
      let tenant = if i mod 2 = 0 then "alpha" else "beta" in
      let req = Tpch_query (String.sub q 1 (String.length q - 1)) in
      (match Sqldb.Server.submit server ~tenant req with
      | Ok o -> print_outcome tenant o
      | Error e -> print_error tenant e);
      if i = 2 then begin
        Sqldb.Db.append_table db "lineitem" batch;
        Printf.printf "-- appended %d rows to lineitem\n%!"
          (Sqldb.Relation.n_rows batch)
      end)
    queries;
  print_full_stats db server

let run_stream db server rounds =
  (* Live dashboards under write traffic: q1 and q3 become materialized
     views, every round appends ~1% of lineitem, and the dashboard reads
     are served by incremental delta refreshes instead of re-execution. *)
  let dash = "dash" in
  List.iter
    (fun q ->
      let sql = Pytond.compile ~db ~source:(Tpch.Queries.find q) ~fname:"query" () in
      match Sqldb.Server.submit server ~tenant:dash (View_register (q, sql)) with
      | Ok _ -> Printf.printf "-- registered view %s\n%!" q
      | Error e -> print_error dash e)
    [ "q1"; "q3" ];
  let li = Sqldb.Catalog.relation (Sqldb.Db.catalog db) "lineitem" in
  let batch_n = max 1 (Sqldb.Relation.n_rows li / 100) in
  let batch = Sqldb.Relation.take li (Array.init batch_n Fun.id) in
  for r = 1 to rounds do
    Sqldb.Db.append_table db "lineitem" batch;
    Printf.printf "round %d: +%d lineitem rows\n%!" r batch_n;
    List.iter
      (fun q ->
        let t0 = Unix.gettimeofday () in
        match Sqldb.Server.submit server ~tenant:dash (View_read q) with
        | Ok o ->
          Printf.printf "  %s: %d rows in %.2fms\n%!" q
            (Sqldb.Relation.n_rows o.Sqldb.Server.value)
            (1000. *. (Unix.gettimeofday () -. t0))
        | Error e -> print_error dash e)
      [ "q1"; "q3" ]
  done;
  print_full_stats db server

let serve dataset sf workers queue_cap backend threads max_in_flight timeout_ms
    row_budget cache_quota plan_quota retries breaker_threshold demo stream =
  let db =
    match dataset with
    | "tpch" -> Tpch.Dbgen.make_db sf
    | other -> (
      let db = Sqldb.Db.create () in
      match List.find_opt (fun (n, _, _) -> n = other) Workloads.all with
      | Some (_, load, _) ->
        load db;
        db
      | None ->
        prerr_endline ("unknown dataset " ^ other);
        exit 1)
  in
  let default_policy =
    { Sqldb.Tenant.default_policy with
      Sqldb.Tenant.max_in_flight;
      timeout_ms;
      row_budget;
      cache_quota;
      plan_quota;
      max_retries = retries;
      breaker_threshold }
  in
  let exec ~tenant ~fallback req =
    exec_request ~db ~backend ~threads ~tenant ~fallback req
  in
  let server =
    Sqldb.Server.create ~workers ~queue_cap ~default_policy ~transient ~exec ()
  in
  Fun.protect
    ~finally:(fun () -> Sqldb.Server.stop server)
    (fun () ->
      if demo then run_demo db server
      else if stream > 0 then run_stream db server stream
      else begin
        Printf.eprintf
          "pytond_server: %d workers, queue cap %d; TENANT<TAB>@qN | \
           TENANT<TAB>SQL | TENANT<TAB>.view N [SQL] | .stats | .quit\n%!"
          workers queue_cap;
        let quit = ref false in
        while not !quit do
          match input_line stdin with
          | exception End_of_file -> quit := true
          | ".quit" -> quit := true
          | ".stats" -> print_full_stats db server
          | line when String.trim line = "" -> ()
          | line -> (
            match parse_line line with
            | None ->
              prerr_endline "expected TENANT<TAB>@qN, TENANT<TAB>SQL or TENANT<TAB>.view N [SQL]"
            | Some (tenant, req) -> (
              match Sqldb.Server.submit server ~tenant req with
              | Ok o -> print_outcome tenant o
              | Error e -> print_error tenant e))
        done
      end)

let () =
  let dataset =
    Arg.(value & opt string "tpch" & info [ "dataset" ] ~doc:"tpch or a workload name")
  in
  let sf = Arg.(value & opt float 0.01 & info [ "sf" ] ~doc:"TPC-H scale factor") in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~doc:"worker domains")
  in
  let queue_cap =
    Arg.(
      value & opt int 32
      & info [ "queue-cap" ] ~doc:"admission queue bound (excess is shed)")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("duckdb", Pytond.Vectorized); ("hyper", Pytond.Compiled);
                    ("lingodb", Pytond.Lingo) ]) Pytond.Compiled
      & info [ "backend" ])
  in
  let threads = Arg.(value & opt int 1 & info [ "threads" ] ~doc:"threads per query") in
  let max_in_flight =
    Arg.(
      value & opt int 4
      & info [ "max-in-flight" ] ~doc:"per-tenant concurrent query cap")
  in
  let timeout_ms =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~doc:"per-tenant query deadline")
  in
  let row_budget =
    Arg.(
      value & opt (some int) None
      & info [ "row-budget" ] ~doc:"per-tenant materialized-row cap")
  in
  let cache_quota =
    Arg.(
      value & opt (some int) None
      & info [ "cache-quota" ] ~doc:"per-tenant result-cache entry quota")
  in
  let plan_quota =
    Arg.(
      value & opt (some int) None
      & info [ "plan-quota" ]
          ~doc:"per-tenant plan-cache template quota (default: cache quota)")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~doc:"retry budget for transient faults")
  in
  let breaker_threshold =
    Arg.(
      value & opt int 5
      & info [ "breaker-threshold" ]
          ~doc:"consecutive failures before falling back to the interpreter")
  in
  let demo =
    Arg.(value & flag & info [ "demo" ] ~doc:"run a self-driving mixed workload")
  in
  let stream =
    Arg.(
      value & opt int 0
      & info [ "stream" ]
          ~doc:
            "run the streaming-dashboard demo for this many append rounds \
             (materialized views refreshed incrementally)")
  in
  let cmd =
    Cmd.v
      (Cmd.info "pytond_server" ~doc:"multi-tenant PyTond query service")
      Term.(
        const serve $ dataset $ sf $ workers $ queue_cap $ backend $ threads
        $ max_in_flight $ timeout_ms $ row_budget $ cache_quota $ plan_quota
        $ retries $ breaker_threshold $ demo $ stream)
  in
  exit (Cmd.eval cmd)
