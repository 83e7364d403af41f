(* PyTond benchmark harness: three workloads, host-normalized end-to-end
   metrics, and a traced run for per-layer metrics. See README.md for the
   workloads, the metrics and why they were chosen.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last stdout line is the result object; the line before it is the
   full report (config stamp, raw beside normalized values), also written
   to perfbench/out/. *)

open Perfbench_util
module Db = Sqldb.Db
module Relation = Sqldb.Relation
module Catalog = Sqldb.Catalog
module Parallel = Sqldb.Parallel
module Value = Sqldb.Value
module Column = Sqldb.Column

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let rec json_to_string = function
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s ->
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  | Bool b -> string_of_bool b
  | List l -> "[" ^ String.concat "," (List.map json_to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> json_to_string (Str k) ^ ":" ^ json_to_string v) kv)
    ^ "}"

(* ------------------------------------------------------------------ *)
(* Measurement context                                                 *)
(* ------------------------------------------------------------------ *)

(* Which loop a sample belongs to. End-to-end metrics come from [Req] and
   [Append] samples of untraced runs; a traced run alternates untraced
   rounds with [Traced] ones (and, on analytic-1t, [Two]-thread ones). *)
type group = Req | Append | Traced | Two

type sample = { kind : string; group : group; pass : int; t0 : float; t1 : float }

type ctx = {
  host : Hostnorm.series;
  mutable samples : sample list; (* newest first *)
  mutable current_pass : int;
  mutable tracer : Trace.t option; (* Some during traced rounds *)
  mutable request : int;
  words : (string, float list) Hashtbl.t; (* layer -> minor words per call *)
  counts : (string, float list) Hashtbl.t; (* per-request counters *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable empty_sums : int; (* responses passed only by the empty-sum rule *)
}

let new_ctx ~kind ~every =
  { host = Hostnorm.create ~kind ~every;
    samples = [];
    current_pass = 0;
    tracer = None;
    request = 0;
    words = Hashtbl.create 16;
    counts = Hashtbl.create 16;
    attempted = 0;
    failed = 0;
    failures = [];
    empty_sums = 0 }

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let count ctx name v = if ctx.tracer <> None then push ctx.counts name v

let fail ctx msg =
  ctx.failed <- ctx.failed + 1;
  if List.length ctx.failures < 10 then ctx.failures <- msg :: ctx.failures

(* One call into a layer: a span plus the minor-heap words it allocated,
   recorded only during traced rounds. *)
let layer ctx name f =
  match ctx.tracer with
  | None -> f ()
  | Some tr ->
    let w0 = Gc.minor_words () in
    let r = Trace.span tr ~request:ctx.request name f in
    push ctx.words name (Gc.minor_words () -. w0);
    r

(* One measured request. The host probe runs between requests, never inside
   one; a request that raises counts as failed and yields no sample. *)
let request ctx ~group ~kind f =
  Hostnorm.tick ctx.host;
  ctx.request <- ctx.request + 1;
  ctx.attempted <- ctx.attempted + 1;
  let t0 = now () in
  match
    match ctx.tracer with
    | None -> f ()
    | Some tr -> Trace.span tr ~request:ctx.request "request" f
  with
  | r ->
    let t1 = now () in
    ctx.samples <- { kind; group; pass = ctx.current_pass; t0; t1 } :: ctx.samples;
    Some r
  | exception e ->
    fail ctx (Printf.sprintf "%s: %s" kind (Printexc.to_string e));
    None

let norm_ms ctx s = Hostnorm.normalize ctx.host ~t0:s.t0 ~t1:s.t1 ((s.t1 -. s.t0) *. 1000.)
let raw_ms s = (s.t1 -. s.t0) *. 1000.

(* Run passes until [seconds] of wall time have elapsed and at least
   [min_passes] are done (a started pass always completes), then close the
   probe series. *)
let run_passes ?(min_passes = 1) ctx ~seconds pass_fn =
  let start = now () in
  while ctx.current_pass < min_passes || now () -. start < seconds do
    pass_fn ctx.current_pass;
    ctx.current_pass <- ctx.current_pass + 1
  done;
  Hostnorm.probe ctx.host

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type setup_timing = { total : float * float; gen : float * float; load : float * float }

(* Generate and load TPC-H at [sf] with one thread (steadier than the
   ingest's default of all cores). Timed with bracketing probes; returns the
   database and (normalized, raw) seconds for the whole and each part. *)
let setup_tpch ctx ~seed ~sf ~extra =
  (* Free the previous set-up's data but keep its memory mapped: after a
     compaction gave it back to the system, set-up times split into two
     modes 40% apart from run to run. *)
  Gc.full_major ();
  Hostnorm.probe ctx.host;
  let t0 = now () in
  let tables = Tpch.Dbgen.generate ~seed ~threads:1 sf in
  let t1 = now () in
  let db = Db.create () in
  Tpch.Dbgen.load ~threads:1 db tables;
  extra db;
  let t2 = now () in
  Hostnorm.probe ctx.host;
  let secs a b = (Hostnorm.normalize ctx.host ~t0:a ~t1:b (b -. a), b -. a) in
  (db, { total = secs t0 t2; gen = secs t0 t1; load = secs t1 t2 })

(* Set up [n] times and keep the last database: setup_s is the median.
   Earlier databases are dropped at once, so peak RSS counts one. *)
let repeated_setup ~n setup =
  let last = ref None in
  let runs =
    List.init n (fun _ ->
        last := None;
        let db, t = setup () in
        last := Some db;
        t)
  in
  let db = Option.get !last in
  let med f = Hostnorm.median (Array.of_list (List.map f runs)) in
  ( db,
    [ ("setup_s", (med (fun t -> fst t.total), med (fun t -> snd t.total)));
      ("dbgen.generate_s", (med (fun t -> fst t.gen), med (fun t -> snd t.gen)));
      ("db.load_s", (med (fun t -> fst t.load), med (fun t -> snd t.load))) ] )

(* ------------------------------------------------------------------ *)
(* Layer decomposition for traced requests                             *)
(* ------------------------------------------------------------------ *)

(* The five compile stages of Pytond.compile, called one by one. *)
let compile_traced ctx ~db ~dialect source =
  let m = layer ctx "frontend.parse" (fun () -> Frontend.Parser.parse_module source) in
  let f = Pytond.find_function m "query" in
  let f = layer ctx "frontend.anf" (fun () -> Frontend.Anf.normalize_func_def f) in
  let base = Translate.Context.of_catalog (Db.catalog db) in
  let tctx =
    match Pytond.decorator_of f with
    | Some d -> Translate.Context.of_decorator ~base d
    | None -> base
  in
  let ir = layer ctx "translate" (fun () -> Translate.Pandas_tr.translate ~ctx:tctx f) in
  let opt =
    layer ctx "optimizer" (fun () ->
        Pytond.optimize ~db ~level:Pytond.O4 { Pytond.func = f; ctx = tctx; ir })
  in
  count ctx "optimizer.rules_in" (float_of_int (List.length ir.Tondir.Ir.rules));
  count ctx "optimizer.rules_out" (float_of_int (List.length opt.Tondir.Ir.rules));
  let sql = layer ctx "sqlgen" (fun () -> Pytond.generate_sql ~dialect ~db opt) in
  count ctx "sqlgen.sql_bytes" (float_of_int (String.length sql));
  sql

(* Fingerprint, parse, plan and bind [sql] as Db.execute's cold path does. *)
let plan_traced ctx cat sql =
  let f = layer ctx "sql_shape.fingerprint" (fun () -> Sqldb.Sql_shape.fingerprint sql) in
  let params = f.Sqldb.Sql_shape.params in
  let ast = layer ctx "sql_parse" (fun () -> Sqldb.Sql_parse.parse f.Sqldb.Sql_shape.shape) in
  let tpl, _ = layer ctx "planner" (fun () -> Sqldb.Planner.plan_template cat ~params ast) in
  layer ctx "plan.bind" (fun () -> Sqldb.Plan.bind_query params tpl)

(* The cold Db.execute path, one layer call at a time. *)
let execute_traced ctx ~db ~backend ~threads sql =
  let cat = Catalog.pin (Db.catalog db) in
  let bq = plan_traced ctx cat sql in
  let r =
    match backend with
    | Db.Compiled ->
      layer ctx "exec_compiled" (fun () -> Sqldb.Exec_compiled.run_query ~threads cat bq)
    | _ ->
      let touched = ref 0 in
      let on_rows _ n = touched := !touched + n in
      let r =
        layer ctx "exec_vectorized" (fun () ->
            Sqldb.Exec_vectorized.run_query ~threads ~on_rows cat bq)
      in
      count ctx "exec_vectorized.rows_touched" (float_of_int !touched);
      r
  in
  count ctx "exec.rows_out" (float_of_int (Relation.n_rows r));
  r

(* Side probes after a traced request served by Db.execute: time the
   planning layers it ran internally on the same SQL. They are separate
   root spans, so they do not count toward the request's time. *)
let side_probes ctx ~db sql =
  ignore (plan_traced ctx (Catalog.pin (Db.catalog db)) sql)

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let canonical r = Relation.canonical ~digits:3 r

(* Compare a response with its reference; a missing reference (the oracle
   itself failed) is a failure too. A scalar SUM over no rows is NULL in SQL
   but 0.0 in Pandas; like the test suite's e2e-tpch q17/q19 cases, the
   check accepts that one difference, and counts it so the report shows it. *)
let check ctx ~what ~(expected : (string list, string) result) (got : Relation.t) =
  match expected with
  | Error e -> fail ctx (Printf.sprintf "%s: no reference (%s)" what e)
  | Ok exp -> (
    match (canonical got, exp) with
    | g, e when g = e -> ()
    | [ "NULL" ], [ "0.000" ] -> ctx.empty_sums <- ctx.empty_sums + 1
    | _ -> fail ctx (what ^ ": wrong result"))

let reference f = match f () with r -> Ok (canonical r) | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Source perturbation                                                 *)
(* ------------------------------------------------------------------ *)

(* Shift every quoted ISO date literal in a Python source by [days]. *)
let shift_dates ~days src =
  if days = 0 then src
  else begin
    let b = Buffer.create (String.length src) in
    let n = String.length src in
    let i = ref 0 in
    while !i < n do
      if
        src.[!i] = '\''
        && !i + 11 < n
        && src.[!i + 11] = '\''
        && Value.looks_like_iso_date (String.sub src (!i + 1) 10)
      then begin
        let d = Value.date_of_iso (String.sub src (!i + 1) 10) + days in
        Buffer.add_string b ("'" ^ Value.iso_of_date d ^ "'");
        i := !i + 12
      end
      else begin
        Buffer.add_char b src.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

let has_dates src = shift_dates ~days:1 src <> src

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; raw : float option; n : int option }

let m ?raw ?n name unit_ value = { name; unit_; value; raw; n }

type outcome = {
  kinds : (string * float * float) list; (* per-kind median latency: normalized, raw *)
  spans : Trace.span list;
  e2e : metric list; (* untraced run: end-to-end metrics *)
  layers : metric list; (* traced run: per-layer metrics *)
  extra : metric list; (* report-only figures *)
}

let samples_of ctx groups =
  List.rev (List.filter (fun s -> List.mem s.group groups) ctx.samples)

let arr f l = Array.of_list (List.map f l)

(* Latency percentiles over samples; a percentile without 10 samples
   beyond it is left out (the report says why). *)
let latency_metrics ctx reqs =
  let nv = arr (norm_ms ctx) reqs and rv = arr raw_ms reqs in
  let n = Array.length nv in
  List.filter_map
    (fun (p, name) ->
      match (Hostnorm.percentile ~p nv, Hostnorm.percentile ~p rv) with
      | Some v, Some r -> Some (m ~raw:r ~n name "ms" v)
      | _ -> None)
    [ (50., "latency_ms.p50"); (90., "latency_ms.p90"); (99., "latency_ms.p99") ]

let kind_medians ctx reqs =
  let kinds = List.sort_uniq compare (List.map (fun s -> s.kind) reqs) in
  List.map
    (fun k ->
      let ss = List.filter (fun s -> s.kind = k) reqs in
      (k, Hostnorm.median (arr (norm_ms ctx) ss), Hostnorm.median (arr raw_ms ss)))
    kinds

(* geomean over request kinds of each kind's median latency *)
let geomean_metric ctx reqs =
  let kinds = kind_medians ctx reqs in
  let g f = Hostnorm.geomean (arr f kinds) in
  m ~raw:(g (fun (_, _, r) -> r)) ~n:(List.length kinds) "geomean_ms" "ms" (g (fun (_, v, _) -> v))

(* median over passes of the summed request time (probes and checks
   between requests excluded) *)
let pass_metric ctx samples =
  let passes = List.sort_uniq compare (List.map (fun s -> s.pass) samples) in
  let per f p =
    List.fold_left (fun acc s -> if s.pass = p then acc +. f s else acc) 0. samples
    /. 1000.
  in
  let med f = Hostnorm.median (Array.of_list (List.map (per f) passes)) in
  m ~raw:(med raw_ms) ~n:(List.length passes) "pass_s" "s" (med (norm_ms ctx))

let throughput_metric ctx reqs =
  let busy f = List.fold_left (fun acc s -> acc +. f s) 0. reqs /. 1000. in
  let n = float_of_int (List.length reqs) in
  m ~raw:(n /. busy raw_ms) ~n:(List.length reqs) "throughput_qps" "1/s"
    (n /. busy (norm_ms ctx))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let end_to_end ctx ~setup ~reqs ~passes =
  let s, r = List.assoc "setup_s" setup in
  [ m ~raw:r "setup_s" "s" s; geomean_metric ctx reqs; pass_metric ctx passes ]
  @ List.filter (fun x -> x.name <> "latency_ms.p99") (latency_metrics ctx reqs)
  @ [ throughput_metric ctx reqs; m "peak_rss_mb" "MB" (peak_rss_mb ()) ]

(* Report-only figures: p99 where 10 samples lie beyond it, the failure
   ratio. *)
let extra_metrics ctx ~reqs =
  List.filter (fun x -> x.name = "latency_ms.p99") (latency_metrics ctx reqs)
  @ [ m ~n:ctx.attempted "failed_ratio" "ratio"
        (float_of_int ctx.failed /. float_of_int (max 1 ctx.attempted)) ]

(* ---- per-layer ---------------------------------------------------- *)

type stats_acc = {
  mutable hits : int;
  mutable reexec : int;
  mutable misses : int;
  mutable binds : int;
  mutable colds : int;
  mutable trips : int;
  mutable evictions : int;
  mutable deltas : int;
  mutable recomputes : int;
}

let new_acc () =
  { hits = 0; reexec = 0; misses = 0; binds = 0; colds = 0; trips = 0; evictions = 0;
    deltas = 0; recomputes = 0 }

(* Add the counter movement between two Db.cache_stats readings. *)
let add_stats acc (a : Db.cache_stats) (b : Db.cache_stats) =
  acc.hits <- acc.hits + b.hits - a.hits;
  acc.reexec <- acc.reexec + b.plan_hits - a.plan_hits;
  acc.misses <- acc.misses + b.misses - a.misses;
  acc.binds <- acc.binds + b.bind_hits - a.bind_hits;
  acc.colds <- acc.colds + b.bind_misses - a.bind_misses;
  acc.trips <- acc.trips + b.guard_trips - a.guard_trips;
  acc.evictions <- acc.evictions + b.evictions - a.evictions;
  acc.deltas <- acc.deltas + b.delta_refreshes - a.delta_refreshes;
  acc.recomputes <- acc.recomputes + b.view_recomputes - a.view_recomputes

(* How Db.execute served one request, from the counters it moved. *)
let serving_class (a : Db.cache_stats) (b : Db.cache_stats) =
  if b.view_hits > a.view_hits then "view"
  else if b.delta_refreshes > a.delta_refreshes || b.view_recomputes > a.view_recomputes
  then "delta"
  else if b.hits > a.hits then "hit"
  else if b.plan_hits > a.plan_hits then "reexec"
  else if b.guard_trips > a.guard_trips then "trip"
  else if b.bind_misses > a.bind_misses then "cold"
  else "bind"

(* Db.execute through the layer wrapper; in traced rounds the span is named
   after the serving class. *)
let execute_classified ctx db f =
  match ctx.tracer with
  | None -> f ()
  | Some tr ->
    let a = Db.cache_stats db in
    let r = layer ctx "db.execute" f in
    Trace.rename_last tr ("db.execute." ^ serving_class a (Db.cache_stats db));
    r

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let per_layer ctx ~setup ~(acc : stats_acc) ~speedup ~(spans : Trace.span list) =
  let selfs = Trace.self_times spans in
  let norm_self ((s : Trace.span), self) =
    Hostnorm.normalize ctx.host ~t0:s.t0 ~t1:s.t1 (self *. 1000.)
  in
  (* median per call of a layer's self time, in ms times [scale] *)
  let time ?(scale = 1.) name span_names unit_ =
    let ss = List.filter (fun ((s : Trace.span), _) -> List.mem s.name span_names) selfs in
    match ss with
    | [] -> m ~raw:0. ~n:0 name unit_ 0.
    | _ ->
      let med f = Hostnorm.median (arr f ss) *. scale in
      m ~raw:(med (fun (_, self) -> self *. 1000.)) ~n:(List.length ss) name unit_ (med norm_self)
  in
  (* mean per call over the values recorded under [keys] *)
  let mean tbl keys name unit_ scale =
    match List.concat_map (fun k -> Option.value ~default:[] (Hashtbl.find_opt tbl k)) keys with
    | [] -> m ~n:0 name unit_ 0.
    | l ->
      m ~n:(List.length l) name unit_
        (List.fold_left ( +. ) 0. l /. float_of_int (List.length l) *. scale)
  in
  let kwords keys name = mean ctx.words keys name "kwords" 0.001 in
  let counted key unit_ = mean ctx.counts [ key ] key unit_ 1. in
  let stage key ms_name = [ time ms_name [ key ] "ms"; kwords [ key ] (key ^ ".kwords") ] in
  let reads = acc.hits + acc.reexec + acc.misses in
  (* pass 0 is left out: its traced round runs first, on cold caches *)
  let after_first g = List.filter (fun s -> s.pass > 0) (samples_of ctx [ g ]) in
  let traced = after_first Traced and untraced = after_first Req in
  let mean_norm l =
    List.fold_left (fun a s -> a +. norm_ms ctx s) 0. l /. float_of_int (List.length l)
  in
  let overhead =
    if traced = [] || untraced = [] then 0. else mean_norm traced /. mean_norm untraced
  in
  let setup_layer k = let v, r = List.assoc k setup in m ~raw:r k "s" v in
  stage "frontend.parse" "frontend.parse_ms"
  @ stage "frontend.anf" "frontend.anf_ms"
  @ stage "translate" "translate.ms"
  @ stage "optimizer" "optimizer.ms"
  @ stage "sqlgen" "sqlgen.ms"
  @ [ counted "optimizer.rules_in" "count";
      counted "optimizer.rules_out" "count";
      counted "sqlgen.sql_bytes" "bytes";
      time ~scale:1000. "sql_shape.fingerprint_us" [ "sql_shape.fingerprint" ] "us";
      time "sql_parse.ms" [ "sql_parse" ] "ms";
      time "planner.ms" [ "planner" ] "ms";
      time ~scale:1000. "plan.bind_us" [ "plan.bind" ] "us" ]
  @ List.map
      (fun c -> time ("db.execute_ms." ^ c) [ "db.execute." ^ c ] "ms")
      [ "view"; "delta"; "hit"; "reexec"; "bind"; "trip"; "cold" ]
  @ [ m ~n:reads "db.result_hit_ratio" "ratio" (ratio acc.hits reads);
      m ~n:reads "db.reexec_ratio" "ratio" (ratio acc.reexec reads);
      m ~n:(acc.binds + acc.colds + acc.trips) "db.bind_hit_ratio" "ratio"
        (ratio acc.binds (acc.binds + acc.colds + acc.trips));
      m "db.evictions" "count" (float_of_int acc.evictions);
      m "matview.delta_refreshes" "count" (float_of_int acc.deltas);
      m "matview.recomputes" "count" (float_of_int acc.recomputes);
      time "exec_vectorized.ms" [ "exec_vectorized" ] "ms";
      time "exec_compiled.ms" [ "exec_compiled" ] "ms";
      counted "exec.rows_out" "rows";
      counted "exec_vectorized.rows_touched" "rows";
      kwords [ "exec_vectorized"; "exec_compiled" ] "exec.kwords";
      m "parallel.speedup" "x" speedup;
      time "db.append_ms" [ "db.append" ] "ms";
      time "matview.refresh_ms" [ "db.execute.delta" ] "ms";
      setup_layer "dbgen.generate_s";
      setup_layer "db.load_s";
      m ~n:(Array.length (Hostnorm.probes ctx.host)) "host.ref_ms" "ms"
        (Hostnorm.median (Hostnorm.probes ctx.host));
      m "trace.overhead" "x" overhead ]

(* ------------------------------------------------------------------ *)
(* Workload: analytic-1t                                               *)
(* ------------------------------------------------------------------ *)

(* All 22 TPC-H Pandas programs on both SQL backends at SF 0.02, each on
   a fresh snapshot so no cache is reused: the executors and Kernel do
   nearly all the work. One thread, and SF 0.02 rather than 0.05 so that a
   run holds ~30 samples of every program: at two threads and SF 0.05 the
   run-to-run spread was about 20% (README.md). The traced run still times
   every program at two threads for parallel.speedup. *)
let analytic ctx ~seed ~seconds ~traced =
  let db, setup =
    repeated_setup ~n:5 (fun () ->
        setup_tpch ctx ~seed ~sf:0.02 ~extra:(fun _ -> ()))
  in
  let programs =
    List.concat_map
      (fun (q, src) -> [ (q ^ "/duck", src, Db.Vectorized); (q ^ "/hyper", src, Db.Compiled) ])
      Tpch.Queries.all
  in
  let refs =
    List.map
      (fun (q, src) -> (q, reference (fun () -> Pytond.run_python ~db ~source:src ~fname:"query" ())))
      Tpch.Queries.all
  in
  let expected kind = List.assoc (List.hd (String.split_on_char '/' kind)) refs in
  let acc = new_acc () in
  let run ~threads ~group (kind, src, backend) =
    let snap = Db.snapshot db in
    let a = Db.cache_stats snap in
    let dialect = if backend = Db.Compiled then "hyper" else "duckdb" in
    let r =
      request ctx ~group ~kind (fun () ->
          match ctx.tracer with
          | None -> Pytond.run ~backend ~threads ~db:snap ~source:src ~fname:"query" ()
          | Some _ -> execute_traced ctx ~db:snap ~backend ~threads (compile_traced ctx ~db:snap ~dialect src))
    in
    if group = Req then add_stats acc a (Db.cache_stats snap);
    Option.iter (check ctx ~what:kind ~expected:(expected kind)) r
  in
  let tr = Trace.create () in
  (* three passes give each program a median and latency_ms.p90 its 10
     samples beyond *)
  run_passes ~min_passes:3 ctx ~seconds (fun _ ->
      if traced then begin
        ctx.tracer <- Some tr;
        List.iter (run ~threads:1 ~group:Traced) programs;
        ctx.tracer <- None;
        List.iter (run ~threads:2 ~group:Two) programs
      end;
      List.iter (run ~threads:1 ~group:Req) programs);
  let reqs = samples_of ctx [ Req ] in
  let speedup =
    if not traced then 0.
    else
      let med group kind =
        Hostnorm.median (arr (norm_ms ctx) (List.filter (fun s -> s.kind = kind) (samples_of ctx [ group ])))
      in
      Hostnorm.geomean
        (Array.of_list (List.map (fun (k, _, _) -> med Req k /. med Two k) programs))
  in
  let spans = Trace.spans tr in
  { kinds = kind_medians ctx reqs;
    spans;
    e2e = end_to_end ctx ~setup ~reqs ~passes:reqs;
    layers = per_layer ctx ~setup ~acc ~speedup ~spans;
    extra = extra_metrics ctx ~reqs }

(* ------------------------------------------------------------------ *)
(* Workload: notebook-1t                                               *)
(* ------------------------------------------------------------------ *)

(* Rounds of the 22 programs at SF 0.001 on one long-lived database, with
   every date literal shifted by a seeded offset (0..27 days) each round:
   compile dominates, the 22 shapes fit the plan cache and the 346 result
   keys overflow the 64-entry result cache. *)
let notebook ctx ~seed ~seconds ~traced =
  let db, setup =
    repeated_setup ~n:15 (fun () ->
        setup_tpch ctx ~seed ~sf:0.001 ~extra:(fun _ -> ()))
  in
  let rng = Random.State.make [| seed; 1 |] in
  let programs = Array.of_list Tpch.Queries.all in
  let refs = Hashtbl.create 256 in
  let expected q days src =
    match Hashtbl.find_opt refs (q, days) with
    | Some r -> r
    | None ->
      let r = reference (fun () -> Pytond.run_python ~db ~source:src ~fname:"query" ()) in
      Hashtbl.replace refs (q, days) r;
      r
  in
  let tr = Trace.create () in
  let a = Db.cache_stats db in
  let round group =
    Array.iter
      (fun (q, src) ->
        let days = if has_dates src then Random.State.int rng 28 else 0 in
        let src = shift_dates ~days src in
        let sql = ref "" in
        let r =
          request ctx ~group ~kind:q (fun () ->
              match ctx.tracer with
              | None -> Pytond.run ~db ~source:src ~fname:"query" ()
              | Some _ ->
                sql := compile_traced ctx ~db ~dialect:"duckdb" src;
                execute_classified ctx db (fun () -> Db.execute db !sql))
        in
        if ctx.tracer <> None && !sql <> "" then side_probes ctx ~db !sql;
        Option.iter (check ctx ~what:(Printf.sprintf "%s+%dd" q days) ~expected:(expected q days src)) r)
      programs
  in
  run_passes ctx ~seconds (fun _ ->
      if traced then begin
        ctx.tracer <- Some tr;
        round Traced;
        ctx.tracer <- None
      end;
      round Req);
  let acc = new_acc () in
  add_stats acc a (Db.cache_stats db);
  let reqs = samples_of ctx [ Req ] in
  let spans = Trace.spans tr in
  { kinds = kind_medians ctx reqs;
    spans;
    e2e = end_to_end ctx ~setup ~reqs ~passes:reqs;
    layers = per_layer ctx ~setup ~acc ~speedup:1. ~spans;
    extra = extra_metrics ctx ~reqs }

(* ------------------------------------------------------------------ *)
(* Workload: dashboard-ingest                                          *)
(* ------------------------------------------------------------------ *)

let dashboard_shapes = [ "q1"; "q3"; "q6"; "q12"; "q14"; "q19" ]
let view_shapes = [ "q1"; "q6" ]
let reads_per_key = 20

(* Date shifts of each dated shape's variants. The same for every seed, so
   the work per epoch is too; -365 moves some filters' selectivity across a
   planner guard bucket (guard trips). *)
let shifts = [ 0; -365; -60; 45 ]

(* SQL service traffic at SF 0.05 on the compiled backend: 6 dashboard
   shapes with 4 date variants each where they have dates (all 21 result
   keys fit the cache), two registered as materialized views, two tenants,
   and a 0.1% lineitem batch appended after every epoch of reads. *)
let dashboard ctx ~seed ~seconds ~traced =
  let rng = Random.State.make [| seed; 2 |] in
  (* variants: (kind, sql); the unshifted variant of a view shape is the view *)
  let variants = ref [] in
  let db, setup =
    repeated_setup ~n:5 (fun () ->
        setup_tpch ctx ~seed ~sf:0.05 ~extra:(fun db ->
            variants :=
              List.concat_map
                (fun q ->
                  let src = Tpch.Queries.find q in
                  (if has_dates src then shifts else [ 0 ])
                  |> List.map (fun days ->
                         ( Printf.sprintf "%s%+dd" q days,
                           Pytond.compile ~dialect:"hyper" ~db
                             ~source:(shift_dates ~days src) ~fname:"query" () )))
                dashboard_shapes;
            List.iter
              (fun q ->
                let sql = List.assoc (q ^ "+0d") !variants in
                match Db.register_view db ~name:q sql with
                | Ok () -> ()
                | Error e -> failwith ("register_view " ^ q ^ ": " ^ e))
              view_shapes))
  in
  let keys = Array.of_list !variants in
  let lineitem = Catalog.relation (Db.catalog db) "lineitem" in
  let base_rows = Relation.n_rows lineitem in
  let batch_rows = max 1 (base_rows / 1000) in
  let next_line = ref 1000 in
  (* Rows copied from the base table under fresh line numbers, so the
     (l_orderkey, l_linenumber) key stays unique. *)
  let batch () =
    let b = Relation.take lineitem (Array.init batch_rows (fun _ -> Random.State.int rng base_rows)) in
    let fresh = Column.of_ints (Array.init batch_rows (fun i -> !next_line + i)) in
    next_line := !next_line + batch_rows;
    { b with
      Relation.cols =
        Array.mapi (fun i c -> if b.Relation.names.(i) = "l_linenumber" then fresh else c) b.Relation.cols }
  in
  let tenants = [| "tenant-a"; "tenant-b" |] in
  let tr = Trace.create () in
  let a = Db.cache_stats db in
  let epoch group =
    let order = Array.concat (List.init reads_per_key (fun _ -> Array.init (Array.length keys) Fun.id)) in
    for i = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    let served = Hashtbl.create 64 in
    Array.iter
      (fun k ->
        let kind, sql = keys.(k) in
        let owner = tenants.(Random.State.int rng 2) in
        let r =
          request ctx ~group ~kind (fun () ->
              execute_classified ctx db (fun () ->
                  Db.execute ~backend:Db.Compiled ~owner db sql))
        in
        if ctx.tracer <> None then side_probes ctx ~db sql;
        Option.iter
          (fun r ->
            let seen = Hashtbl.find_all served k in
            if not (List.exists (fun x -> x == r) seen) then Hashtbl.add served k r)
          r)
      order;
    (* every distinct response of this epoch against a cold vectorized run
       on a fresh snapshot of the same data *)
    let cold = Hashtbl.create 64 in
    Hashtbl.iter
      (fun k r ->
        let kind, sql = keys.(k) in
        let exp =
          match Hashtbl.find_opt cold k with
          | Some e -> e
          | None ->
            let e = reference (fun () -> Db.execute ~backend:Db.Vectorized (Db.snapshot db) sql) in
            Hashtbl.replace cold k e;
            e
        in
        check ctx ~what:kind ~expected:exp r)
      served;
    let b = batch () in
    ignore
      (request ctx ~group:Append ~kind:"append" (fun () ->
           layer ctx "db.append" (fun () -> Db.append_table ~threads:1 db "lineitem" b)))
  in
  run_passes ctx ~seconds (fun _ ->
      if traced then begin
        ctx.tracer <- Some tr;
        epoch Traced;
        ctx.tracer <- None
      end;
      epoch Req);
  let acc = new_acc () in
  add_stats acc a (Db.cache_stats db);
  let reqs = samples_of ctx [ Req ] in
  let appends = samples_of ctx [ Append ] in
  let append_p50 =
    match appends with
    | [] -> []
    | _ ->
      [ m ~raw:(Hostnorm.median (arr raw_ms appends)) ~n:(List.length appends)
          "append_ms.p50" "ms" (Hostnorm.median (arr (norm_ms ctx) appends)) ]
  in
  let spans = Trace.spans tr in
  { kinds = kind_medians ctx reqs;
    spans;
    e2e = end_to_end ctx ~setup ~reqs ~passes:(samples_of ctx [ Req; Append ]);
    layers = per_layer ctx ~setup ~acc ~speedup:1. ~spans;
    extra = extra_metrics ctx ~reqs @ append_p50 }

(* ------------------------------------------------------------------ *)
(* Config stamp                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
  | exception Sys_error _ -> None

let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "none (not a git checkout)"
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " ->
    Option.value ~default:h (read_file (".git/" ^ String.sub h 5 (String.length h - 5)))
  | Some h -> h

(* Digest of the engine's sources, which identifies the code measured even
   where the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" then [ p ]
             else [])
    | exception Sys_error _ -> []
  in
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))

let pytond_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 7 && String.sub kv 0 7 = "PYTOND_")

let stamp ~workload ~seed ~seconds ~trace =
  let env = pytond_env () in
  let mode =
    match Parallel.current_mode () with
    | Parallel.Domains -> "domains"
    | Parallel.Simulated -> "simulated"
    | Parallel.Sequential_only -> "sequential"
  in
  let reasons =
    List.map (fun kv -> "toggle set: " ^ kv) env
    @
    if workload = "analytic-1t" && Parallel.current_mode () <> Parallel.Domains then
      [ "analytic-1t not in Domains mode (" ^ mode ^ ")" ]
    else []
  in
  Obj
      [ ("git_commit", Str (git_commit ()));
        ("source_digest", Str (source_digest ()));
        ("nproc", Int (Parallel.available_cores ()));
        ("parallel_mode", Str mode);
        ("ocaml", Str Sys.ocaml_version);
        ("workload", Str workload);
        ("seed", Int seed);
        ("seconds", Num seconds);
        ("trace", Int trace);
        ("pytond_env", List (List.map (fun s -> Str s) env));
        ("comparable", Bool (reasons = []));
        ("noncomparable_reasons", List (List.map (fun s -> Str s) reasons)) ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let workloads = [ ("analytic-1t", analytic); ("notebook-1t", notebook); ("dashboard-ingest", dashboard) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " analytic-1t | notebook-1t | dashboard-ingest");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured wall time per run");
      ("--trace", Arg.Set_int trace, " 1 = traced run with per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f when !trace = 0 || !trace = 1 -> f
    | _ ->
      prerr_endline "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
      exit 2
  in
  let traced = !trace = 1 in
  let stamp = stamp ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace in
  (* the probe kind and interval that gave the smallest spread on each
     workload (README.md) *)
  let ctx =
    if !workload = "analytic-1t" then new_ctx ~kind:Hostnorm.Mixed ~every:0.25
    else new_ctx ~kind:Hostnorm.Alloc ~every:0.1
  in
  let o = run ctx ~seed:!seed ~seconds:!seconds ~traced in
  let shown = if traced then o.layers else o.e2e in
  let full x =
    Obj
      ([ ("value", Num x.value); ("unit", Str x.unit_) ]
      @ (match x.raw with Some r -> [ ("raw", Num r) ] | None -> [])
      @ match x.n with Some n -> [ ("samples", Int n) ] | None -> [])
  in
  let report =
    Obj
      [ ("stamp", stamp);
        ("host", Obj [ ("probe", Str (if ctx.host.Hostnorm.kind = Hostnorm.Mixed then "mixed" else "alloc"));
                       ("ref_nominal_ms", Num (Hostnorm.ref_nominal_ms ctx.host.Hostnorm.kind));
                       ("ref_ms_median", Num (Hostnorm.median (Hostnorm.probes ctx.host)));
                       ("probes", Int (Array.length (Hostnorm.probes ctx.host))) ]);
        ("metrics", Obj (List.map (fun x -> (x.name, full x)) (shown @ o.extra)));
        ( "kinds",
          Obj (List.map (fun (k, v, r) -> (k, Obj [ ("median_ms", Num v); ("raw", Num r) ])) o.kinds) );
        ("empty_sum_null_vs_zero", Int ctx.empty_sums);
        ("failures", List (List.rev_map (fun s -> Str s) ctx.failures)) ]
  in
  let out = Filename.concat "perfbench" "out" in
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" out !workload !seed !trace in
  let oc = open_out (base ^ ".json") in
  output_string oc (json_to_string report ^ "\n");
  close_out oc;
  if traced then Trace.write_jsonl (base ^ ".spans.jsonl") o.spans;
  print_endline (json_to_string report);
  print_endline
    (json_to_string
       (Obj
          [ ("correct", Bool (ctx.failed = 0));
            ("attempted", Int ctx.attempted);
            ("failed", Int ctx.failed);
            ( "metrics",
              Obj (List.map (fun x -> (x.name, Obj [ ("value", Num x.value); ("unit", Str x.unit_) ])) shown) ) ]))
