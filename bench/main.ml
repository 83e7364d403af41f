(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§V). Each experiment prints the same rows/series the paper
    reports; EXPERIMENTS.md records paper-vs-measured shape.

    Usage:  dune exec bench/main.exe              (all experiments)
            dune exec bench/main.exe -- fig3 fig9 (a subset)
            dune exec bench/main.exe -- micro     (bechamel operator suite)

    Environment: PYTOND_SF     TPC-H scale factor   (default 0.02)
                 PYTOND_RUNS   timed runs per point (default 3)
                 PYTOND_WARMUP warmup runs          (default 1)

    Thread counts > 1 use the engine's parallel runtime; on single-core
    hosts the runtime models multicore execution as the measured critical
    path of the partitioned work (see {!Sqldb.Parallel}). *)

let sf = try float_of_string (Sys.getenv "PYTOND_SF") with Not_found -> 0.02
let runs = try int_of_string (Sys.getenv "PYTOND_RUNS") with Not_found -> 3
let warmups = try int_of_string (Sys.getenv "PYTOND_WARMUP") with Not_found -> 1

(* Timing honesty: with the query cache on, the warmup run would populate it
   and every timed run would be a cache hit. Every database here is built
   with the cache off; the experiments that measure the cache read under
   settings that turn it on. *)
let bench_settings = { Sqldb.Settings.default with cache = false }

let cached = { bench_settings with cache = true }
let make_db ?(settings = bench_settings) sf = Tpch.Dbgen.make_db ~settings sf
let create_db () = Sqldb.Db.create ~settings:bench_settings ()

(* Median wall time over [runs], after [warmups]; parallel regions are
   credited with their critical path (cf. Sqldb.Parallel.Simulated). The
   median shrugs off GC/scheduler outliers that poison a mean — a single
   slow run would otherwise read as a phantom regression in --compare. *)
let measure (f : unit -> unit) : float =
  for _ = 1 to warmups do
    f ()
  done;
  let samples = Array.make runs 0. in
  for i = 0 to runs - 1 do
    Sqldb.Parallel.reset_saved ();
    let t0 = Unix.gettimeofday () in
    f ();
    let wall = Unix.gettimeofday () -. t0 in
    samples.(i) <- wall -. Sqldb.Parallel.saved_time ()
  done;
  (* Minimum over runs, not mean or median: on shared hosts the sample
     distribution is the true cost plus occasional scheduler-steal and GC
     stalls, so the minimum is the low-variance estimator of the
     machine-independent cost. Applied uniformly to every variant, ratios
     between alternatives stay honest. *)
  Array.fold_left Float.min samples.(0) samples

let geomean xs =
  match xs with
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json)                                   *)
(* ------------------------------------------------------------------ *)

(* One measurement, in measurement order. Every row carries the full
   configuration it was measured under — scale factor, thread count, the
   radix toggle and the fused-kernel toggle — so --compare can refuse to
   diff incompatible runs instead of silently reporting a config change as
   a perf change. The bigarray stamp is always true: heap-array columns,
   once a toggle, no longer exist.
   The config fields are options only because baselines written before
   they existed parse without them; fresh rows always have all of them. *)
type row = {
  exp_ : string;
  variant : string;
  threads : int;
  rsf : float option; (* scale factor *)
  radix : bool option; (* radix partitioning enabled? *)
  bigarray : bool option; (* bigarray column storage enabled? *)
  fused : bool option; (* fused filter→aggregate kernels enabled? *)
  ivm : bool option; (* incremental view maintenance enabled? *)
  plancache : bool option; (* parameterized plan cache enabled? *)
  mean : float;
}

let results : row list ref = ref []

(* A row's stamps are read from the settings it ran under. *)
let record ?(settings = bench_settings) ~experiment ~variant ~threads mean =
  results :=
    { exp_ = experiment;
      variant;
      threads;
      rsf = Some sf;
      radix = Some settings.Sqldb.Settings.radix;
      (* every numeric column is a bigarray; the stamp keeps --compare
         matching baselines written while heap arrays were an option *)
      bigarray = Some true;
      fused = Some settings.fuse;
      ivm = Some settings.ivm;
      plancache = Some settings.plancache;
      mean }
    :: !results

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* forward-declared so write_json can merge with an existing file; the
   parser is defined with the --compare machinery below *)
let read_baseline_ref : (string -> row list) ref = ref (fun _ -> [])

(* Merge-write: entries from experiments NOT run this invocation (e.g. the
   hand-recorded seed-baseline markers, or the dict figures during a
   cache-only run) are carried over from the existing file. *)
let write_json path =
  let fresh = List.rev !results in
  let ran = List.sort_uniq compare (List.map (fun r -> r.exp_) fresh) in
  let preserved =
    if Sys.file_exists path then
      List.filter (fun r -> not (List.mem r.exp_ ran)) (!read_baseline_ref path)
    else []
  in
  let rows = preserved @ fresh in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      let config =
        match (r.rsf, r.radix) with
        | Some s, Some x ->
          let extra =
            (* bigarray/fused stamps postdate sf/radix; rows carried over
               from an older baseline keep their narrower config *)
            match (r.bigarray, r.fused) with
            | Some ba, Some fu ->
              let ivm_s =
                (* the ivm stamp postdates bigarray/fused in turn *)
                match r.ivm with
                | Some v -> Printf.sprintf ", \"ivm\": %b" v
                | None -> ""
              in
              let ivm_s =
                (* ...and the plancache stamp postdates ivm *)
                match r.plancache with
                | Some v -> ivm_s ^ Printf.sprintf ", \"plancache\": %b" v
                | None -> ivm_s
              in
              Printf.sprintf ", \"bigarray\": %b, \"fused\": %b%s" ba fu
                ivm_s
            | _ -> ""
          in
          Printf.sprintf ", \"sf\": %g, \"radix\": %b%s" s x extra
        | _ -> "" (* pre-config row carried over verbatim *)
      in
      Printf.fprintf oc
        "  {\"experiment\": \"%s\", \"variant\": \"%s\", \"threads\": %d%s, \
         \"mean_seconds\": %.6f}%s\n"
        (json_escape r.exp_) (json_escape r.variant) r.threads config r.mean
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s (%d measurements, %d carried over)\n%!" path
    (List.length rows) (List.length preserved)

(* ------------------------------------------------------------------ *)
(* Baseline comparison (--compare FILE)                               *)
(* ------------------------------------------------------------------ *)

(* Parse a BENCH_results.json written by [write_json]: one object per line
   with string fields "experiment"/"variant", numeric "threads" / "sf" /
   "mean_seconds" and boolean "radix". Hand-rolled to keep the harness
   dependency-free. *)
let read_baseline path : row list =
  let field_str line key =
    let pat = Printf.sprintf "\"%s\": \"" key in
    match
      let rec find i =
        if i + String.length pat > String.length line then None
        else if String.sub line i (String.length pat) = pat then
          Some (i + String.length pat)
        else find (i + 1)
      in
      find 0
    with
    | None -> None
    | Some start ->
      let e = String.index_from line start '"' in
      Some (String.sub line start (e - start))
  in
  let field_num line key =
    let pat = Printf.sprintf "\"%s\": " key in
    let rec find i =
      if i + String.length pat > String.length line then None
      else if String.sub line i (String.length pat) = pat then
        Some (i + String.length pat)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
      let e = ref start in
      while
        !e < String.length line
        && (match line.[!e] with '0' .. '9' | '.' | '-' | 'e' -> true | _ -> false)
      do
        incr e
      done;
      float_of_string_opt (String.sub line start (!e - start))
  in
  let field_bool line key =
    let pat_true = Printf.sprintf "\"%s\": true" key in
    let pat_false = Printf.sprintf "\"%s\": false" key in
    let has pat =
      let lp = String.length pat and ll = String.length line in
      let rec find i =
        i + lp <= ll && (String.sub line i lp = pat || find (i + 1))
      in
      find 0
    in
    if has pat_true then Some true
    else if has pat_false then Some false
    else None
  in
  let ic = open_in path in
  let out = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         ( field_str line "experiment",
           field_str line "variant",
           field_num line "threads",
           field_num line "mean_seconds" )
       with
       | Some e, Some v, Some t, Some m ->
         out :=
           { exp_ = e;
             variant = v;
             threads = int_of_float t;
             rsf = field_num line "sf";
             radix = field_bool line "radix";
             bigarray = field_bool line "bigarray";
             fused = field_bool line "fused";
             ivm = field_bool line "ivm";
             plancache = field_bool line "plancache";
             mean = m }
           :: !out
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !out

let () = read_baseline_ref := read_baseline

let compare_tol =
  try float_of_string (Sys.getenv "PYTOND_COMPARE_TOL") with Not_found -> 0.10

(* A baseline row measured under a different configuration must never be
   diffed against this run: an SF or radix mismatch would read as a huge
   phantom speedup or regression. Refuse loudly instead. *)
exception Config_mismatch of string

let check_config ~(fresh : row) ~(base : row) =
  let where =
    Printf.sprintf "%s/%s (t=%d)" fresh.exp_ fresh.variant fresh.threads
  in
  (match (base.rsf, base.radix) with
  | Some _, Some _ -> ()
  | _ ->
    raise
      (Config_mismatch
         (Printf.sprintf
            "%s: baseline row has no sf/radix config fields (written by an \
             older harness) — regenerate the baseline with --json"
            where)));
  (match (fresh.rsf, base.rsf) with
  | Some a, Some b when Float.abs (a -. b) > 1e-9 *. Float.max 1. a ->
    raise
      (Config_mismatch
         (Printf.sprintf "%s: baseline measured at SF %g, this run at SF %g"
            where b a))
  | _ -> ());
  let check_toggle name fresh_v base_v =
    (* strict when both sides carry the stamp; lenient when the baseline
       predates the field (older harness) — sf/radix presence above is the
       age gate for the file as a whole *)
    match (fresh_v, base_v) with
    | Some a, Some b when (a : bool) <> b ->
      raise
        (Config_mismatch
           (Printf.sprintf "%s: baseline measured with %s %s, this run with \
                            %s %s"
              where name
              (if b then "on" else "off")
              name
              (if a then "on" else "off")))
    | _ -> ()
  in
  check_toggle "radix" fresh.radix base.radix;
  check_toggle "bigarray" fresh.bigarray base.bigarray;
  check_toggle "fused" fresh.fused base.fused;
  check_toggle "ivm" fresh.ivm base.ivm;
  check_toggle "plancache" fresh.plancache base.plancache

(* Compare this run's measurements against a saved baseline; returns false
   when any shared variant regressed by more than [compare_tol] (and by more
   than a 2ms absolute floor — tiny-SF timings are noise-dominated).
   Exits with a distinct error when the configurations are incomparable. *)
let compare_against path : bool =
  let base = read_baseline path in
  let fresh = List.rev !results in
  Printf.printf "\n== compare vs %s (tolerance %.0f%%) ==\n" path
    (100. *. compare_tol);
  Printf.printf "%-44s %10s %10s %9s\n" "variant" "baseline" "now" "speedup";
  let ok = ref true in
  (try
     List.iter
       (fun r ->
         match
           List.find_opt
             (fun b ->
               b.exp_ = r.exp_ && b.variant = r.variant
               && b.threads = r.threads)
             base
         with
         | None -> ()
         | Some b ->
           check_config ~fresh:r ~base:b;
           let regressed =
             r.mean > (b.mean *. (1. +. compare_tol)) +. 0.002
           in
           if regressed then ok := false;
           Printf.printf "%-44s %9.4fs %9.4fs %8.2fx%s\n"
             (Printf.sprintf "%s/%s (t=%d)" r.exp_ r.variant r.threads)
             b.mean r.mean (b.mean /. r.mean)
             (if regressed then "  REGRESSION" else ""))
       fresh
   with Config_mismatch msg ->
     Printf.printf "compare: CONFIG MISMATCH — %s\n" msg;
     Printf.printf
       "compare: refusing to diff measurements from different \
        configurations\n";
     exit 2);
  if !ok then Printf.printf "compare: no regression beyond tolerance\n"
  else Printf.printf "compare: REGRESSIONS detected\n";
  !ok

type alternative = {
  label : string;
  run : db:Sqldb.Db.t -> source:string -> threads:int -> unit;
}

let alt_python =
  { label = "python";
    run =
      (fun ~db ~source ~threads:_ ->
        ignore (Pytond.run_python ~db ~source ~fname:"query" ())) }

let alt_pytond backend label =
  { label;
    run =
      (fun ~db ~source ~threads ->
        ignore
          (Pytond.run ~level:Pytond.O4 ~backend ~threads ~db ~source
             ~fname:"query" ())) }

(* "Grizzly-simulated": identical pipeline with TondIR optimizations off
   (paper §V-A). *)
let alt_grizzly backend label =
  { label;
    run =
      (fun ~db ~source ~threads ->
        ignore
          (Pytond.run ~level:Pytond.O0 ~backend ~threads ~db ~source
             ~fname:"query" ())) }

let standard_alternatives =
  [ alt_python;
    alt_grizzly Pytond.Vectorized "grizzly/duck";
    alt_grizzly Pytond.Compiled "grizzly/hyper";
    alt_pytond Pytond.Vectorized "pytond/duck";
    alt_pytond Pytond.Compiled "pytond/hyper";
    alt_pytond Pytond.Lingo "pytond/lingo" ]

let header alts =
  Printf.printf "%-22s %s\n" "workload"
    (String.concat " " (List.map (fun a -> Printf.sprintf "%13s" a.label) alts))

let run_row ?(experiment = "") ~name ~db ~source ~threads alts =
  let times =
    List.map
      (fun a ->
        try
          let t = measure (fun () -> a.run ~db ~source ~threads) in
          if experiment <> "" then
            record ~experiment
              ~variant:(Printf.sprintf "%s/%s" a.label name)
              ~threads t;
          Some t
        with _ -> None)
      alts
  in
  Printf.printf "%-22s %s\n%!" name
    (String.concat " "
       (List.map
          (function
            | Some t -> Printf.sprintf "%12.4fs" t
            | None -> Printf.sprintf "%13s" "n/a")
          times));
  times

(* ------------------------------------------------------------------ *)
(* Fig. 3 / Fig. 4: TPC-H                                             *)
(* ------------------------------------------------------------------ *)

let fig_tpch ~threads ~figname () =
  Printf.printf "\n== %s: TPC-H SF=%g, %d thread(s) ==\n" figname sf threads;
  let db = make_db sf in
  header standard_alternatives;
  let speedups_duck = ref [] and speedups_hyper = ref [] in
  List.iter
    (fun (name, source) ->
      match
        run_row ~experiment:figname ~name ~db ~source ~threads
          standard_alternatives
      with
      | [ Some py; _; _; Some duck; Some hyper; _ ] ->
        speedups_duck := (py /. duck) :: !speedups_duck;
        speedups_hyper := (py /. hyper) :: !speedups_hyper
      | _ -> ())
    Tpch.Queries.all;
  Printf.printf
    "geomean speedup vs python: pytond/duck %.2fx, pytond/hyper %.2fx\n"
    (geomean !speedups_duck) (geomean !speedups_hyper)

(* ------------------------------------------------------------------ *)
(* Fig. 5 / Fig. 6: data-science workloads                            *)
(* ------------------------------------------------------------------ *)

let fig_ds ~threads ~figname () =
  Printf.printf "\n== %s: data-science workloads, %d thread(s) ==\n" figname
    threads;
  header standard_alternatives;
  List.iter
    (fun (name, load, source) ->
      let db = create_db () in
      load db;
      ignore
        (run_row ~experiment:figname ~name ~db ~source ~threads
           standard_alternatives))
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Fig. 7 / Fig. 8: thread scalability                                *)
(* ------------------------------------------------------------------ *)

let scalability ~figname ~(cases : (string * Sqldb.Db.t * string) list) () =
  Printf.printf "\n== %s: scalability (speedup over own 1-thread time) ==\n"
    figname;
  Printf.printf "%-22s %10s %10s %10s %10s\n" "workload" "1t" "2t" "3t" "4t";
  List.iter
    (fun (name, db, source) ->
      let alt = alt_pytond Pytond.Compiled "pytond/hyper" in
      let t at = measure (fun () -> alt.run ~db ~source ~threads:at) in
      let t1 = t 1 in
      let s n = t1 /. t n in
      Printf.printf "%-22s %9.2fx %9.2fx %9.2fx %9.2fx\n%!" name 1.0 (s 2) (s 3)
        (s 4))
    cases

let fig7 () =
  let db = make_db sf in
  scalability ~figname:"fig7 (TPC-H Q4/Q6/Q13)"
    ~cases:(List.map (fun q -> (q, db, Tpch.Queries.find q)) [ "q4"; "q6"; "q13" ])
    ()

let fig8 () =
  let cases =
    List.filter_map
      (fun (name, load, source) ->
        if List.mem name [ "crime_index"; "birth_analysis"; "n3"; "n9" ] then begin
          let db = create_db () in
          load db;
          Some (name, db, source)
        end
        else None)
      Workloads.all
  in
  scalability ~figname:"fig8 (hybrid workloads)" ~cases ()

(* ------------------------------------------------------------------ *)
(* Fig. 9: covariance matrix sweeps                                   *)
(* ------------------------------------------------------------------ *)

let covar_alternatives : (string * (Sqldb.Db.t -> unit)) list =
  [ ( "numpy",
      fun db ->
        ignore
          (Pytond.run_python ~db ~source:Workloads.covar_dense_src
             ~fname:"query" ()) );
    ( "pytond/duck-dense",
      fun db ->
        ignore
          (Pytond.run ~backend:Pytond.Vectorized ~db
             ~source:Workloads.covar_dense_src ~fname:"query" ()) );
    ( "pytond/hyper-dense",
      fun db ->
        ignore
          (Pytond.run ~backend:Pytond.Compiled ~db
             ~source:Workloads.covar_dense_src ~fname:"query" ()) );
    ( "pytond/duck-sparse",
      fun db ->
        ignore
          (Pytond.run ~backend:Pytond.Vectorized ~db
             ~source:Workloads.covar_sparse_src ~fname:"query" ()) ) ]

let fig9 () =
  Printf.printf "\n== fig9: covariance matrix (rows x cols x sparsity) ==\n";
  Printf.printf "%-38s %s\n" "configuration"
    (String.concat " "
       (List.map (fun (l, _) -> Printf.sprintf "%19s" l) covar_alternatives));
  (* The paper fixes 1M rows and 32 columns; scaled by SF here. *)
  let base_rows = max 2000 (int_of_float (1_000_000. *. sf)) in
  let point ~rows ~cols ~sparsity =
    let db = create_db () in
    Workloads.load_covar db ~rows ~cols ~sparsity;
    let times =
      List.map
        (fun (_, f) ->
          try Printf.sprintf "%18.4fs" (measure (fun () -> f db))
          with _ -> Printf.sprintf "%19s" "n/a")
        covar_alternatives
    in
    Printf.printf "rows=%-8d cols=%-3d sparsity=%-5g  %s\n%!" rows cols
      sparsity
      (String.concat " " times)
  in
  List.iter
    (fun sp -> point ~rows:base_rows ~cols:16 ~sparsity:sp)
    [ 0.001; 0.01; 0.1; 0.5; 1.0 ];
  List.iter
    (fun r -> point ~rows:r ~cols:16 ~sparsity:1.0)
    [ base_rows / 4; base_rows / 2; base_rows; base_rows * 2 ];
  List.iter
    (fun c -> point ~rows:base_rows ~cols:c ~sparsity:1.0)
    [ 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Fig. 10: optimization break-down                                   *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  Printf.printf
    "\n== fig10: optimization break-down (O0=grizzly-sim .. O4=all) ==\n";
  let levels =
    [ (Pytond.O0, "O0"); (Pytond.O1, "O1"); (Pytond.O2, "O2");
      (Pytond.O3, "O3"); (Pytond.O4, "O4") ]
  in
  let backends = [ (Pytond.Vectorized, "duck"); (Pytond.Compiled, "hyper") ] in
  let tpch_db = make_db sf in
  let cases =
    ("q9", tpch_db, Tpch.Queries.find "q9")
    :: List.filter_map
         (fun (name, load, source) ->
           if List.mem name [ "crime_index"; "hybrid_covar"; "n3" ] then begin
             let db = create_db () in
             load db;
             Some (name, db, source)
           end
           else None)
         Workloads.all
  in
  Printf.printf "%-22s %-6s %s\n" "workload" "engine"
    (String.concat " " (List.map (fun (_, l) -> Printf.sprintf "%9s" l) levels));
  List.iter
    (fun (name, db, source) ->
      List.iter
        (fun (backend, blabel) ->
          let times =
            List.map
              (fun (level, _) ->
                try
                  Printf.sprintf "%8.4fs"
                    (measure (fun () ->
                         ignore
                           (Pytond.run ~level ~backend ~db ~source
                              ~fname:"query" ())))
                with _ -> Printf.sprintf "%9s" "n/a")
              levels
          in
          Printf.printf "%-22s %-6s %s\n%!" name blabel
            (String.concat " " times))
        backends)
    cases

(* ------------------------------------------------------------------ *)
(* Dictionary encoding: before/after on string-keyed TPC-H            *)
(* ------------------------------------------------------------------ *)

(* Same binary, two catalogs: one loaded with raw string columns (the
   pre-change layout) and one dictionary-encoded. Queries chosen for string
   predicates, string group keys and string join/probe columns. *)
let dict_queries = [ "q1"; "q3"; "q4"; "q12"; "q16"; "q19" ]

let fig_dict () =
  Printf.printf
    "\n== dict: dictionary-encoded strings vs raw, TPC-H SF=%g ==\n" sf;
  let backends = [ (Pytond.Vectorized, "duck"); (Pytond.Compiled, "hyper") ] in
  (* One variant's database live at a time: with both resident, every major
     GC marks twice the heap and the allocation-heavy raw-string queries
     slow down 3-5x purely from collector pressure, polluting the pairing. *)
  let run_variant enabled =
    let db = make_db ~settings:{ bench_settings with dict = enabled } sf in
    List.concat_map
      (fun q ->
        let source = Tpch.Queries.find q in
        List.map
          (fun (backend, blabel) ->
            (* start each timing pass from a compacted heap so earlier
               queries' garbage does not skew later ones *)
            Gc.compact ();
            let t =
              measure (fun () ->
                  ignore
                    (Pytond.run ~level:Pytond.O4 ~backend ~threads:1 ~db
                       ~source ~fname:"query" ()))
            in
            ((q, blabel), t))
          backends)
      dict_queries
  in
  (* Alternating raw/dict rounds, keeping each variant's best time: a
     transient slow window (scheduler steal on shared hosts) then has to
     cover all of a variant's rounds to distort its number, so the
     raw-vs-dict pairing no longer rides on which phase drew the bad
     window. The within-round variant order flips between rounds so
     neither variant systematically runs on the fresher heap. *)
  let acc = Hashtbl.create 64 in
  for round = 1 to 4 do
    List.iter
      (fun enabled ->
        List.iter
          (fun (k, t) ->
            let key = (enabled, k) in
            match Hashtbl.find_opt acc key with
            | Some t0 when t0 <= t -> ()
            | _ -> Hashtbl.replace acc key t)
          (run_variant enabled);
        Gc.compact ())
      (if round land 1 = 1 then [ false; true ] else [ true; false ])
  done;
  let collect enabled =
    List.concat_map
      (fun q ->
        List.filter_map
          (fun (_, blabel) ->
            Hashtbl.find_opt acc (enabled, (q, blabel))
            |> Option.map (fun t -> ((q, blabel), t)))
          backends)
      dict_queries
  in
  let raws = collect false in
  let dicts = collect true in
  Printf.printf "%-10s %-8s %12s %12s %10s\n" "query" "engine" "raw" "dict"
    "speedup";
  let speedups = ref [] in
  List.iter
    (fun ((q, blabel), traw) ->
      let tdict = List.assoc (q, blabel) dicts in
      record ~experiment:"dict"
        ~variant:(Printf.sprintf "raw/%s/%s" blabel q)
        ~threads:1 traw;
      record ~experiment:"dict"
        ~variant:(Printf.sprintf "dict/%s/%s" blabel q)
        ~threads:1 tdict;
      speedups := (traw /. tdict) :: !speedups;
      Printf.printf "%-10s %-8s %11.4fs %11.4fs %9.2fx\n%!" q blabel traw
        tdict (traw /. tdict))
    raws;
  Printf.printf "geomean speedup (dict vs raw): %.2fx\n" (geomean !speedups)

(* ------------------------------------------------------------------ *)
(* On/off ablations: radix partitioning and fused kernels             *)
(* ------------------------------------------------------------------ *)

(* One setting off and on: the same binary and database run each query on
   both backends at [threads] under [settings false] and [settings true].
   Rounds alternate the variant order and keep each side's best time, like
   the dict experiment, so scheduler noise cannot systematically favor
   one. Each row is stamped with the settings it ran under. *)
let on_off ~experiment ~title ~queries ~threads ~settings () =
  Printf.printf "\n== %s: %s on vs off, TPC-H SF=%g, %d threads ==\n"
    experiment title sf threads;
  let db = make_db sf in
  let backends = [ (Pytond.Vectorized, "duck"); (Pytond.Compiled, "hyper") ] in
  let time_one enabled q backend =
    Gc.compact ();
    measure (fun () ->
        ignore
          (Pytond.run ~level:Pytond.O4 ~backend ~threads
             ~settings:(settings enabled) ~db ~source:(Tpch.Queries.find q)
             ~fname:"query" ()))
  in
  let acc = Hashtbl.create 64 in
  for round = 1 to 4 do
    List.iter
      (fun enabled ->
        List.iter
          (fun q ->
            List.iter
              (fun (backend, blabel) ->
                let t = time_one enabled q backend in
                let key = (enabled, q, blabel) in
                match Hashtbl.find_opt acc key with
                | Some t0 when t0 <= t -> ()
                | _ -> Hashtbl.replace acc key t)
              backends)
          queries)
      (if round land 1 = 1 then [ false; true ] else [ true; false ])
  done;
  Printf.printf "%-10s %-8s %12s %12s %10s\n" "query" "engine" "off" "on"
    "speedup";
  let speedups = ref [] in
  List.iter
    (fun q ->
      List.iter
        (fun (_, blabel) ->
          let toff = Hashtbl.find acc (false, q, blabel) in
          let ton = Hashtbl.find acc (true, q, blabel) in
          record ~experiment
            ~variant:(Printf.sprintf "off/%s/%s" blabel q)
            ~threads ~settings:(settings false) toff;
          record ~experiment
            ~variant:(Printf.sprintf "on/%s/%s" blabel q)
            ~threads ~settings:(settings true) ton;
          speedups := (toff /. ton) :: !speedups;
          Printf.printf "%-10s %-8s %11.4fs %11.4fs %9.2fx\n%!" q blabel
            toff ton (toff /. ton))
        backends)
    queries;
  Printf.printf "geomean speedup (%s on vs off): %.2fx\n" experiment
    (geomean !speedups)

(* Join- and aggregation-heavy TPC-H queries at 3 threads with radix
   partitioning disabled (serial build, shared probe table) and enabled
   (per-partition cache-resident tables). *)
let fig_radix =
  on_off ~experiment:"radix" ~title:"partitioned join/agg"
    ~queries:[ "q1"; "q3"; "q9"; "q12"; "q19" ] ~threads:3
    ~settings:(fun radix -> { bench_settings with radix })

(* Scan-heavy TPC-H queries at 3 threads with the fused filter→aggregate
   kernels disabled (per-row closure pipeline over selection vectors) and
   enabled (mask kernels with in-loop accumulation, see Sqldb.Kernel).
   q1/q6 are fusible aggregate pipelines; q12/q19 are join queries that
   only benefit from the mask filter kernels on their scans — they double
   as a no-harm control. *)
let fig_fused =
  on_off ~experiment:"fused" ~title:"branch-free kernels"
    ~queries:[ "q1"; "q6"; "q12"; "q19" ] ~threads:3
    ~settings:(fun fuse -> { bench_settings with fuse })

(* ------------------------------------------------------------------ *)
(* Query cache: first run vs cached repeat                            *)
(* ------------------------------------------------------------------ *)

let cache_queries = [ "q1"; "q3"; "q6"; "q12" ]

let fig_cache () =
  Printf.printf
    "\n== cache: first execution vs cached repeat, TPC-H SF=%g ==\n" sf;
  let db = make_db ~settings:cached sf in
  Printf.printf "%-10s %8s %12s %12s %10s\n" "query" "threads" "first"
    "cached" "speedup";
  List.iter
    (fun threads ->
      List.iter
        (fun q ->
          let source = Tpch.Queries.find q in
          let sql =
            Pytond.compile ~dialect:"duckdb" ~db ~source ~fname:"query" ()
          in
          let exec () =
            ignore (Sqldb.Db.execute ~threads ~backend:Sqldb.Db.Vectorized db sql)
          in
          (* cold: clear before every run so each measurement pays
             plan + execute; warm: populate once, then every run hits *)
          let tfirst =
            measure (fun () -> Sqldb.Db.clear_cache db; exec ())
          in
          exec ();
          let tcached = measure exec in
          record ~experiment:"cache"
            ~variant:(Printf.sprintf "first/duck/%s" q)
            ~threads tfirst;
          record ~experiment:"cache"
            ~variant:(Printf.sprintf "cached/duck/%s" q)
            ~threads tcached;
          Printf.printf "%-10s %8d %11.5fs %11.5fs %9.0fx\n%!" q threads
            tfirst tcached
            (tfirst /. Float.max 1e-9 tcached))
        cache_queries)
    [ 1; 3 ];
  let st = Sqldb.Db.cache_stats db in
  Printf.printf "cache counters: %d hits, %d recomputes, %d misses, %d evictions\n"
    st.Sqldb.Db.hits st.Sqldb.Db.plan_hits st.Sqldb.Db.misses
    st.Sqldb.Db.evictions

(* ------------------------------------------------------------------ *)
(* Zone-map scan skipping: clustered range predicates                 *)
(* ------------------------------------------------------------------ *)

(* l_orderkey is generation-ordered, so block zone maps are tight on it and
   a selective range drops nearly every block before evaluation. The
   unclustered l_shipdate predicate is a control: zones are wide, nothing
   skips, and the cost is one block test per morsel. *)
let fig_scan () =
  Printf.printf "\n== scan: zone-map skipping on range scans, SF=%g ==\n" sf;
  let db = make_db sf in
  let key_hi =
    (* ~1% prefix of the orderkey domain *)
    let r = Sqldb.Catalog.relation (Sqldb.Db.catalog db) "orders" in
    max 8 (Sqldb.Relation.n_rows r / 25)
  in
  let cases =
    [ ( "clustered-1pct",
        Printf.sprintf
          "SELECT COUNT(*) AS c, SUM(l_quantity) AS s FROM lineitem WHERE \
           l_orderkey < %d"
          key_hi );
      ( "unclustered",
        "SELECT COUNT(*) AS c, SUM(l_quantity) AS s FROM lineitem WHERE \
         l_shipdate >= DATE '1997-01-01'" ) ]
  in
  Printf.printf "%-18s %8s %12s %12s\n" "case" "threads" "duck" "hyper";
  List.iter
    (fun threads ->
      List.iter
        (fun (name, sql) ->
          let time backend =
            measure (fun () ->
                ignore (Sqldb.Db.execute ~threads ~backend db sql))
          in
          let tduck = time Sqldb.Db.Vectorized in
          let thyper = time Sqldb.Db.Compiled in
          record ~experiment:"scan"
            ~variant:(Printf.sprintf "duck/%s" name)
            ~threads tduck;
          record ~experiment:"scan"
            ~variant:(Printf.sprintf "hyper/%s" name)
            ~threads thyper;
          Printf.printf "%-18s %8d %11.5fs %11.5fs\n%!" name threads tduck
            thyper)
        cases)
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Mixed read/ingest service workload                                 *)
(* ------------------------------------------------------------------ *)

(* The service story: a read-heavy query stream with appends landing
   between batches. Per-table cache invalidation is what separates the
   variants — an append into a table the queries never touch leaves every
   cache entry valid (pure hits), while an append into the hot table makes
   every entry stale, so each read catches up: q1 and q6 are maintainable,
   so an entry's first stale read builds its view (plan_hits) and later
   ones refresh it by delta (delta_refreshes). Append batches are tiny
   relative to the base table, so table growth across the few timed runs
   stays in the noise. *)
let fig_mixed () =
  Printf.printf
    "\n== mixed: read-heavy stream with interleaved ingest, SF=%g ==\n" sf;
  let db = make_db ~settings:cached sf in
  let sqls =
    List.map
      (fun q ->
        Pytond.compile ~dialect:"hyper" ~db ~source:(Tpch.Queries.find q)
          ~fname:"query" ())
      [ "q1"; "q6" ]
  in
  let batch name n =
    let r = Sqldb.Catalog.relation (Sqldb.Db.catalog db) name in
    Sqldb.Relation.take r (Array.init (min n (Sqldb.Relation.n_rows r)) Fun.id)
  in
  let li = batch "lineitem" 64 and reg = batch "region" 1 in
  let read_batch () =
    List.iter
      (fun sql ->
        ignore (Sqldb.Db.execute ~backend:Sqldb.Db.Compiled db sql))
      sqls
  in
  let variants =
    [ ("read-only", read_batch);
      ( "ingest-unrelated",
        fun () ->
          Sqldb.Db.append_table db "region" reg;
          read_batch () );
      ( "ingest-hot",
        fun () ->
          Sqldb.Db.append_table db "lineitem" li;
          read_batch () ) ]
  in
  Printf.printf "%-18s %12s  %s\n" "variant" "batch" "cache counters";
  List.iter
    (fun (name, f) ->
      Sqldb.Db.clear_cache db;
      read_batch () (* populate *);
      let before = Sqldb.Db.cache_stats db in
      let t = measure f in
      let after = Sqldb.Db.cache_stats db in
      record ~experiment:"mixed" ~variant:name ~threads:1 t;
      Printf.printf
        "%-18s %11.5fs  +%d hits, +%d deltas, +%d recomputes, +%d misses\n%!"
        name t
        (after.Sqldb.Db.hits - before.Sqldb.Db.hits)
        (after.Sqldb.Db.delta_refreshes - before.Sqldb.Db.delta_refreshes)
        (after.Sqldb.Db.plan_hits - before.Sqldb.Db.plan_hits)
        (after.Sqldb.Db.misses - before.Sqldb.Db.misses))
    variants;
  let st = Sqldb.Db.cache_stats db in
  let looked =
    st.Sqldb.Db.hits + st.Sqldb.Db.delta_refreshes + st.Sqldb.Db.plan_hits
    + st.Sqldb.Db.misses
  in
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 looked) in
  Printf.printf
    "repeat-query hit rate: %.0f%% full, %.0f%% delta, %.0f%% recomputed (%d \
     lookups)\n"
    (pct st.Sqldb.Db.hits) (pct st.Sqldb.Db.delta_refreshes)
    (pct st.Sqldb.Db.plan_hits) looked

(* ------------------------------------------------------------------ *)
(* Views: incremental maintenance vs re-execution under append traffic *)
(* ------------------------------------------------------------------ *)

(* Live-dashboard cost model: a registered q1/q3/q6/q12/q14 view absorbs a
   ~1% lineitem append and serves the refreshed result. q3 and q14 probe
   the appended rows against build sides over tables the append leaves
   unchanged, which a refresh keeps; q12 builds over lineitem itself, so
   each refresh probes every orders row against the appended rows. Compared against a
   fully cold plan+execute, against recomputing the same SQL through the
   plan cache (the stale result-cache read with IVM off, which is what a
   non-maintainable entry pays), and against the same stale read with IVM
   on, where the entry's own view refreshes by delta. The appends land
   between timed reads, so each number is the read latency a dashboard
   observes right after an ingest round: reexec pays a full stream
   re-execution, cached and ivm pay a delta refresh over ~1% of the rows. *)
let fig_views () =
  Printf.printf
    "\n== views: incremental refresh vs re-execution, SF=%g ==\n" sf;
  let db = make_db sf in
  let sqls =
    List.map
      (fun q ->
        (q, Pytond.compile ~db ~source:(Tpch.Queries.find q) ~fname:"query" ()))
      [ "q1"; "q3"; "q6"; "q12"; "q14" ]
  in
  let li = Sqldb.Catalog.relation (Sqldb.Db.catalog db) "lineitem" in
  let batch_n = max 1 (Sqldb.Relation.n_rows li / 100) in
  let batch = Sqldb.Relation.take li (Array.init batch_n Fun.id) in
  (* min stale-read latency over [runs] append+read rounds; the
     append is outside the timed region *)
  let refresh_cost read =
    let best = ref infinity in
    for i = 1 to warmups + max 1 runs do
      Sqldb.Db.append_table db "lineitem" batch;
      let t0 = Unix.gettimeofday () in
      read ();
      let t = Unix.gettimeofday () -. t0 in
      if i > warmups then best := Float.min !best t
    done;
    !best
  in
  Printf.printf "%-4s %12s %12s %12s %12s %10s  (append batch: %d rows)\n"
    "view" "cold" "reexec" "cached" "ivm" "speedup" batch_n;
  List.iter
    (fun (q, sql) ->
      (* cold: plan + execute from scratch on a fresh handle *)
      let cold =
        measure (fun () ->
            ignore (Sqldb.Db.execute (Sqldb.Db.snapshot db) sql))
      in
      record ~experiment:"views" ~variant:(q ^ "-cold") ~threads:1 cold;
      (* reexec: with IVM off the stale result entry is recomputed
         after each append, binding the plan-cache template *)
      let read settings () = ignore (Sqldb.Db.execute ~settings db sql) in
      let no_ivm = { cached with ivm = false } in
      read no_ivm ();
      let reexec = refresh_cost (read no_ivm) in
      record ~experiment:"views" ~variant:(q ^ "-reexec") ~threads:1
        ~settings:no_ivm reexec;
      (* cached: the same entry with IVM on; its first stale read
         (untimed) builds the entry's view, later ones refresh it by
         delta *)
      Sqldb.Db.append_table db "lineitem" batch;
      read cached ();
      let hit = refresh_cost (read cached) in
      record ~experiment:"views" ~variant:(q ^ "-cached") ~threads:1
        ~settings:cached hit;
      (* ivm: same SQL registered as a view; appends are absorbed by
         delta refreshes *)
      (match Sqldb.Db.register_view db ~name:("view_" ^ q) sql with
      | Ok () -> ()
      | Error e -> failwith e);
      let ivm = refresh_cost (read cached) in
      record ~experiment:"views" ~variant:(q ^ "-ivm") ~threads:1
        ~settings:cached ivm;
      Printf.printf "%-4s %11.5fs %11.5fs %11.5fs %11.5fs %9.1fx\n%!" q
        cold reexec hit ivm
        (reexec /. Float.max 1e-9 ivm))
    sqls;
  let st = Sqldb.Db.cache_stats db in
  Printf.printf
    "counters: %d delta refreshes (views and cached entries), %d view \
     recomputes, %d fresh view hits, %d entry recomputes\n"
    st.Sqldb.Db.delta_refreshes st.Sqldb.Db.view_recomputes
    st.Sqldb.Db.view_hits st.Sqldb.Db.plan_hits

(* ------------------------------------------------------------------ *)
(* Plan cache: cold parse+plan vs cached bind, and the bind hit rate  *)
(* under the mixed-tenant stream                                      *)
(* ------------------------------------------------------------------ *)

(* Two measurements. First, the plan-acquisition stage in isolation for
   representative shapes: cold pays parse + plan from the literal text
   (what every execution paid before the plan cache); bind pays the hot
   path — fingerprint the text, look the template up, substitute the
   constants into the bound plan. The executions themselves are identical,
   so the stage ratio is the whole story. Second, a rerun of the mixed
   workload with two tenants re-issuing the same shapes under fresh
   constants each round (so the result cache never hits) with ingest
   landing between batches: the reported bind hit rate is what a
   constant-varying dashboard workload actually gets from the cache. *)
let fig_plancache () =
  Printf.printf "\n== plancache: cold plan vs cached bind, SF=%g ==\n" sf;
  let db = make_db sf in
  let cat = Sqldb.Catalog.pin (Sqldb.Db.catalog db) in
  let sqls =
    List.map
      (fun q ->
        (q, Pytond.compile ~db ~source:(Tpch.Queries.find q) ~fname:"query" ()))
      [ "q1"; "q3"; "q6" ]
  in
  (* per-call cost via an inner loop: a single plan is microseconds,
     below the timer's useful resolution *)
  let n = 100 in
  let per f = measure (fun () -> for _ = 1 to n do f () done)
              /. float_of_int n in
  Printf.printf "%-4s %13s %13s %9s\n" "q" "cold-plan" "cached-bind"
    "speedup";
  List.iter
    (fun (q, sql) ->
      (* plan acquisition through the public cache entry: on a miss it
         pays fingerprint + parse + template plan + guard bookkeeping;
         on a hit, fingerprint + lookup + constant substitution *)
      let acquire () =
        let f = Sqldb.Sql_shape.fingerprint sql in
        ignore
          (Sqldb.Db.bind_from_plan_cache db cat
             ~backend:Sqldb.Db.Vectorized ~threads:1 ~owner:None
             ~plan_quota:None f)
      in
      let cold =
        per (fun () ->
            Sqldb.Db.clear_plan_cache db;
            acquire ())
      in
      acquire () (* warm the template *);
      let bind = per acquire in
      record ~experiment:"plancache" ~variant:(q ^ "-coldplan") ~threads:1
        cold;
      record ~experiment:"plancache" ~variant:(q ^ "-bind") ~threads:1
        bind;
      Printf.printf "%-4s %12.6fs %12.6fs %8.1fx\n%!" q cold bind
        (cold /. Float.max 1e-9 bind))
    sqls;
  (* mixed-tenant stream: fresh constants every round, ingest between
     batches; templates survive appends so every round after the first
     binds instead of replanning *)
  let li_rel = Sqldb.Catalog.relation (Sqldb.Db.catalog db) "lineitem" in
  let li =
    Sqldb.Relation.take li_rel
      (Array.init (min 64 (Sqldb.Relation.n_rows li_rel)) Fun.id)
  in
  let q_scan i =
    Printf.sprintf
      "SELECT l_returnflag, SUM(l_extendedprice) AS s FROM lineitem \
       WHERE l_quantity < %d.0 GROUP BY l_returnflag"
      (20 + (i mod 5))
  in
  let q_ord i =
    Printf.sprintf
      "SELECT COUNT(*) AS c FROM orders WHERE o_totalprice > %d.0"
      (1000 + (137 * i))
  in
  Sqldb.Db.clear_plan_cache db;
  let s0 = Sqldb.Db.cache_stats db in
  let rounds = 20 in
  for i = 1 to rounds do
    if i mod 5 = 0 then Sqldb.Db.append_table db "lineitem" li;
    ignore (Sqldb.Db.execute ~owner:"t1" db (q_scan i));
    ignore (Sqldb.Db.execute ~owner:"t2" db (q_ord i))
  done;
  let s1 = Sqldb.Db.cache_stats db in
  let binds = s1.Sqldb.Db.bind_hits - s0.Sqldb.Db.bind_hits in
  let colds = s1.Sqldb.Db.bind_misses - s0.Sqldb.Db.bind_misses in
  let trips = s1.Sqldb.Db.guard_trips - s0.Sqldb.Db.guard_trips in
  let lookups = binds + colds + trips in
  Printf.printf
    "mixed-tenant (%d rounds, 2 tenants, ingest every 5): %d binds, %d \
     cold plans, %d guard trips -> %.0f%% bind hit rate\n"
    rounds binds colds trips
    (100. *. float_of_int binds /. float_of_int (max 1 lookups))

(* ------------------------------------------------------------------ *)
(* Table I: capability matrix                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Printf.printf "\n== table1: in-database Python execution approaches ==\n";
  Printf.printf "%-22s %8s %8s %8s %12s %12s\n" "approach" "generic" "pandas"
    "numpy" "multilayout" "sqlrewrite";
  List.iter
    (fun (n, a, b, c, d, e) ->
      Printf.printf "%-22s %8s %8s %8s %12s %12s\n" n a b c d e)
    [ ("ByePy", "yes", "no", "no", "yes", "no");
      ("Blatcher et al.", "no", "no", "yes", "yes", "no");
      ("Grizzly", "yes", "yes", "no", "yes", "no");
      ("PyFroid", "no", "yes", "no", "yes", "yes");
      ("PyTond (this repo)", "no", "yes", "yes", "yes", "yes") ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite: core engine operators                        *)
(* ------------------------------------------------------------------ *)

let micro () =
  Printf.printf "\n== micro: bechamel engine-operator suite ==\n%!";
  let open Bechamel in
  let db = make_db (Float.min sf 0.01) in
  let sql_scan = "SELECT l_orderkey FROM lineitem WHERE l_quantity < 10.0" in
  let sql_agg =
    "SELECT l_returnflag, SUM(l_extendedprice) AS s FROM lineitem GROUP BY \
     l_returnflag"
  in
  let sql_join =
    "SELECT o.o_orderkey FROM orders AS o, customer AS c WHERE o.o_custkey = \
     c.c_custkey AND c.c_acctbal > 5000.0"
  in
  let mk name backend sql =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Sqldb.Db.execute ~backend db sql)))
  in
  let tests =
    Test.make_grouped ~name:"engine"
      [ mk "scan-filter/vectorized" Sqldb.Db.Vectorized sql_scan;
        mk "scan-filter/compiled" Sqldb.Db.Compiled sql_scan;
        mk "hash-agg/vectorized" Sqldb.Db.Vectorized sql_agg;
        mk "hash-agg/compiled" Sqldb.Db.Compiled sql_agg;
        mk "hash-join/vectorized" Sqldb.Db.Vectorized sql_join;
        mk "hash-join/compiled" Sqldb.Db.Compiled sql_join ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let est =
        match Analyze.OLS.estimates result with
        | Some [ e ] -> Printf.sprintf "%12.0f ns/run" e
        | _ -> "(no estimate)"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-36s %s\n" name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let experiments : (string * (unit -> unit)) list =
  [ ("table1", table1);
    ("fig3", fig_tpch ~threads:1 ~figname:"fig3");
    ("fig4", fig_tpch ~threads:4 ~figname:"fig4");
    ("fig5", fig_ds ~threads:1 ~figname:"fig5");
    ("fig6", fig_ds ~threads:4 ~figname:"fig6");
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("dict", fig_dict);
    ("radix", fig_radix);
    ("fused", fig_fused);
    ("cache", fig_cache);
    ("scan", fig_scan);
    ("mixed", fig_mixed);
    ("views", fig_views);
    ("plancache", fig_plancache);
    ("micro", micro) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  (* --compare FILE: after the requested experiments, diff against a saved
     BENCH_results.json and exit non-zero on regression beyond tolerance *)
  let rec split_compare acc = function
    | "--compare" :: file :: rest -> (Some file, List.rev_append acc rest)
    | a :: rest -> split_compare (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let compare_file, args = split_compare [] args in
  (* --json-out FILE: like --json but to an explicit path, so smoke runs
     can emit an artifact without clobbering the committed baseline *)
  let rec split_json_out acc = function
    | "--json-out" :: file :: rest -> (Some file, List.rev_append acc rest)
    | a :: rest -> split_json_out (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_out, args = split_json_out [] args in
  let names = List.filter (fun a -> a <> "--json") args in
  let requested =
    match names with
    | _ :: _ -> names
    | [] -> List.map fst (List.filter (fun (n, _) -> n <> "micro") experiments)
  in
  Printf.printf "PyTond benchmark harness (SF=%g, runs=%d, warmups=%d)\n" sf
    runs warmups;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.printf "unknown experiment %s (available: %s)\n" name
          (String.concat ", " (List.map fst experiments)))
    requested;
  (* compare before --json overwrites the baseline file *)
  let ok = match compare_file with None -> true | Some f -> compare_against f in
  if json then write_json "BENCH_results.json";
  (match json_out with Some f -> write_json f | None -> ());
  if not ok then exit 1
