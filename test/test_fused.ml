(** Differential tests for the fused branch-free filter→aggregate kernels.

    Every query runs twice on a cache-disabled database — fused kernels
    forced on and forced off — across both backends and 1/3 threads, and
    the answers must be byte-identical at rendering: the fused kernels
    fold their survivors, in row order, into the same slot states as the
    unfused executors, so even the low bits of compensated float sums may
    not move. Datasets are chosen to hit every kernel path:
    all-true and all-false predicates (mask fill with no survivors /
    nothing rejected), heavy selectivity skew, NULLs in both filter and
    aggregate position, dictionary-coded string predicates (eq / ne /
    LIKE / IN), date MIN/MAX, arithmetic aggregate arguments including
    division, and grouped aggregation over int / dict / nullable keys.
    Tables exceed one 8192-row selector stride, so survivors cross stride
    boundaries and multi-threaded filters split into parallel morsels. A
    fault soak re-runs a fused aggregate under armed injection: the
    kernel.select stride checkpoints must recover to the clean answer. *)

open Sqldb
open Helpers

let fused = { Settings.default with fuse = true; cache = false }
let unfused = { fused with fuse = false }
let diff_queries = diff_queries ~base:unfused ~subject:fused

(* ------------------------------------------------------------------ *)
(* Dataset                                                            *)
(* ------------------------------------------------------------------ *)

(* One wide table past one selector stride: skewed int keys,
   mixed-magnitude floats (so compensation actually matters), a small
   dict-coded string alphabet, nullable float and int columns, dates,
   and a nonzero divisor column for SUM(x / y). *)
let fused_db ?settings () =
  let rand = Random.State.make [| 0xf05ed |] in
  let n = 12_000 in
  let tags = [| "alpha"; "beta"; "gamma"; "delta"; "albatross" |] in
  let db = Db.create ?settings () in
  Db.load_table db "t"
    (rel [ "id"; "k"; "v"; "a"; "b"; "tag"; "nv"; "nk"; "d" ]
       [ ints (Array.init n Fun.id);
         ints
           (Array.init n (fun _ ->
                if Random.State.int rand 10 < 8 then Random.State.int rand 20
                else Random.State.int rand 97));
         floats
           (Array.init n (fun i ->
                if i mod 101 = 0 then 1e12
                else float_of_int ((i * 7 mod 1000) - 500) /. 7.));
         ints (Array.init n (fun i -> (i * 13 mod 2001) - 1000));
         ints (Array.init n (fun i -> (i mod 9) + 1));
         strings (Array.init n (fun _ -> tags.(Random.State.int rand 5)));
         Column.of_values Value.TFloat
           (Array.init n (fun i ->
                if i mod 7 = 0 then Value.VNull
                else Value.VFloat (float_of_int (i mod 83) /. 3.)));
         Column.of_values Value.TInt
           (Array.init n (fun i ->
                if i mod 11 = 0 then Value.VNull else Value.VInt (i mod 6)));
         dates
           (Array.init n (fun i ->
                Printf.sprintf "%04d-%02d-%02d"
                  (1992 + (i mod 7))
                  ((i mod 12) + 1)
                  ((i mod 28) + 1))) ]);
  db

(* ------------------------------------------------------------------ *)
(* Query shapes                                                       *)
(* ------------------------------------------------------------------ *)

let global_agg_queries =
  [ "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE k < 40";
    "SELECT SUM(a) AS s, MIN(a) AS mn, MAX(a) AS mx FROM t WHERE k >= 40";
    "SELECT AVG(v) AS av, AVG(a) AS ai FROM t WHERE tag = 'alpha'";
    "SELECT SUM(v / b) AS s FROM t WHERE k <> 13";
    "SELECT SUM(a * b) AS p, SUM(a + b) AS q FROM t WHERE tag <> 'beta'";
    "SELECT SUM(nv) AS s, AVG(nv) AS av FROM t WHERE k < 50";
    "SELECT MIN(d) AS mn, MAX(d) AS mx FROM t WHERE k < 90";
    "SELECT MIN(v) AS mn, MAX(v) AS mx FROM t WHERE tag LIKE 'al%'";
    (* all-true and all-false predicates: every stride fully kept /
       fully rejected *)
    "SELECT SUM(v) AS s, COUNT(*) AS n FROM t WHERE k >= 0";
    "SELECT SUM(v) AS s, COUNT(*) AS n FROM t WHERE k < -1";
    "SELECT COUNT(*) AS n FROM t WHERE nv IS NULL";
    "SELECT COUNT(*) AS n, SUM(b) AS s FROM t WHERE NOT (k < 10) OR \
     tag = 'gamma'";
    "SELECT SUM(v) AS s FROM t WHERE tag IN ('alpha', 'delta') AND k < 60";
    (* nullable arguments: no survivors, a NULL-only survivor, mixed *)
    "SELECT MIN(nv) AS mn, MAX(nv) AS mx, COUNT(nv) AS n FROM t WHERE k < -1";
    "SELECT MIN(nv) AS mn, SUM(nv) AS s, AVG(nv) AS av, COUNT(nv) AS n FROM t \
     WHERE id = 0";
    "SELECT MIN(nv) AS mn, MAX(nv) AS mx, AVG(a) AS ai FROM t WHERE k < 30" ]

let grouped_queries =
  [ "SELECT tag, COUNT(*) AS n, SUM(v) AS s FROM t WHERE k < 60 GROUP BY tag";
    "SELECT k, SUM(a) AS s, MIN(v) AS mn FROM t GROUP BY k";
    "SELECT nk, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY nk";
    "SELECT tag, AVG(v) AS av, MAX(d) AS mx FROM t WHERE id >= 100 \
     GROUP BY tag";
    (* nullable arguments, a nullable key, an empty input *)
    "SELECT tag, MIN(nv) AS mn, MAX(nv) AS mx, SUM(nv) AS s, AVG(nv) AS av, \
     COUNT(nv) AS n FROM t WHERE k < 50 GROUP BY tag";
    "SELECT nk, MIN(a) AS mn, MAX(d) AS mx, AVG(a) AS ai, SUM(a) AS sa FROM t \
     GROUP BY nk";
    "SELECT tag, COUNT(nv) AS n, SUM(v) AS s FROM t WHERE k < -1 GROUP BY tag" ]

let filter_queries =
  [ "SELECT id FROM t WHERE k = 7";
    "SELECT id, tag FROM t WHERE tag = 'alpha' AND k < 30";
    "SELECT id FROM t WHERE nv IS NULL AND k > 90";
    "SELECT id FROM t WHERE NOT (tag = 'beta')";
    "SELECT id FROM t WHERE v > 50.0 OR k = 3";
    "SELECT id FROM t WHERE tag LIKE '%tros%' AND d >= DATE '1995-01-01'";
    (* a closure conjunct written before a mask conjunct *)
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE v * 2 > a AND k < 40" ]

(* Edges of the shared aggregate fold: every chunk's partial empty (all
   blocks zone-dead, or every row rejected), survivors only in the last
   stride and morsel ([id >= n - 5]), and DISTINCT, which folds as one
   input range at any thread count. *)
let edge_queries =
  [ "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(a) AS mn, AVG(nv) AS av FROM t \
     WHERE id < 0";
    "SELECT COUNT(nv) AS n, SUM(a) AS s, MAX(d) AS mx FROM t WHERE \
     tag = 'omega'";
    "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(nv) AS mn, MAX(a) AS mx FROM t \
     WHERE id >= 11995";
    "SELECT tag, COUNT(*) AS n, SUM(v) AS s FROM t WHERE id >= 11995 \
     GROUP BY tag";
    "SELECT COUNT(DISTINCT k) AS dk, SUM(DISTINCT a) AS sa, COUNT(*) AS n \
     FROM t WHERE k < 50";
    "SELECT COUNT(DISTINCT tag) AS dt, SUM(DISTINCT nk) AS sn FROM t" ]

let test_global () = diff_queries ~label:"global" (fused_db ()) global_agg_queries
let test_grouped () = diff_queries ~label:"grouped" (fused_db ()) grouped_queries
let test_edges () = diff_queries ~label:"edge" (fused_db ()) edge_queries
let test_filters () = diff_queries ~label:"filter" (fused_db ()) filter_queries

(* [diff_queries] compares grouped answers as sorted multisets; the
   compiled backend also promises first-seen group order, fused or not,
   at any thread count. *)
let test_grouped_order () =
  let db = fused_db () in
  List.iter
    (fun sql ->
      List.iter
        (fun threads ->
          let run settings =
            ordered_rows
              (Db.execute ~backend:Db.Compiled ~threads ~settings db sql)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "grouped order @%dt | %s" threads sql)
            (run unfused) (run fused))
        thread_counts)
    grouped_queries

(* Dict predicates must also agree with encoding disabled: raw string
   columns take the generic cmp-leaf path instead of the code tables. *)
let test_raw_strings () =
  diff_queries ~label:"raw-strings"
    (fused_db ~settings:{ Settings.default with dict = false } ())
    [ "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE tag = 'alpha'";
      "SELECT SUM(a) AS s FROM t WHERE tag <> 'beta' AND k < 50";
      "SELECT id FROM t WHERE tag LIKE 'al%' AND k = 3" ]

(* ------------------------------------------------------------------ *)
(* Compensated summation pins (Neumaier)                              *)
(* ------------------------------------------------------------------ *)

(* Adversarial magnitudes: +1e16 / +1 / -1e16 / tiny. A naive float sum
   loses the 1.0s entirely; the compensated serial sum recovers them
   exactly. The fused accumulator must match the unfused one *bitwise*
   at every thread count (it replays the identical update sequence), and
   the 3-thread chunked merge must agree with the serial sum to far
   below output rounding. *)
let test_neumaier_sum () =
  let n = 20_000 in
  let xs =
    Array.init n (fun i ->
        match i mod 4 with
        | 0 -> 1e16
        | 1 -> 1.0
        | 2 -> -1e16
        | _ -> float_of_int (i mod 13) *. 1e-3)
  in
  let db = Db.create () in
  Db.load_table db "adv" (rel [ "x" ] [ floats xs ]);
  (* serial Neumaier reference, the same update sequence as
     [Agg_util.kadd_slot] *)
  let sumf = ref 0. and sumc = ref 0. in
  Array.iter
    (fun x ->
      let s = !sumf in
      let t = s +. x in
      sumc := !sumc +. Agg_util.comp_step s x t;
      sumf := t)
    xs;
  let expect = !sumf +. !sumc in
  let sql = "SELECT SUM(x) AS s FROM adv" in
  let sum_of r =
    match (Relation.row r 0).(0) with
    | Value.VFloat f -> f
    | v -> Alcotest.failf "expected VFloat, got %s" (Value.to_string v)
  in
  List.iter
    (fun backend ->
      List.iter
        (fun threads ->
          let sum settings =
            sum_of (Db.execute ~backend ~threads ~settings db sql)
          in
          let off = sum unfused and on = sum fused in
          (* fused == unfused bit-for-bit at the same thread count *)
          Alcotest.(check int64)
            (Printf.sprintf "fused bits %s @%dt" (Db.backend_name backend)
               threads)
            (Int64.bits_of_float off) (Int64.bits_of_float on);
          (* chunked vs serial: compensation keeps the merge within
             noise of the exact serial result, while a naive chunked
             sum here would be off by whole units *)
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "serial agreement %s @%dt"
               (Db.backend_name backend) threads)
            expect on)
        thread_counts)
    backends

(* ------------------------------------------------------------------ *)
(* Faults soak: kernel checkpoints recover to the clean answer        *)
(* ------------------------------------------------------------------ *)

let test_faults_soak () =
  Fun.protect ~finally:Faults.arm_from_env (fun () ->
      let db = fused_db ~settings:fused () in
      let sql =
        "SELECT tag, COUNT(*) AS n, SUM(v) AS s FROM t WHERE k < 60 GROUP BY \
         tag"
      in
      Faults.disarm ();
      let reference = Db.execute ~threads:3 db sql in
      List.iter
        (fun backend ->
          List.iter
            (fun seed ->
              Faults.arm ~seed ();
              let r = Db.execute ~backend ~threads:3 db sql in
              check_rel
                (Printf.sprintf "%s seed=%d" (Db.backend_name backend) seed)
                reference r)
            [ 7; 19; 31 ])
        backends)

let suites =
  [ ( "fused-differential",
      [ tc "global aggregates" test_global;
        tc "grouped aggregates" test_grouped;
        tc "grouped order" test_grouped_order;
        tc "filter kernels" test_filters;
        tc "raw string predicates" test_raw_strings;
        tc "aggregate fold edges" test_edges ] );
    ( "fused-sums",
      [ tc "neumaier chunked vs serial" test_neumaier_sum ] );
    ( "fused-config",
      [ tc "fault recovery with kernels on" test_faults_soak ] ) ]
