(** Differential tests for radix-partitioned join/aggregation execution.

    Every query runs twice with the result cache off: once with radix
    partitioning forced on every join (settings [grain = 0]) and once with
    it disabled outright ([radix = false]). Join answers must be identical
    — not just as sets but row-for-row in output order, because downstream
    operators (window functions, positional tensor lowering) key on join
    output order; GROUP BY answers compare as multisets since aggregate
    output order is not an invariant across partitioning schemes. Datasets
    are chosen adversarially: heavy key skew, all-null keys,
    dictionary-coded string keys, and key ranges that leave most radix
    partitions empty. Join shapes cover inner, left/right/full
    outer, and semi/anti (EXISTS / NOT EXISTS). A final soak re-runs a
    radix-heavy query under armed fault injection: the scatter and
    per-partition build checkpoints must recover to the exact clean
    answer. *)

open Sqldb
open Helpers

(* Radix forced on every join (the grain drops to zero, so even tiny
   tables partition at 1 thread) against radix off. *)
let forced = { radix_forced with cache = false }
let off = { Settings.default with radix = false; cache = false }
let diff_queries = diff_queries ~base:off ~subject:forced

(* ------------------------------------------------------------------ *)
(* Datasets                                                           *)
(* ------------------------------------------------------------------ *)

let load db name names cols = Db.load_table db name (rel names cols)

(* 90% of probe rows share one key; build side covers the key range with
   duplicates, so one partition carries almost all the probe traffic. *)
let skewed_db () =
  let rand = Random.State.make [| 0xad1e5 |] in
  let n = 6000 in
  let db = Db.create () in
  load db "probe" [ "id"; "k"; "v" ]
    [ ints (Array.init n Fun.id);
      ints
        (Array.init n (fun _ ->
             if Random.State.int rand 10 < 9 then 7
             else Random.State.int rand 100));
      floats (Array.init n (fun i -> float_of_int (i mod 37))) ];
  load db "build" [ "k"; "w"; "tag" ]
    [ ints (Array.init 220 (fun i -> i mod 110));
      ints (Array.init 220 (fun i -> i * 3));
      strings (Array.init 220 (fun i -> Printf.sprintf "t%d" (i mod 7))) ];
  db

(* Null keys must never match (inner/semi drop them, outer pads them) and
   must not be scattered into any partition. *)
let nullkey_db () =
  let n = 3000 in
  let key i =
    if i mod 3 = 0 then Value.VNull else Value.VInt (i mod 50)
  in
  let db = Db.create () in
  load db "probe" [ "id"; "k" ]
    [ ints (Array.init n Fun.id);
      Column.of_values Value.TInt (Array.init n key) ];
  load db "build" [ "k"; "w" ]
    [ Column.of_values Value.TInt
        (Array.init 100 (fun i ->
             if i mod 4 = 0 then Value.VNull else Value.VInt (i mod 50)));
      ints (Array.init 100 (fun i -> i * 10)) ];
  (* an all-null build side: every partition table is empty *)
  load db "allnull" [ "k"; "z" ]
    [ Column.of_values Value.TInt (Array.make 500 Value.VNull);
      ints (Array.init 500 Fun.id) ];
  db

(* String keys from a small alphabet dict-encode at ingest; the radix hash
   must route codes by decoded value so both physical layouts agree. *)
let dictkey_db ?settings () =
  let rand = Random.State.make [| 0xd1c7 |] in
  let tags = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta" |] in
  let n = 4000 in
  let db = Db.create ?settings () in
  load db "probe" [ "id"; "k" ]
    [ ints (Array.init n Fun.id);
      strings (Array.init n (fun _ -> tags.(Random.State.int rand 6))) ];
  load db "build" [ "k"; "w" ]
    [ strings [| "alpha"; "gamma"; "epsilon"; "omega" |];
      ints [| 1; 2; 3; 4 |] ];
  db

(* Keys that are multiples of 64 leave the low radix bits constant: with
   few partition bits most partitions are empty, exercising the
   empty-partition path of build and probe. *)
let sparse_db () =
  let n = 4096 in
  let db = Db.create () in
  load db "probe" [ "id"; "k" ]
    [ ints (Array.init n Fun.id); ints (Array.init n (fun i -> i / 8 * 64)) ];
  load db "build" [ "k"; "w" ]
    [ ints (Array.init 32 (fun i -> i * 64 * 4));
      ints (Array.init 32 Fun.id) ];
  db

(* ------------------------------------------------------------------ *)
(* Query shapes                                                       *)
(* ------------------------------------------------------------------ *)

let int_key_queries =
  [ "SELECT p.id, p.k, b.w FROM probe AS p, build AS b WHERE p.k = b.k";
    "SELECT p.k, COUNT(*) AS n FROM probe AS p, build AS b \
     WHERE p.k = b.k GROUP BY p.k";
    "SELECT p.id, b.w FROM probe AS p LEFT JOIN build AS b ON p.k = b.k";
    "SELECT p.id, b.w FROM probe AS p RIGHT JOIN build AS b ON p.k = b.k";
    "SELECT COUNT(*) AS n FROM probe AS p FULL JOIN build AS b ON p.k = b.k";
    "SELECT p.id FROM probe AS p WHERE EXISTS \
     (SELECT * FROM build AS b WHERE b.k = p.k)";
    "SELECT p.id FROM probe AS p WHERE NOT EXISTS \
     (SELECT * FROM build AS b WHERE b.k = p.k)" ]

let test_skewed () =
  diff_queries ~label:"skewed" (skewed_db ())
    (int_key_queries
    @ [ "SELECT b.tag, COUNT(*) AS n, SUM(p.v) AS s FROM probe AS p, \
         build AS b WHERE p.k = b.k GROUP BY b.tag" ])

let test_null_keys () =
  diff_queries ~label:"nullkey" (nullkey_db ())
    (int_key_queries
    @ [ "SELECT p.id, a.z FROM probe AS p, allnull AS a WHERE p.k = a.k";
        "SELECT p.id, a.z FROM probe AS p LEFT JOIN allnull AS a \
         ON p.k = a.k";
        "SELECT p.id FROM probe AS p WHERE NOT EXISTS \
         (SELECT * FROM allnull AS a WHERE a.k = p.k)" ])

let test_dict_keys () =
  diff_queries ~label:"dictkey" (dictkey_db ())
    [ "SELECT p.id, b.w FROM probe AS p, build AS b WHERE p.k = b.k";
      "SELECT p.k, COUNT(*) AS n FROM probe AS p, build AS b \
       WHERE p.k = b.k GROUP BY p.k";
      "SELECT p.id, b.w FROM probe AS p LEFT JOIN build AS b ON p.k = b.k";
      "SELECT p.id FROM probe AS p WHERE EXISTS \
       (SELECT * FROM build AS b WHERE b.k = p.k)";
      "SELECT p.id FROM probe AS p WHERE NOT EXISTS \
       (SELECT * FROM build AS b WHERE b.k = p.k)" ]

let test_sparse () = diff_queries ~label:"sparse" (sparse_db ()) int_key_queries

(* Dict-key differential must also hold with encoding disabled: raw string
   keys take the decode hash path. *)
let test_dict_keys_raw () =
  diff_queries ~label:"dictkey-raw"
    (dictkey_db ~settings:{ Settings.default with dict = false } ())
    [ "SELECT p.id, b.w FROM probe AS p, build AS b WHERE p.k = b.k";
      "SELECT p.id, b.w FROM probe AS p LEFT JOIN build AS b ON p.k = b.k" ]

(* ------------------------------------------------------------------ *)
(* Faults soak: scatter/build checkpoints recover to the clean answer  *)
(* ------------------------------------------------------------------ *)

let test_faults_soak () =
  Fun.protect ~finally:Faults.arm_from_env (fun () ->
      let db = skewed_db () and settings = forced in
      let sql =
        "SELECT b.tag, COUNT(*) AS n, SUM(p.v) AS s FROM probe AS p, build \
         AS b WHERE p.k = b.k GROUP BY b.tag"
      in
      Faults.disarm ();
      let reference = Db.execute ~threads:3 ~settings db sql in
      List.iter
        (fun backend ->
          List.iter
            (fun seed ->
              Faults.arm ~seed ();
              let r = Db.execute ~backend ~threads:3 ~settings db sql in
              check_rel
                (Printf.sprintf "%s seed=%d" (Db.backend_name backend) seed)
                reference r)
            [ 11; 23; 47 ])
        backends)

(* A build under the size gate is one region with no chunk retry of its
   own, so it must be no fault site: otherwise, under injection, an
   ordinary small join would escape to [Db.execute]'s whole-query retry.
   Forty builds per seed would draw several crashes if it were one. *)
let test_small_build_no_fault_site () =
  let cols = [| ints (Array.init 500 (fun i -> i mod 50)) |] in
  Fun.protect ~finally:Faults.arm_from_env (fun () ->
      List.iter
        (fun seed ->
          Faults.arm ~seed ();
          List.iter
            (fun threads ->
              for _ = 1 to 40 do
                let t =
                  Radix.build ~settings:Settings.default ~threads cols [ 0 ]
                    ~n:500
                in
                Alcotest.(check int) "one partition" 0 t.Radix.mask
              done)
            thread_counts)
        [ 11; 23; 47 ])

(* ------------------------------------------------------------------ *)
(* Join edge cases against a nested-loop reference                    *)
(* ------------------------------------------------------------------ *)

(* Probe rows (id, k, v) and build rows (k, w); NULL keys on both sides.
   Build key 1 has 5142 rows, so one key's matches run past a 4096-row
   morsel; probe key 1 sits on either side of the first probe morsel
   boundary. The probe side is the larger, so inner joins probe it. *)
let edge_probe =
  Array.init 12000 (fun i ->
      let k =
        if i mod 11 = 0 then None
        else if i = 100 || i = 4500 then Some 1
        else Some ((i mod 15000) + 2)
      in
      (i, k, (i * 7919) mod 613))

let edge_build =
  Array.init 9000 (fun i ->
      let k =
        if i mod 7 = 0 then None
        else if i mod 3 <> 2 then Some 1
        else Some ((i mod 1000) + 2)
      in
      (k, (i * 104729) mod 997))

let edge_db () =
  let db = Db.create () in
  let key k = match k with Some k -> Value.VInt k | None -> Value.VNull in
  load db "probe" [ "id"; "k"; "v" ]
    [ ints (Array.map (fun (i, _, _) -> i) edge_probe);
      Column.of_values Value.TInt (Array.map (fun (_, k, _) -> key k) edge_probe);
      ints (Array.map (fun (_, _, v) -> v) edge_probe) ];
  load db "build" [ "k"; "w" ]
    [ Column.of_values Value.TInt (Array.map (fun (k, _) -> key k) edge_build);
      ints (Array.map snd edge_build) ];
  db

(* The nested-loop reference, once: for each probe row, the build rows
   (indices) whose key equals its non-NULL key, in build order. *)
let edge_matches =
  lazy
    (Array.map
       (fun (_, pk, _) ->
         let acc = ref [] in
         for j = Array.length edge_build - 1 downto 0 do
           match (pk, fst edge_build.(j)) with
           | Some pk, Some bk when pk = bk -> acc := j :: !acc
           | _ -> ()
         done;
         !acc)
       edge_probe)

(* probe row [i]'s matches that pass the residual [on] *)
let matches ?(on = fun _ _ -> true) i =
  List.filter
    (fun j -> on edge_probe.(i) edge_build.(j))
    (Lazy.force edge_matches).(i)

(* Rows render as {!ordered_rows} does: probe id (= index), build w. *)
let row cells = String.concat "|" cells
let pair_row i j = row [ string_of_int i; string_of_int (snd edge_build.(j)) ]
let probe_only i = row [ string_of_int i; "NULL" ]

(* probe sides: scan order, and sorted by v descending then id (a
   non-monotone selection vector) *)
let scan = List.init (Array.length edge_probe) Fun.id

let sorted =
  let v i = let _, _, v = edge_probe.(i) in v in
  List.sort (fun i j -> compare (v j, i) (v i, j)) scan

let inner ?on probe =
  List.concat_map (fun i -> List.map (pair_row i) (matches ?on i)) probe

(* Outer completion: unmatched probe rows, then build rows, in scan order
   after all pairs, as the vectorized executor emits them. *)
let left ?on probe =
  inner ?on probe
  @ List.filter_map
      (fun i -> if matches ?on i = [] then Some (probe_only i) else None)
      probe

let unmatched_build () =
  let hit = Array.make (Array.length edge_build) false in
  List.iter (fun i -> List.iter (fun j -> hit.(j) <- true) (matches i)) scan;
  List.filter_map
    (fun j ->
      if hit.(j) then None
      else Some (row [ "NULL"; string_of_int (snd edge_build.(j)) ]))
    (List.init (Array.length edge_build) Fun.id)

(* The fused compiled LEFT probe pads each unmatched row in place. *)
let left_interleaved ?on probe =
  List.concat_map
    (fun i ->
      match matches ?on i with
      | [] -> [ probe_only i ]
      | js -> List.map (pair_row i) js)
    probe

let semi ~anti ?on probe =
  List.filter_map
    (fun i ->
      if (matches ?on i <> []) <> anti then Some (string_of_int i) else None)
    probe

let w_gt_v (_, _, v) (_, w) = w > v
let w_gt_5 _ (_, w) = w > 5

(* (sql, reference on the vectorized engine, reference on the compiled
   one when it differs) *)
let edge_cases () =
  let right = inner scan @ unmatched_build () in
  let full = left scan @ unmatched_build () in
  let same sql r = (sql, r, r) in
  let first_1000 = List.filter (fun i -> i < 1000) scan in
  [ same "SELECT p.id, b.w FROM probe AS p, build AS b WHERE p.k = b.k"
      (inner scan);
    same
      "SELECT p.id, b.w FROM probe AS p, build AS b WHERE p.k = b.k \
       AND b.w > p.v"
      (inner ~on:w_gt_v scan);
    same
      "SELECT p.id, b.w FROM (SELECT id, k, v FROM probe ORDER BY v DESC, \
       id) AS p, build AS b WHERE p.k = b.k"
      (inner sorted);
    (* an empty build side, then an empty probe side *)
    same
      "SELECT p.id, b.w FROM probe AS p, build AS b WHERE p.k = b.k \
       AND b.w < 0"
      [];
    same
      "SELECT p.id, b.w FROM probe AS p LEFT JOIN (SELECT k, w FROM build \
       WHERE w < 0) AS b ON p.k = b.k"
      (List.map probe_only scan);
    same
      "SELECT p.id, b.w FROM (SELECT id, k FROM probe WHERE id < 0) AS p \
       RIGHT JOIN build AS b ON p.k = b.k"
      (List.map
         (fun (_, w) -> row [ "NULL"; string_of_int w ])
         (Array.to_list edge_build));
    same
      "SELECT p.id FROM probe AS p WHERE EXISTS (SELECT * FROM build AS b \
       WHERE b.k = p.k AND b.w > p.v)"
      (semi ~anti:false ~on:w_gt_v scan);
    same
      "SELECT p.id FROM probe AS p WHERE NOT EXISTS (SELECT * FROM build \
       AS b WHERE b.k = p.k AND b.w > p.v)"
      (semi ~anti:true ~on:w_gt_v scan);
    same
      "SELECT p.id FROM (SELECT id, k, v FROM probe ORDER BY v DESC, id) \
       AS p WHERE EXISTS (SELECT * FROM build AS b WHERE b.k = p.k)"
      (semi ~anti:false sorted);
    (* a subquery side over twice the outer side inverts the probe *)
    same
      "SELECT p.id FROM probe AS p WHERE p.id < 1000 AND EXISTS \
       (SELECT * FROM build AS b WHERE b.k = p.k)"
      (semi ~anti:false first_1000);
    same
      "SELECT p.id FROM probe AS p WHERE p.id < 1000 AND NOT EXISTS \
       (SELECT * FROM build AS b WHERE b.k = p.k)"
      (semi ~anti:true first_1000);
    ( "SELECT p.id, b.w FROM probe AS p LEFT JOIN build AS b ON p.k = b.k",
      left scan,
      left_interleaved scan );
    ( "SELECT p.id, b.w FROM probe AS p LEFT JOIN build AS b \
       ON p.k = b.k AND b.w > 5",
      left ~on:w_gt_5 scan,
      left_interleaved ~on:w_gt_5 scan );
    same "SELECT p.id, b.w FROM probe AS p RIGHT JOIN build AS b ON p.k = b.k"
      right;
    same "SELECT p.id, b.w FROM probe AS p FULL JOIN build AS b ON p.k = b.k"
      full ]

(* Each case under forced radix and at the default, through
   [execute_everywhere], whose every run must also equal the reference row
   for row, in order. *)
let test_join_edges () =
  let db = edge_db () in
  let cases = edge_cases () in
  List.iter
    (fun (label, settings) ->
      List.iter
        (fun (sql, vec, comp) ->
          let each backend threads r =
            Alcotest.(check (list string))
              (Printf.sprintf "%s %s @%dt | %s" label
                 (Db.backend_name backend) threads sql)
              (if backend = Db.Compiled then comp else vec)
              (ordered_rows r)
          in
          ignore (execute_everywhere ~each ~settings db sql))
        cases)
    [ ("radix forced", forced);
      ("default", { Settings.default with cache = false }) ]

let suites =
  [ ( "radix-differential",
      [ tc "skewed keys" test_skewed;
        tc "null keys" test_null_keys;
        tc "dict-coded string keys" test_dict_keys;
        tc "raw string keys" test_dict_keys_raw;
        tc "sparse keys / empty partitions" test_sparse ] );
    ("join-edges", [ tc "nested-loop reference, in order" test_join_edges ]);
    ( "radix-config",
      [ tc "fault recovery under forced radix" test_faults_soak;
        tc "a small build is no fault site" test_small_build_no_fault_site ]
    ) ]
