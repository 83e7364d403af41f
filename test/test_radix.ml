(** Differential tests for radix-partitioned join/aggregation execution.

    Every query runs twice on a cache-disabled database: once with radix
    partitioning forced on every join ([Radix.set_min_rows 0]) and once
    with it disabled outright. Join answers must be identical — not just
    as sets but row-for-row in output order, because downstream operators
    (window functions, positional tensor lowering) key on join output
    order; GROUP BY answers compare as multisets since aggregate output
    order is not an invariant across partitioning schemes. Datasets are chosen adversarially: heavy key skew,
    all-null keys, dictionary-coded string keys, and key ranges that leave
    most radix partitions empty. Join shapes cover inner, left/right/full
    outer, and semi/anti (EXISTS / NOT EXISTS). A final soak re-runs a
    radix-heavy query under armed fault injection: the scatter and
    per-partition build checkpoints must recover to the exact clean
    answer. *)

open Sqldb
open Helpers

(* Radix forced on every join (the row threshold drops to zero, so even
   tiny tables partition at 1 thread) against radix off. *)
let forced f = with_config ~radix:true ~radix_min_rows:0 f
let off f = with_config ~radix:false f
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
let dictkey_db () =
  let rand = Random.State.make [| 0xd1c7 |] in
  let tags = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta" |] in
  let n = 4000 in
  let db = Db.create () in
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
  with_config ~dict:false (fun () ->
      diff_queries ~label:"dictkey-raw" (dictkey_db ())
        [ "SELECT p.id, b.w FROM probe AS p, build AS b WHERE p.k = b.k";
          "SELECT p.id, b.w FROM probe AS p LEFT JOIN build AS b \
           ON p.k = b.k" ])

(* ------------------------------------------------------------------ *)
(* Faults soak: scatter/build checkpoints recover to the clean answer  *)
(* ------------------------------------------------------------------ *)

let test_faults_soak () =
  Fun.protect ~finally:Faults.arm_from_env (fun () ->
      with_config ~cache:false ~radix:true ~radix_min_rows:0 (fun () ->
          let db = skewed_db () in
          let sql =
            "SELECT b.tag, COUNT(*) AS n, SUM(p.v) AS s FROM probe AS p, \
             build AS b WHERE p.k = b.k GROUP BY b.tag"
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
                    (Printf.sprintf "%s seed=%d" (Db.backend_name backend)
                       seed)
                    reference r)
                [ 11; 23; 47 ])
            backends))

let suites =
  [ ( "radix-differential",
      [ tc "skewed keys" test_skewed;
        tc "null keys" test_null_keys;
        tc "dict-coded string keys" test_dict_keys;
        tc "raw string keys" test_dict_keys_raw;
        tc "sparse keys / empty partitions" test_sparse ] );
    ( "radix-config",
      [ tc "fault recovery under forced radix" test_faults_soak ] ) ]
