(** Differential suite for the key table ({!Hash_util.keytab}): the one
    hash structure behind joins, GROUP BY, SELECT DISTINCT and
    COUNT(DISTINCT) in both executors.

    Key columns are generated from fixed seeds in every pair of physical
    layouts the executors must equate: ints, dictionary codes over one
    shared and over two different dictionaries, dictionary vs raw strings,
    floats with -0.0 and NaN, bools, and NULLs, over one to three key
    columns, plus a key duplicated 10k times. The tables go into a catalog
    as generated (no ingest encoding), and
    every query runs on both executors at 1 and 3 threads with radix
    partitioning forced on and off. Each answer is checked, as a multiset,
    against a nested-loop / association-list reference written here with
    the documented key semantics: floats compare with [Float.equal]
    (-0.0 = 0.0, NaN = NaN), joins never match a NULL key component, and
    grouping treats NULL as a value. A clustered table checks the per-run
    DISTINCT fold that stands in for the key table when each group arrives
    as one run, and the inputs that must keep the key table. *)

open Sqldb
open Value
open Helpers

(* ------------------------------------------------------------------ *)
(* Reference semantics                                                *)
(* ------------------------------------------------------------------ *)

(* Non-null component equality: same family, equal value. *)
let value_eq (a : Value.t) (b : Value.t) =
  match (a, b) with
  | (VInt x | VDate x), (VInt y | VDate y) -> x = y
  | VFloat x, VFloat y -> Float.equal x y
  | VString x, VString y -> String.equal x y
  | VBool x, VBool y -> x = y
  | _ -> false

let join_eq ka kb =
  List.for_all2
    (fun a b -> (not (Value.is_null a)) && (not (Value.is_null b)) && value_eq a b)
    ka kb

let group_eq ka kb =
  List.for_all2
    (fun a b ->
      match (a, b) with
      | VNull, VNull -> true
      | VNull, _ | _, VNull -> false
      | a, b -> value_eq a b)
    ka kb

(* Exact rendering: floats in hex so -0.0, NaN and 0.1+0.2 stay distinct. *)
let render_value (v : Value.t) =
  match v with VFloat f -> Printf.sprintf "%h" f | v -> Value.to_string v

let render_row (vs : Value.t list) = String.concat "|" (List.map render_value vs)

let rows_of (r : Relation.t) : string list =
  List.sort String.compare
    (List.init (Relation.n_rows r) (fun i ->
         render_row (Array.to_list (Relation.row r i))))

(* First-seen association list: [(key, rows in order)]. *)
let group_rows (keys : Value.t list array) : (Value.t list * int list) list =
  let groups = ref [] in
  Array.iteri
    (fun i k ->
      match List.find_opt (fun (k', _) -> group_eq k k') !groups with
      | Some (_, rows) -> rows := i :: !rows
      | None -> groups := (k, ref [ i ]) :: !groups)
    keys;
  List.rev_map (fun (k, rows) -> (k, List.rev !rows)) !groups

let count_distinct (vs : Value.t list) =
  List.length
    (group_rows (Array.of_list (List.filter_map
       (fun v -> if Value.is_null v then None else Some [ v ]) vs)))

(* ------------------------------------------------------------------ *)
(* Generated key columns                                              *)
(* ------------------------------------------------------------------ *)

type layout =
  | Ints
  | Floats
  | Bools
  | Raw (* raw string array *)
  | Dict (* dictionary of its own side *)
  | Shared (* dictionary shared with the other side *)

let gen_value rand (l : layout) : Value.t =
  match l with
  | Ints -> VInt (Random.State.int rand 6)
  | Floats ->
    VFloat
      [| 0.0; -0.0; Float.nan; 0.1 +. 0.2; 0.3; 1.0 |].(Random.State.int rand 6)
  | Bools -> VBool (Random.State.bool rand)
  | Raw | Dict | Shared ->
    VString [| "a"; "bb"; ""; "c"; "dd"; "e" |].(Random.State.int rand 6)

let ty_of = function
  | Ints -> Value.TInt
  | Floats -> Value.TFloat
  | Bools -> Value.TBool
  | Raw | Dict | Shared -> Value.TString

let column (l : layout) (vs : Value.t array) : Column.t =
  let c = Column.of_values (ty_of l) vs in
  match l with
  | Dict -> Column.encode c
  | Ints | Floats | Bools | Raw | Shared -> c

(* Both sides' columns of one key component; [Shared] encodes the two sides
   as one column and splits it, so both hold codes of one dictionary. *)
let column_pair (ll, rl) lvals rvals =
  match (ll, rl) with
  | Shared, Shared ->
    let nl = Array.length lvals and nr = Array.length rvals in
    let c = Column.encode (Column.of_values TString (Array.append lvals rvals)) in
    ( Column.take c (Array.init nl Fun.id),
      Column.take c (Array.init nr (fun i -> nl + i)) )
  | _ -> (column ll lvals, column rl rvals)

(* one key component: left layout, right layout, NULLs generated *)
type comp = { left : layout; right : layout; nullable : bool }

let c ?(nullable = false) left right = { left; right; nullable }

let gen_keys rand comps n side : Value.t array list =
  List.map
    (fun cp ->
      let l = if side = `L then cp.left else cp.right in
      Array.init n (fun _ ->
          if cp.nullable && Random.State.int rand 8 = 0 then Value.VNull
          else gen_value rand l))
    comps

(* L(lid, lg, lv, a1..ak) and R(rid, b1..bk) plus the raw key values. *)
type case = {
  name : string;
  k : int;
  cat : Catalog.t;
  lkeys : Value.t list array; (* per L row *)
  rkeys : Value.t list array;
  lg : int array;
  lv : int array;
}

let make_case ~name ~seed ?(nl = 400) ?(nr = 150) ?skew comps : case =
  let rand = Random.State.make [| seed |] in
  let k = List.length comps in
  let lcols = gen_keys rand comps nl `L and rcols = gen_keys rand comps nr `R in
  (* a skewed case pins most probe rows (and a few build rows) to one key *)
  (match skew with
  | None -> ()
  | Some dup ->
    List.iter2
      (fun la ra ->
        let hot = ra.(0) in
        Array.iteri (fun i _ -> if i < dup then la.(i) <- hot) la;
        Array.iteri (fun i _ -> if i < 3 then ra.(i) <- hot) ra)
      lcols rcols);
  let pairs =
    List.map2
      (fun (cp, la) ra -> column_pair (cp.left, cp.right) la ra)
      (List.combine comps lcols) rcols
  in
  let lg = Array.init nl (fun _ -> Random.State.int rand 4) in
  let lv = Array.init nl (fun _ -> Random.State.int rand 100) in
  let names p = List.init k (fun j -> Printf.sprintf "%s%d" p (j + 1)) in
  let cat = Catalog.create () in
  Catalog.add_transient cat "L"
    (rel
       ([ "lid"; "lg"; "lv" ] @ names "a")
       ([ ints (Array.init nl Fun.id); ints lg; ints lv ] @ List.map fst pairs));
  Catalog.add_transient cat "R"
    (rel ("rid" :: names "b") (ints (Array.init nr Fun.id) :: List.map snd pairs));
  let rows cols n = Array.init n (fun i -> List.map (fun a -> a.(i)) cols) in
  { name; k; cat; lkeys = rows lcols nl; rkeys = rows rcols nr; lg; lv }

(* ------------------------------------------------------------------ *)
(* Queries and their references                                       *)
(* ------------------------------------------------------------------ *)

let on_clause k =
  String.concat " AND "
    (List.init k (fun j -> Printf.sprintf "a%d = b%d" (j + 1) (j + 1)))

let a_list k =
  String.concat ", " (List.init k (fun j -> Printf.sprintf "a%d" (j + 1)))

let vint i = Value.VInt i

let queries (cs : case) : (string * string list) list =
  let k = cs.k in
  let nl = Array.length cs.lkeys and nr = Array.length cs.rkeys in
  let matches i =
    List.filter
      (fun j -> join_eq cs.lkeys.(i) cs.rkeys.(j))
      (List.init nr Fun.id)
  in
  let lids = List.init nl Fun.id in
  let inner =
    List.concat_map
      (fun i -> List.map (fun j -> render_row [ vint i; vint j ]) (matches i))
      lids
  in
  let left =
    List.concat_map
      (fun i ->
        match matches i with
        | [] -> [ render_row [ vint i; VNull ] ]
        | js -> List.map (fun j -> render_row [ vint i; vint j ]) js)
      lids
  in
  let semi anti =
    List.filter_map
      (fun i ->
        if (matches i <> []) <> anti then Some (render_row [ vint i ]) else None)
      lids
  in
  let groups = group_rows cs.lkeys in
  let group_by =
    List.map
      (fun (key, rows) ->
        render_row
          (key @ [ vint (List.length rows);
                   vint (List.fold_left (fun s i -> s + cs.lv.(i)) 0 rows) ]))
      groups
  in
  let distinct = List.map (fun (key, _) -> render_row key) groups in
  let last i = List.nth cs.lkeys.(i) (k - 1) and first i = List.hd cs.lkeys.(i) in
  let count_distinct_by_lg =
    List.map
      (fun (g, rows) ->
        render_row
          (g @ [ vint (count_distinct (List.map first rows));
                 vint (count_distinct (List.map last rows)) ]))
      (group_rows (Array.map (fun g -> [ vint g ]) cs.lg))
  in
  let sorted = List.sort String.compare in
  [ ( Printf.sprintf "SELECT lid, rid FROM L JOIN R ON %s" (on_clause k),
      sorted inner );
    ( Printf.sprintf "SELECT lid, rid FROM L LEFT JOIN R ON %s" (on_clause k),
      sorted left );
    ( Printf.sprintf "SELECT lid FROM L WHERE EXISTS (SELECT rid FROM R WHERE %s)"
        (on_clause k),
      sorted (semi false) );
    ( Printf.sprintf
        "SELECT lid FROM L WHERE NOT EXISTS (SELECT rid FROM R WHERE %s)"
        (on_clause k),
      sorted (semi true) );
    ( Printf.sprintf "SELECT %s, COUNT(*), SUM(lv) FROM L GROUP BY %s" (a_list k)
        (a_list k),
      sorted group_by );
    (Printf.sprintf "SELECT DISTINCT %s FROM L" (a_list k), sorted distinct);
    ( Printf.sprintf
        "SELECT lg, COUNT(DISTINCT a1), COUNT(DISTINCT a%d) FROM L GROUP BY lg" k,
      sorted count_distinct_by_lg );
    ( "SELECT COUNT(DISTINCT a1) FROM L",
      [ render_row
          [ vint (count_distinct (Array.to_list (Array.map List.hd cs.lkeys)))
          ] ] ) ]

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)
(* ------------------------------------------------------------------ *)

(* Every query on both executors at 1 and 3 threads, radix forced and off,
   against its expected multiset of rendered rows. *)
let check_queries name cat queries =
  List.iter
    (fun (sql, expected) ->
      let bq = Planner.plan_query cat (Sql_parse.parse sql) in
      List.iter
        (fun (bname, run) ->
          List.iter
            (fun threads ->
              List.iter
                (fun (radix, settings) ->
                  let r = run ~threads ~settings cat bq in
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s %s @%dt radix %s | %s" name bname
                       threads radix sql)
                    expected (rows_of r))
                [ ("off", { Settings.default with radix = false });
                  ("forced", radix_forced) ])
            [ 1; 3 ])
        [ ( "vectorized",
            fun ~threads ~settings cat bq ->
              Exec_vectorized.run_query ~threads ~settings cat bq );
          ( "compiled",
            fun ~threads ~settings cat bq ->
              Exec_compiled.run_query ~threads ~settings cat bq ) ])
    queries

let check_case (cs : case) () = check_queries cs.name cs.cat (queries cs)

let cases =
  [ ("int vs int", 1, [ c Ints Ints ]);
    ("int vs int, nulls", 2, [ c ~nullable:true Ints Ints ]);
    ("dict, one shared dictionary", 3, [ c Shared Shared ]);
    ("dict, two dictionaries, nulls", 4, [ c ~nullable:true Dict Dict ]);
    ("dict vs raw string", 5, [ c Dict Raw ]);
    ("raw string vs dict, nulls", 6, [ c ~nullable:true Raw Dict ]);
    ("float -0.0 and NaN, nulls", 7, [ c ~nullable:true Floats Floats ]);
    ("bool, nulls", 8, [ c ~nullable:true Bools Bools ]);
    ("int + dict/raw", 9, [ c Ints Ints; c ~nullable:true Dict Raw ]);
    ( "int + float + shared dict",
      10,
      [ c ~nullable:true Ints Ints; c Floats Floats; c Shared Shared ] );
    ( "bool + raw/dict + float",
      11,
      [ c Bools Bools; c Raw Dict; c ~nullable:true Floats Floats ] ) ]

let differential =
  List.map
    (fun (name, seed, comps) -> tc name (check_case (make_case ~name ~seed comps)))
    cases

(* 10k probe rows on one key that three build rows share: every probe
   partition but one is nearly empty, and the hot key's match list is
   walked 10k times. *)
let skewed =
  tc "10k-duplicate skewed key"
    (check_case
       (make_case ~name:"skew" ~seed:12 ~nl:10_000 ~nr:150 ~skew:10_000
          [ c Ints Ints; c Dict Raw ]))

(* ------------------------------------------------------------------ *)
(* DISTINCT aggregates over clustered keys                            *)
(* ------------------------------------------------------------------ *)

(* C(ck, kdate, kdesc, kinter, knull, cv, cvb, cw): [ck] is non-decreasing
   in runs of 1 to 12 rows, with one run of 200 rows and one of 60 (past
   the per-run set's linear bound and its first table size); [kdate] is
   the same keys as dates. The other keys decline the per-run fold:
   [kdesc] is [ck] reversed, [kinter] interleaves seven groups, [knull] is
   [ck] with NULLs. [cv] (and its copy [cvb]) repeats small values
   across runs, with NULLs inside runs; [cw] is a permutation of the rows.
   D holds every other key of [ck]. *)
type clustered = {
  ccat : Catalog.t;
  key : string -> Value.t array;
  cv : Value.t array;
  cw : int array;
  dkeys : int list;
}

let make_clustered () : clustered =
  let rand = Random.State.make [| 23 |] in
  let runs =
    List.init 12 (fun i -> i + 1) @ [ 200 ]
    @ List.init 20 (fun _ -> 1 + Random.State.int rand 8)
    @ [ 60 ]
    @ List.init 10 (fun _ -> 1 + Random.State.int rand 4)
  in
  (* a run's (key, value) rows; long runs draw from a wider range *)
  let run k len =
    List.init len (fun _ ->
        ( k,
          if Random.State.int rand 7 = 0 then VNull
          else VInt (Random.State.int rand (if len > 50 then 150 else 7)) ))
  in
  let _, rows =
    List.fold_left
      (fun (k, acc) len -> (k + 1 + Random.State.int rand 3, acc @ run k len))
      (-5, []) runs
  in
  let ck = Array.of_list (List.map fst rows)
  and cv = Array.of_list (List.map snd rows) in
  let n = Array.length ck in
  let cw = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = cw.(i) in
    cw.(i) <- cw.(j);
    cw.(j) <- t
  done;
  let keys = Hashtbl.create 8 in
  let vints a = Array.map (fun k -> VInt k) a in
  Hashtbl.replace keys "ck" (vints ck);
  Hashtbl.replace keys "kdate" (Array.map (fun k -> VDate k) ck);
  Hashtbl.replace keys "kdesc" (vints (Array.init n (fun i -> ck.(n - 1 - i))));
  Hashtbl.replace keys "kinter" (vints (Array.init n (fun i -> i mod 7)));
  Hashtbl.replace keys "knull"
    (Array.mapi (fun i k -> if i mod 13 = 5 then VNull else VInt k) ck);
  let key name = Hashtbl.find keys name in
  let dkeys =
    List.filteri
      (fun i _ -> i mod 2 = 0)
      (List.sort_uniq compare (Array.to_list ck))
  in
  let cat = Catalog.create () in
  Catalog.add_transient cat "C"
    (rel
       [ "ck"; "kdate"; "kdesc"; "kinter"; "knull"; "cv"; "cvb"; "cw" ]
       [ ints ck;
         Column.of_values TDate (key "kdate");
         Column.of_values TInt (key "kdesc");
         Column.of_values TInt (key "kinter");
         Column.of_values TInt (key "knull");
         Column.of_values TInt cv;
         Column.of_values TInt cv;
         ints cw ]);
  Catalog.add_transient cat "D" (rel [ "dk" ] [ ints (Array.of_list dkeys) ]);
  { ccat = cat; key; cv; cw; dkeys }

(* COUNT, SUM, AVG and MIN of the distinct non-null ints in [vs]. *)
let distinct_aggs (vs : Value.t list) : Value.t list =
  let ds =
    List.sort_uniq compare
      (List.filter_map (function VInt x -> Some x | _ -> None) vs)
  in
  let sum = List.fold_left ( + ) 0 ds in
  match ds with
  | [] -> [ vint 0; VNull; VNull; VNull ]
  | d :: _ ->
    [ vint (List.length ds);
      vint sum;
      VFloat (float_of_int sum /. float_of_int (List.length ds));
      vint d ]

let clustered_queries (c : clustered) : (string * string list) list =
  let n = Array.length c.cv in
  let rows = List.init n Fun.id in
  (* grouped by the values of [key] among [rows], NULL a group of its own *)
  let grouped key rows =
    let rows = Array.of_list rows in
    List.sort String.compare
      (List.map
         (fun (g, pos) ->
           let vs = List.map (fun p -> c.cv.(rows.(p))) pos in
           let count = List.length (List.filter (fun v -> v <> VNull) vs) in
           render_row (g @ distinct_aggs vs @ [ vint count ]))
         (group_rows (Array.map (fun i -> [ key.(i) ]) rows)))
  in
  let aggs =
    "COUNT(DISTINCT cv), SUM(DISTINCT cv), AVG(DISTINCT cvb), \
     MIN(DISTINCT cv), COUNT(cv)"
  in
  let by k =
    ( Printf.sprintf "SELECT %s, %s FROM C GROUP BY %s" k aggs k,
      grouped (c.key k) rows )
  in
  let ck = c.key "ck" in
  let pick keep = List.filter keep rows in
  [ by "ck";
    by "kdate";
    by "kdesc";
    by "kinter";
    by "knull";
    ( Printf.sprintf "SELECT ck, %s FROM C WHERE cw %% 3 <> 0 GROUP BY ck" aggs,
      grouped ck (pick (fun i -> c.cw.(i) mod 3 <> 0)) );
    ( Printf.sprintf
        "SELECT ck, %s FROM (SELECT ck, cv, cvb FROM C ORDER BY cw) s \
         GROUP BY ck"
        aggs,
      grouped ck rows );
    ( Printf.sprintf "SELECT ck, %s FROM C JOIN D ON ck = dk GROUP BY ck" aggs,
      grouped ck
        (pick (fun i ->
             match ck.(i) with VInt k -> List.mem k c.dkeys | _ -> false)) );
    ( "SELECT COUNT(DISTINCT cv), SUM(DISTINCT cvb), AVG(DISTINCT cv), \
       MIN(DISTINCT cv) FROM C",
      [ render_row (distinct_aggs (Array.to_list c.cv)) ] ) ]

let clustered_distinct =
  tc "DISTINCT aggregates over clustered and unclustered keys" (fun () ->
      let c = make_clustered () in
      let cols name =
        let r = (Catalog.find c.ccat "C").Catalog.rel in
        [| r.Relation.cols.(Option.get (Relation.col_index r name)) |]
      in
      List.iter
        (fun (k, runs) ->
          Alcotest.(check bool)
            ("in_runs " ^ k) runs
            (Agg_util.in_runs (cols k) [ 0 ] ~n:(Array.length c.cv) Fun.id))
        [ ("ck", true); ("kdate", true); ("kdesc", false); ("kinter", false);
          ("knull", false); ("cv", false) ];
      check_queries "clustered" c.ccat (clustered_queries c))

(* ------------------------------------------------------------------ *)
(* Growth and float keys                                              *)
(* ------------------------------------------------------------------ *)

(* A table sized for one key must grow through many doublings (NULL flags
   included) and still find every key at its first-seen id; the GROUP BY
   state built on it (sized for one group) must aggregate exactly. *)
let growth =
  tc "table grows from a tiny size estimate" (fun () ->
      let n = 5000 in
      let a = Array.init n (fun i -> (i * 7919) mod 1999) in
      let b =
        Array.init n (fun i ->
            if i mod 11 = 0 then VNull
            else VString (Printf.sprintf "s%d" (i mod 7)))
      in
      let cols =
        [| ints a; Column.of_values TString b; ints (Array.init n Fun.id) |]
      in
      let kt = Hash_util.keytab ~size:1 cols [ 0; 1 ] in
      let rd = Option.get (Hash_util.reader ~null_as_key:true kt cols [ 0; 1 ]) in
      let ids = Array.init n (Hash_util.add kt rd) in
      let reference = group_rows (Array.init n (fun i -> [ vint a.(i); b.(i) ])) in
      Alcotest.(check int)
        "distinct keys" (List.length reference) (Hash_util.length kt);
      Array.iteri
        (fun i id ->
          Alcotest.(check int) "stable id" id (Hash_util.find kt rd i))
        ids;
      let keys = Hash_util.key_columns kt in
      Alcotest.(check (list string))
        "key columns in first-seen order"
        (List.map (fun (key, _) -> render_row key) reference)
        (List.init (Hash_util.length kt) (fun e ->
             render_row [ Column.get keys.(0) e; Column.get keys.(1) e ]));
      let spec : Plan.agg_spec =
        { fn = Sql_ast.Sum; arg = Some 2; distinct = false; out_name = "s";
          out_ty = TInt }
      in
      let args = Agg_util.column_args [| spec |] cols in
      let g = Agg_util.groups_create ~size:1 [| spec |] args cols [ 0; 1 ] in
      let feed = Agg_util.groups_feeder g args cols [ 0; 1 ] in
      for i = 0 to n - 1 do
        feed i
      done;
      let out =
        Agg_util.groups_relation g
          [| ("a", TInt); ("b", TString); ("s", TInt) |]
      in
      Alcotest.(check (list string))
        "sums"
        (List.sort String.compare
           (List.map
              (fun (key, rows) ->
                render_row (key @ [ vint (List.fold_left ( + ) 0 rows) ]))
              reference))
        (rows_of out))

(* Distinct floats that print alike must stay distinct keys: 0.1 + 0.2 and
   0.3 differ in their last bits. *)
let float_keys =
  tc "float keys compare exactly" (fun () ->
      let db = Db.create () in
      Db.load_table db "t" (rel [ "g" ] [ floats [| 0.1 +. 0.2; 0.3; 1.0; 2.0 |] ]);
      Db.load_table db "k" (rel [ "k" ] [ floats [| 0.3 |] ]);
      Db.load_table db "z"
        (rel [ "z" ] [ floats [| 0.0; -0.0; Float.nan; Float.nan |] ]);
      Db.load_table db "zk" (rel [ "zk" ] [ floats [| -0.0 |] ]);
      List.iter
        (fun backend ->
          let n sql = Relation.n_rows (Db.execute ~backend db sql) in
          let scalar sql = Relation.row (Db.execute ~backend db sql) 0 in
          let name = Db.backend_name backend in
          Alcotest.(check int) (name ^ " GROUP BY g") 4
            (n "SELECT g, COUNT(*) FROM t GROUP BY g");
          Alcotest.(check string) (name ^ " COUNT(DISTINCT g)") "4"
            (Value.to_string (scalar "SELECT COUNT(DISTINCT g) FROM t").(0));
          Alcotest.(check int) (name ^ " JOIN ON g = k") 1
            (n "SELECT g FROM t JOIN k ON g = k");
          Alcotest.(check int) (name ^ " -0.0 and NaN groups") 2
            (n "SELECT z, COUNT(*) FROM z GROUP BY z");
          Alcotest.(check int) (name ^ " -0.0 joins 0.0") 2
            (n "SELECT z FROM z JOIN zk ON z = zk"))
        [ Db.Vectorized; Db.Compiled ])

let suites =
  [ ( "keytab",
      differential @ [ skewed; clustered_distinct; growth; float_keys ] ) ]
