(** Deterministic TPC-H data generator (the dbgen substitute).

    Produces all eight tables with faithful schemas, key relationships, value
    distributions and the text patterns the queries predicate on (PROMO
    types, BRASS endings, 'special…requests' comments, forest part names,
    phone country prefixes, …). Scale factor is continuous: row counts scale
    linearly from the TPC-H base counts.

    Generation is chunked and parallel: every table is produced in
    fixed-size row chunks, each seeded from (seed, table, chunk index), so
    the data is byte-identical at every thread count — chunk boundaries
    never move with [threads]. Chunks write unboxed [int array] /
    [float array] columns directly (lineitem in particular never
    materializes per-row tuples) and are concatenated in chunk order. *)

open Sqldb

(* Deterministic splitmix-style PRNG, independent of the OCaml stdlib seed. *)
module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform int in [lo, hi] *)
  let int t lo hi =
    let range = hi - lo + 1 in
    let v = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) in
    lo + (v mod range)

  let float t lo hi =
    let v = Int64.to_float (Int64.logand (next t) 0xFFFFFFFFL) /. 4294967295. in
    lo +. (v *. (hi -. lo))

  let pick t arr = arr.(int t 0 (Array.length arr - 1))
end

(* Deterministic per-(table, chunk) seed: a few splitmix rounds over the
   combined identifiers, so neighbouring chunks get unrelated streams. *)
let derive_seed seed tid chunk =
  let t = Rng.create ((seed lxor (tid * 0x9E3779B1)) + (chunk * 0x85EBCA77)) in
  ignore (Rng.next t);
  ignore (Rng.next t);
  Int64.to_int (Int64.logand (Rng.next t) 0x3FFFFFFFFFFFFFFFL)

(* Fixed chunk granularity, independent of [threads]: the unit of both
   seeding and parallel work. *)
let chunk_rows = 65_536

(* Generate table [tid] in chunk-order: [f rng lo len] produces the rows
   [lo, lo+len) from a chunk-private stream. Chunks run across domains;
   results come back in chunk order. *)
let gen_chunks ~threads ~seed ~tid n f =
  Parallel.map_list ~grain:Settings.default.grain ~threads ~rows:n
    (fun c ->
      let lo = c * chunk_rows in
      f (Rng.create (derive_seed seed tid c)) lo (min chunk_rows (n - lo)))
    (List.init ((n + chunk_rows - 1) / chunk_rows) Fun.id)

let regions = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

let nations =
  (* name, region key *)
  [| ("ALGERIA", 0); ("ARGENTINA", 1); ("BRAZIL", 1); ("CANADA", 1);
     ("EGYPT", 4); ("ETHIOPIA", 0); ("FRANCE", 3); ("GERMANY", 3);
     ("INDIA", 2); ("INDONESIA", 2); ("IRAN", 4); ("IRAQ", 4); ("JAPAN", 2);
     ("JORDAN", 4); ("KENYA", 0); ("MOROCCO", 0); ("MOZAMBIQUE", 0);
     ("PERU", 1); ("CHINA", 2); ("ROMANIA", 3); ("SAUDI ARABIA", 4);
     ("VIETNAM", 2); ("RUSSIA", 3); ("UNITED KINGDOM", 3);
     ("UNITED STATES", 1) |]

let segments =
  [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" |]

let priorities =
  [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]

let ship_modes =
  [| "REG AIR"; "AIR"; "RAIL"; "SHIP"; "TRUCK"; "MAIL"; "FOB" |]

let ship_instructs =
  [| "DELIVER IN PERSON"; "COLLECT COD"; "NONE"; "TAKE BACK RETURN" |]

let type_syl1 = [| "STANDARD"; "SMALL"; "MEDIUM"; "LARGE"; "ECONOMY"; "PROMO" |]
let type_syl2 = [| "ANODIZED"; "BURNISHED"; "PLATED"; "POLISHED"; "BRUSHED" |]
let type_syl3 = [| "TIN"; "NICKEL"; "BRASS"; "STEEL"; "COPPER" |]

let containers1 = [| "SM"; "LG"; "MED"; "JUMBO"; "WRAP" |]
let containers2 = [| "CASE"; "BOX"; "BAG"; "JAR"; "PKG"; "PACK"; "CAN"; "DRUM" |]

let colors =
  [| "almond"; "antique"; "aquamarine"; "azure"; "beige"; "bisque"; "black";
     "blanched"; "blue"; "blush"; "brown"; "burlywood"; "burnished"; "chartreuse";
     "chiffon"; "chocolate"; "coral"; "cornflower"; "cornsilk"; "cream"; "cyan";
     "dark"; "deep"; "dim"; "dodger"; "drab"; "firebrick"; "floral"; "forest";
     "frosted"; "gainsboro"; "ghost"; "goldenrod"; "green"; "grey"; "honeydew";
     "hot"; "hotpink"; "indian"; "ivory"; "khaki"; "lace"; "lavender"; "lawn";
     "lemon"; "light"; "lime"; "linen"; "magenta"; "maroon"; "medium"; "metallic";
     "midnight"; "mint"; "misty"; "moccasin"; "navajo"; "navy"; "olive"; "orange";
     "orchid"; "pale"; "papaya"; "peach"; "peru"; "pink"; "plum"; "powder";
     "puff"; "purple"; "red"; "rose"; "rosy"; "royal"; "saddle"; "salmon";
     "sandy"; "seashell"; "sienna"; "sky"; "slate"; "smoke"; "snow"; "spring";
     "steel"; "tan"; "thistle"; "tomato"; "turquoise"; "violet"; "wheat";
     "white"; "yellow" |]

let comment_words =
  [| "carefully"; "quickly"; "furiously"; "slyly"; "blithely"; "deposits";
     "packages"; "theodolites"; "instructions"; "foxes"; "accounts"; "pinto";
     "beans"; "requests"; "ideas"; "platelets"; "dependencies"; "excuses";
     "asymptotes"; "courts"; "dolphins"; "multipliers"; "sauternes" |]

let mk_comment rng n_words =
  let buf = Buffer.create 64 in
  for i = 0 to n_words - 1 do
    if i > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf (Rng.pick rng comment_words)
  done;
  Buffer.contents buf

let date_lo = Value.date_of_iso "1992-01-01"
let date_hi = Value.date_of_iso "1998-08-02"

(* Categorical column from a known domain: built dictionary-coded (no
   per-row string allocation) when [dict], raw strings when [~dict:false]
   asks for the unencoded baseline. *)
let coded ~dict (values : string array) (codes : int array) : Column.t =
  if dict then Column.of_coded values codes
  else Column.of_strings (Array.map (fun c -> values.(c)) codes)

type tables = {
  region : Relation.t;
  nation : Relation.t;
  supplier : Relation.t;
  customer : Relation.t;
  part : Relation.t;
  partsupp : Relation.t;
  orders : Relation.t;
  lineitem : Relation.t;
}

(* One generated chunk of orders plus its lineitem rows — plain unboxed
   column arrays, concatenated across chunks afterwards. *)
type order_chunk = {
  oc_cust : int array;
  oc_date : int array;
  oc_prio : int array;
  oc_clerk : int array;
  oc_comment : string array;
  oc_total : float array;
  oc_status : int array;
  lc_ord : int array;
  lc_part : int array;
  lc_supp : int array;
  lc_line : int array;
  lc_qty : float array;
  lc_price : float array;
  lc_disc : float array;
  lc_tax : float array;
  lc_rflag : int array;
  lc_lstat : int array;
  lc_ship : int array;
  lc_commit : int array;
  lc_receipt : int array;
  lc_instr : int array;
  lc_mode : int array;
  lc_comment : string array;
}

let generate ?(seed = 20240114) ?(threads = Parallel.available_cores ())
    ?(dict = true) (sf : float) : tables =
  let coded = coded ~dict in
  let scale base = max 1 (int_of_float (float_of_int base *. sf)) in
  let n_supp = scale 10_000 in
  let n_cust = scale 150_000 in
  let n_part = scale 200_000 in
  let n_orders = scale 1_500_000 in
  let cat f parts = Array.concat (List.map f parts) in

  (* region / nation: tiny, one chunk each *)
  let region =
    let rng = Rng.create (derive_seed seed 0 0) in
    Relation.create [| "r_regionkey"; "r_name"; "r_comment" |]
      [| Column.of_ints (Array.init 5 Fun.id);
         Column.of_strings regions;
         Column.of_strings (Array.init 5 (fun _ -> mk_comment rng 6)) |]
  in
  let nation =
    let rng = Rng.create (derive_seed seed 1 0) in
    Relation.create [| "n_nationkey"; "n_name"; "n_regionkey"; "n_comment" |]
      [| Column.of_ints (Array.init 25 Fun.id);
         Column.of_strings (Array.map fst nations);
         Column.of_ints (Array.map snd nations);
         Column.of_strings (Array.init 25 (fun _ -> mk_comment rng 6)) |]
  in
  (* supplier *)
  let supplier =
    let parts =
      gen_chunks ~threads ~seed ~tid:2 n_supp (fun rng _lo len ->
          let nat = Array.init len (fun _ -> Rng.int rng 0 24) in
          let addr = Array.init len (fun _ -> mk_comment rng 3) in
          let phone =
            Array.init len (fun i ->
                Printf.sprintf "%d-%03d-%03d-%04d" (10 + nat.(i))
                  (Rng.int rng 100 999) (Rng.int rng 100 999)
                  (Rng.int rng 1000 9999))
          in
          let bal =
            Array.init len (fun _ -> Rng.float rng (-999.99) 9999.99)
          in
          let comm =
            Array.init len (fun _ ->
                (* ~1% carry the Q16 complaint marker *)
                if Rng.int rng 0 99 = 0 then
                  "wait Customer slow Complaints sleep"
                else mk_comment rng 8)
          in
          (nat, addr, phone, bal, comm))
    in
    let keys = Array.init n_supp (fun i -> i + 1) in
    Relation.create
      [| "s_suppkey"; "s_name"; "s_address"; "s_nationkey"; "s_phone";
         "s_acctbal"; "s_comment" |]
      [| Column.of_ints keys;
         Column.of_strings (Array.map (Printf.sprintf "Supplier#%09d") keys);
         Column.of_strings (cat (fun (_, a, _, _, _) -> a) parts);
         Column.of_ints (cat (fun (n, _, _, _, _) -> n) parts);
         Column.of_strings (cat (fun (_, _, p, _, _) -> p) parts);
         Column.of_floats (cat (fun (_, _, _, b, _) -> b) parts);
         Column.of_strings (cat (fun (_, _, _, _, c) -> c) parts) |]
  in
  (* customer: ~1/3 never place orders (TPC-H property used by Q13/Q22) *)
  let customer =
    let parts =
      gen_chunks ~threads ~seed ~tid:3 n_cust (fun rng _lo len ->
          let nat = Array.init len (fun _ -> Rng.int rng 0 24) in
          let addr = Array.init len (fun _ -> mk_comment rng 3) in
          let phone =
            Array.init len (fun i ->
                Printf.sprintf "%d-%03d-%03d-%04d" (10 + nat.(i))
                  (Rng.int rng 100 999) (Rng.int rng 100 999)
                  (Rng.int rng 1000 9999))
          in
          let bal =
            Array.init len (fun _ -> Rng.float rng (-999.99) 9999.99)
          in
          let seg =
            Array.init len (fun _ ->
                Rng.int rng 0 (Array.length segments - 1))
          in
          let comm = Array.init len (fun _ -> mk_comment rng 10) in
          (nat, addr, phone, bal, seg, comm))
    in
    let keys = Array.init n_cust (fun i -> i + 1) in
    Relation.create
      [| "c_custkey"; "c_name"; "c_address"; "c_nationkey"; "c_phone";
         "c_acctbal"; "c_mktsegment"; "c_comment" |]
      [| Column.of_ints keys;
         Column.of_strings (Array.map (Printf.sprintf "Customer#%09d") keys);
         Column.of_strings (cat (fun (_, a, _, _, _, _) -> a) parts);
         Column.of_ints (cat (fun (n, _, _, _, _, _) -> n) parts);
         Column.of_strings (cat (fun (_, _, p, _, _, _) -> p) parts);
         Column.of_floats (cat (fun (_, _, _, b, _, _) -> b) parts);
         coded segments (cat (fun (_, _, _, _, s, _) -> s) parts);
         Column.of_strings (cat (fun (_, _, _, _, _, c) -> c) parts) |]
  in
  (* part: categorical columns enumerate their full domain once and are
     generated directly as codes into it *)
  let mfgr_values =
    Array.init 5 (fun i -> Printf.sprintf "Manufacturer#%d" (i + 1))
  in
  let brand_values =
    Array.init 25 (fun i ->
        Printf.sprintf "Brand#%d%d" ((i / 5) + 1) ((i mod 5) + 1))
  in
  let type_values =
    Array.init (6 * 5 * 5) (fun i ->
        Printf.sprintf "%s %s %s" type_syl1.(i / 25)
          type_syl2.(i / 5 mod 5) type_syl3.(i mod 5))
  in
  let container_values =
    Array.init (5 * 8) (fun i -> containers1.(i / 8) ^ " " ^ containers2.(i mod 8))
  in
  let part =
    let parts =
      gen_chunks ~threads ~seed ~tid:4 n_part (fun rng _lo len ->
          let name =
            Array.init len (fun _ ->
                Printf.sprintf "%s %s %s %s %s" (Rng.pick rng colors)
                  (Rng.pick rng colors) (Rng.pick rng colors)
                  (Rng.pick rng colors) (Rng.pick rng colors))
          in
          let mfgr = Array.init len (fun _ -> Rng.int rng 0 4) in
          let brand =
            Array.init len (fun _ ->
                let a = Rng.int rng 1 5 in
                let b = Rng.int rng 1 5 in
                ((a - 1) * 5) + (b - 1))
          in
          let ty =
            Array.init len (fun _ ->
                let a = Rng.int rng 0 5 in
                let b = Rng.int rng 0 4 in
                let c = Rng.int rng 0 4 in
                (a * 25) + (b * 5) + c)
          in
          let size = Array.init len (fun _ -> Rng.int rng 1 50) in
          let cont =
            Array.init len (fun _ ->
                let a = Rng.int rng 0 4 in
                let b = Rng.int rng 0 7 in
                (a * 8) + b)
          in
          let comm = Array.init len (fun _ -> mk_comment rng 5) in
          (name, mfgr, brand, ty, size, cont, comm))
    in
    let keys = Array.init n_part (fun i -> i + 1) in
    Relation.create
      [| "p_partkey"; "p_name"; "p_mfgr"; "p_brand"; "p_type"; "p_size";
         "p_container"; "p_retailprice"; "p_comment" |]
      [| Column.of_ints keys;
         Column.of_strings (cat (fun (n, _, _, _, _, _, _) -> n) parts);
         coded mfgr_values (cat (fun (_, m, _, _, _, _, _) -> m) parts);
         coded brand_values (cat (fun (_, _, b, _, _, _, _) -> b) parts);
         coded type_values (cat (fun (_, _, _, t, _, _, _) -> t) parts);
         Column.of_ints (cat (fun (_, _, _, _, s, _, _) -> s) parts);
         coded container_values (cat (fun (_, _, _, _, _, c, _) -> c) parts);
         Column.of_floats
           (Array.init n_part (fun i ->
                900. +. (float_of_int ((i + 1) mod 1000) /. 10.)));
         Column.of_strings (cat (fun (_, _, _, _, _, _, c) -> c) parts) |]
  in
  (* partsupp: 4 suppliers per part, supplier assignment is a pure formula
     so lineitem chunks can recompute it without sharing the array *)
  let ps_supp_at pk j = 1 + (pk - 1 + (j * ((n_supp / 4) + 1))) mod n_supp in
  let n_ps = n_part * 4 in
  let partsupp =
    let parts =
      gen_chunks ~threads ~seed ~tid:5 n_ps (fun rng _lo len ->
          let avail = Array.init len (fun _ -> Rng.int rng 1 9999) in
          let cost = Array.init len (fun _ -> Rng.float rng 1. 1000.) in
          let comm = Array.init len (fun _ -> mk_comment rng 6) in
          (avail, cost, comm))
    in
    Relation.create
      [| "ps_partkey"; "ps_suppkey"; "ps_availqty"; "ps_supplycost";
         "ps_comment" |]
      [| Column.of_ints (Array.init n_ps (fun i -> (i / 4) + 1));
         Column.of_ints (Array.init n_ps (fun i -> ps_supp_at ((i / 4) + 1) (i mod 4)));
         Column.of_ints (cat (fun (a, _, _) -> a) parts);
         Column.of_floats (cat (fun (_, c, _) -> c) parts);
         Column.of_strings (cat (fun (_, _, c) -> c) parts) |]
  in
  (* orders + lineitem: chunked over orders; each chunk writes its own
     unboxed order and lineitem columns (lineitem count varies per order,
     so line arrays are allocated at the 7-per-order cap and trimmed) *)
  let n_clerks = max 1 (n_orders / 1000) in
  let clerk_values =
    Array.init n_clerks (fun i -> Printf.sprintf "Clerk#%09d" (i + 1))
  in
  let status_values = [| "F"; "O"; "P" |] in
  let flag_values = [| "R"; "A"; "N" |] in
  let linestatus_values = [| "O"; "F" |] in
  let current_date = Value.date_of_iso "1995-06-17" in
  let och =
    gen_chunks ~threads ~seed ~tid:6 n_orders (fun rng lo len ->
        let oc_cust = Array.make len 0 in
        let oc_date = Array.make len 0 in
        let oc_prio = Array.make len 0 in
        let oc_clerk = Array.make len 0 in
        let oc_comment = Array.make len "" in
        let oc_total = Array.make len 0. in
        let oc_status = Array.make len 0 in
        let cap = len * 7 in
        let lc_ord = Array.make cap 0 in
        let lc_part = Array.make cap 0 in
        let lc_supp = Array.make cap 0 in
        let lc_line = Array.make cap 0 in
        let lc_qty = Array.make cap 0. in
        let lc_price = Array.make cap 0. in
        let lc_disc = Array.make cap 0. in
        let lc_tax = Array.make cap 0. in
        let lc_rflag = Array.make cap 0 in
        let lc_lstat = Array.make cap 0 in
        let lc_ship = Array.make cap 0 in
        let lc_commit = Array.make cap 0 in
        let lc_receipt = Array.make cap 0 in
        let lc_instr = Array.make cap 0 in
        let lc_mode = Array.make cap 0 in
        let lc_comment = Array.make cap "" in
        let k = ref 0 in
        for oi = 0 to len - 1 do
          (* only customers not divisible by 3 place orders *)
          let rec pick_cust () =
            let c = Rng.int rng 1 n_cust in
            if c mod 3 = 0 then pick_cust () else c
          in
          oc_cust.(oi) <- pick_cust ();
          oc_date.(oi) <- Rng.int rng date_lo (date_hi - 151);
          oc_prio.(oi) <- Rng.int rng 0 (Array.length priorities - 1);
          oc_clerk.(oi) <- Rng.int rng 1 n_clerks - 1;
          oc_comment.(oi) <-
            (if Rng.int rng 0 99 < 2 then
               "dolphins special deposits requests haggle"
             else mk_comment rng 8);
          let n_lines = Rng.int rng 1 7 in
          let total = ref 0. in
          let all_f = ref true and all_o = ref true in
          for l = 1 to n_lines do
            let partkey = Rng.int rng 1 n_part in
            (* supplier from the part's partsupp entries *)
            let j = Rng.int rng 0 3 in
            let suppkey = ps_supp_at partkey j in
            let qty = float_of_int (Rng.int rng 1 50) in
            let price =
              (900. +. (float_of_int (partkey mod 1000) /. 10.)) *. qty /. 10.
            in
            let disc = float_of_int (Rng.int rng 0 10) /. 100. in
            let tax = float_of_int (Rng.int rng 0 8) /. 100. in
            let ship = oc_date.(oi) + Rng.int rng 1 121 in
            let commit = oc_date.(oi) + Rng.int rng 30 90 in
            let receipt = ship + Rng.int rng 1 30 in
            (* string-valued line attributes are tracked as dictionary codes *)
            let returnflag =
              if receipt <= current_date then
                if Rng.int rng 0 1 = 0 then 0 else 1
              else 2
            in
            let linestatus = if ship > current_date then 0 else 1 in
            if linestatus = 0 then all_f := false else all_o := false;
            total := !total +. (price *. (1. -. disc) *. (1. +. tax));
            lc_ord.(!k) <- lo + oi + 1;
            lc_part.(!k) <- partkey;
            lc_supp.(!k) <- suppkey;
            lc_line.(!k) <- l;
            lc_qty.(!k) <- qty;
            lc_price.(!k) <- price;
            lc_disc.(!k) <- disc;
            lc_tax.(!k) <- tax;
            lc_rflag.(!k) <- returnflag;
            lc_lstat.(!k) <- linestatus;
            lc_ship.(!k) <- ship;
            lc_commit.(!k) <- commit;
            lc_receipt.(!k) <- receipt;
            lc_instr.(!k) <- Rng.int rng 0 (Array.length ship_instructs - 1);
            lc_mode.(!k) <- Rng.int rng 0 (Array.length ship_modes - 1);
            lc_comment.(!k) <- mk_comment rng 4;
            incr k
          done;
          oc_total.(oi) <- !total;
          oc_status.(oi) <- (if !all_f then 0 else if !all_o then 1 else 2)
        done;
        let sub a = Array.sub a 0 !k in
        let subf a = Array.sub a 0 !k in
        let subs a = Array.sub a 0 !k in
        { oc_cust; oc_date; oc_prio; oc_clerk; oc_comment; oc_total;
          oc_status;
          lc_ord = sub lc_ord; lc_part = sub lc_part; lc_supp = sub lc_supp;
          lc_line = sub lc_line; lc_qty = subf lc_qty;
          lc_price = subf lc_price; lc_disc = subf lc_disc;
          lc_tax = subf lc_tax; lc_rflag = sub lc_rflag;
          lc_lstat = sub lc_lstat; lc_ship = sub lc_ship;
          lc_commit = sub lc_commit; lc_receipt = sub lc_receipt;
          lc_instr = sub lc_instr; lc_mode = sub lc_mode;
          lc_comment = subs lc_comment })
  in
  let orders =
    Relation.create
      [| "o_orderkey"; "o_custkey"; "o_orderstatus"; "o_totalprice";
         "o_orderdate"; "o_orderpriority"; "o_clerk"; "o_shippriority";
         "o_comment" |]
      [| Column.of_ints (Array.init n_orders (fun i -> i + 1));
         Column.of_ints (cat (fun c -> c.oc_cust) och);
         coded status_values (cat (fun c -> c.oc_status) och);
         Column.of_floats (cat (fun c -> c.oc_total) och);
         Column.of_dates (cat (fun c -> c.oc_date) och);
         coded priorities (cat (fun c -> c.oc_prio) och);
         coded clerk_values (cat (fun c -> c.oc_clerk) och);
         Column.of_ints (Array.make n_orders 0);
         Column.of_strings (cat (fun c -> c.oc_comment) och) |]
  in
  let lineitem =
    Relation.create
      [| "l_orderkey"; "l_partkey"; "l_suppkey"; "l_linenumber"; "l_quantity";
         "l_extendedprice"; "l_discount"; "l_tax"; "l_returnflag";
         "l_linestatus"; "l_shipdate"; "l_commitdate"; "l_receiptdate";
         "l_shipinstruct"; "l_shipmode"; "l_comment" |]
      [| Column.of_ints (cat (fun c -> c.lc_ord) och);
         Column.of_ints (cat (fun c -> c.lc_part) och);
         Column.of_ints (cat (fun c -> c.lc_supp) och);
         Column.of_ints (cat (fun c -> c.lc_line) och);
         Column.of_floats (cat (fun c -> c.lc_qty) och);
         Column.of_floats (cat (fun c -> c.lc_price) och);
         Column.of_floats (cat (fun c -> c.lc_disc) och);
         Column.of_floats (cat (fun c -> c.lc_tax) och);
         coded flag_values (cat (fun c -> c.lc_rflag) och);
         coded linestatus_values (cat (fun c -> c.lc_lstat) och);
         Column.of_dates (cat (fun c -> c.lc_ship) och);
         Column.of_dates (cat (fun c -> c.lc_commit) och);
         Column.of_dates (cat (fun c -> c.lc_receipt) och);
         coded ship_instructs (cat (fun c -> c.lc_instr) och);
         coded ship_modes (cat (fun c -> c.lc_mode) och);
         Column.of_strings (cat (fun c -> c.lc_comment) och) |]
  in
  { region; nation; supplier; customer; part; partsupp; orders; lineitem }

(* Load all tables with their primary keys into a catalog-backed engine;
   ingest statistics are computed per column across [threads]. *)
let load ?(threads = Parallel.available_cores ()) (db : Db.t) (t : tables) :
    unit =
  let pk cols = { Catalog.no_constraints with primary_key = cols } in
  Db.load_table ~threads db "region" ~cons:(pk [ "r_regionkey" ]) t.region;
  Db.load_table ~threads db "nation" ~cons:(pk [ "n_nationkey" ]) t.nation;
  Db.load_table ~threads db "supplier" ~cons:(pk [ "s_suppkey" ]) t.supplier;
  Db.load_table ~threads db "customer" ~cons:(pk [ "c_custkey" ]) t.customer;
  Db.load_table ~threads db "part" ~cons:(pk [ "p_partkey" ]) t.part;
  Db.load_table ~threads db "partsupp"
    ~cons:(pk [ "ps_partkey"; "ps_suppkey" ])
    t.partsupp;
  Db.load_table ~threads db "orders" ~cons:(pk [ "o_orderkey" ]) t.orders;
  Db.load_table ~threads db "lineitem"
    ~cons:(pk [ "l_orderkey"; "l_linenumber" ])
    t.lineitem

(* A database with [settings], loaded with tables generated to its [dict]. *)
let make_db ?seed ?threads ?(settings = Settings.default) (sf : float) :
    Db.t =
  let db = Db.create ~settings () in
  load ?threads db (generate ?seed ?threads ~dict:settings.dict sf);
  db
