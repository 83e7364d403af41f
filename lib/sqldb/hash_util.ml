(** Hash keys over one or more columns.

    One open-addressing key table ({!keytab}) serves the join build and
    probe, hash GROUP BY, [SELECT DISTINCT] and [COUNT(DISTINCT)] in both
    executors; small grouping domains skip hashing altogether through the
    dense packed-key domain ({!dense_domain}). A join build side is the
    key table plus two flat int arrays ({!build_region}): each entry's
    build rows sit contiguous in one row array, found through one offset
    per entry, so no build or probe ever conses a row list.

    Key semantics are the same on every path. Ints and dates compare by
    value; strings by value whatever their layout (raw, or codes over any
    dictionary); floats with [Float.equal], so -0.0 = 0.0 and NaN = NaN;
    bools by value. Keys of different families (an int against a float,
    say) never compare equal. A join key with a NULL component never
    matches; grouping and distinct treat NULL as one more value of each
    component. Every layout hashes through {!row_hash}, so the table, the
    bloom filters and radix partitioning share one hash. *)

open Value

(* Dense grouping keys: pack one small slot per column into a single int,
   mixed-radix. Slot 0 is reserved for null, so nulls group together (SQL
   GROUP BY). Returns per-column [(slot_fn, radix)] or None when a column
   does not fit. [cross_chunk] demands slots and radices that are identical
   across take-gathered copies of the columns (the compiled executor packs
   every morsel of a range into one slot space): dictionary radices come
   from the shared dict object so they qualify; int bounds are
   data-dependent per copy so they do not. *)
let mixed_radix ~cross_chunk (cs : Column.t list) :
    ((int -> int) * int) list option =
  let slot (c : Column.t) =
    let nullable f =
      match c.Column.nulls with
      | None -> f
      | Some m -> fun row -> if Bitset.get m row then 0 else f row
    in
    match c.Column.data with
    | Column.D (codes, d) ->
      Some
        ( nullable (fun row -> Bigarray.Array1.unsafe_get codes row + 1),
          Column.dict_size d + 1 )
    | Column.B a ->
      Some (nullable (fun row -> if a.(row) then 2 else 1), 3)
    | Column.I v when not cross_chunk ->
      let get = Bigarray.Array1.unsafe_get v in
      let n = Column.length c in
      if n = 0 then Some ((fun _ -> 0), 2)
      else begin
        let lo = ref (get 0) and hi = ref (get 0) in
        for i = 1 to n - 1 do
          let x = get i in
          if x < !lo then lo := x;
          if x > !hi then hi := x
        done;
        let lo = !lo in
        Some (nullable (fun row -> get row - lo + 1), !hi - lo + 2)
      end
    | _ -> None
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | c :: rest -> (
      match slot c with None -> None | Some s -> go (s :: acc) rest)
  in
  match go [] cs with
  | Some parts ->
    (* overflow check on the combined radix product *)
    let prod =
      List.fold_left (fun p (_, r) -> p *. float_of_int r) 1. parts
    in
    if prod < 4.0e18 then Some parts else None
  | None -> None

(* Dense grouping domain: when every key column packs into a small slot
   range (dictionary codes, bools, bounded ints), grouping can use a
   direct-indexed accumulator table instead of a hash table. Nulls take slot
   0 per column, matching GROUP BY null semantics. Returns the packed-key
   function and the domain cardinality. *)
let dense_domain ?(cross_chunk = false) ~(limit : int) (cols : Column.t array)
    (idxs : int list) : ((int -> int) * int) option =
  match mixed_radix ~cross_chunk (List.map (fun i -> cols.(i)) idxs) with
  | None -> None
  | Some parts ->
    let card = List.fold_left (fun p (_, r) -> p * r) 1 parts in
    if card > limit then None
    else
      let slots = Array.of_list (List.map fst parts) in
      let radices = Array.of_list (List.map snd parts) in
      let k = Array.length slots in
      let pack row =
        let acc = ref 0 in
        for i = 0 to k - 1 do
          acc := (!acc * radices.(i)) + slots.(i) row
        done;
        !acc
      in
      Some (pack, card)

(* ------------------------------------------------------------------ *)
(* Row hashes                                                         *)
(* ------------------------------------------------------------------ *)

(* A key component: a column, or an int computed from the row (the group-id
   tag of a COUNT(DISTINCT) set). *)
type source = Col of Column.t | Tag of (int -> int)

(* Hash of a non-null component value. Dictionary columns read the per-code
   hash their dictionary precomputed, so equal strings hash alike across
   raw and coded layouts and across dictionaries. *)
let value_hash (s : source) : int -> int =
  match s with
  | Tag f -> fun r -> hash_int (f r)
  | Col c -> (
    match c.Column.data with
    | Column.I v -> fun r -> hash_int (Bigarray.Array1.unsafe_get v r)
    | Column.F v -> fun r -> hash_float (Bigarray.Array1.unsafe_get v r)
    | Column.S a -> fun r -> hash_string (Array.unsafe_get a r)
    | Column.D (codes, d) ->
      let h = d.Column.hashes in
      fun r -> Array.unsafe_get h (Bigarray.Array1.unsafe_get codes r)
    | Column.B a -> fun r -> hash_int (Bool.to_int (Array.unsafe_get a r)))

let source_nulls = function Col c -> c.Column.nulls | Tag _ -> None

(* the hash of a NULL component when NULL is a key value *)
let null_hash = hash_int 0x6e756c6c

(* Per-row key hash, always >= 0 with [null_as_key] (grouping: a NULL
   component hashes as [null_hash]); without it a key with any NULL
   component hashes to -1, which joins never match and radix partitioning
   drops. Multi-column keys fold their component hashes. *)
let sources_hash ~null_as_key (srcs : source list) : int -> int =
  let comp s =
    let h = value_hash s in
    match source_nulls s with
    | None -> h
    | Some m ->
      let nh = if null_as_key then null_hash else -1 in
      fun r -> if Bitset.get m r then nh else h r
  in
  let fold acc h = mix ((acc * 31) + h) land max_int in
  match srcs with
  | [] -> fun _ -> 0
  | [ s ] -> comp s
  | [ s0; s1 ] ->
    let f0 = comp s0 and f1 = comp s1 in
    fun r ->
      let h0 = f0 r and h1 = f1 r in
      if h0 < 0 || h1 < 0 then -1 else fold (fold 0 h0) h1
  | srcs ->
    let fs = Array.of_list (List.map comp srcs) in
    let k = Array.length fs in
    fun r ->
      let acc = ref 0 and i = ref 0 in
      while !i < k do
        let h = (Array.unsafe_get fs !i) r in
        if h < 0 then begin
          acc := -1;
          i := k
        end
        else begin
          acc := fold !acc h;
          incr i
        end
      done;
      !acc

(* The key hash over [cols] at [idxs]: what the key table, bloom filters and
   radix partitioning ({!Radix}) all route by. *)
let row_hash ~null_as_key (cols : Column.t array) (idxs : int list) :
    int -> int =
  sources_hash ~null_as_key (List.map (fun i -> Col cols.(i)) idxs)

(* ------------------------------------------------------------------ *)
(* The key table                                                      *)
(* ------------------------------------------------------------------ *)

(* Open addressing with linear probing over dense entry ids. Each distinct
   key becomes an entry numbered in first-seen order; on first sight its
   component values are copied into the table's own unboxed key columns,
   so equality never refers back to a morsel that is gone, and the key
   columns double as GROUP BY output columns. Probing compares the slot's
   hash fingerprint first, then the components one by one against the probe
   row — no key is ever boxed. *)

type family = FInt | FFloat | FString | FBool

let family = function
  | Tag _ -> FInt
  | Col c -> (
    match c.Column.data with
    | Column.I _ -> FInt
    | Column.F _ -> FFloat
    | Column.S _ | Column.D _ -> FString
    | Column.B _ -> FBool)

type 'a vec = { mutable a : 'a array }

(* one growable key column; bools are stored as 0/1 *)
type store = Ints of int vec | Floats of float vec | Strings of string vec

type comp = {
  fam : family;
  ty : Value.ty;
  store : store;
  mutable nul : Bytes.t;
      (* entry -> '\001' when the component is NULL; allocated with the
         first NULL, [has_null] from then on *)
  mutable has_null : bool;
}

type keytab = {
  comps : comp array;
  mutable slots : int array;
      (* -1 when empty, else [(fp lsl 31) lor entry] (entry < 2^31) where
         [fp] is the key hash's top 31 bits: probes reject most mismatches,
         and the table re-slots on growth, without touching the entries *)
  mutable cap : int; (* entry capacity, half the slot count *)
  mutable count : int;
}

(* A key reader over one set of columns, valid against one table: the
   per-row hash, equality of a row against an entry, and the copy of a row's
   key into a fresh entry. *)
type reader = {
  hash : int -> int;
  eq : int -> int -> bool;
  put : int -> int -> unit;
}

let new_comp cap (s : source) : comp =
  let fam = family s in
  let store =
    match fam with
    | FInt | FBool -> Ints { a = Array.make cap 0 }
    | FFloat -> Floats { a = Array.make cap 0. }
    | FString -> Strings { a = Array.make cap "" }
  in
  { fam;
    ty = (match s with Col c -> c.Column.ty | Tag _ -> TInt);
    store;
    nul = Bytes.empty;
    has_null = false }

let create_table ~size (srcs : source list) : keytab =
  let rec pow2 p = if p >= size then p else pow2 (2 * p) in
  let cap = pow2 8 in
  { comps = Array.of_list (List.map (new_comp cap) srcs);
    slots = Array.make (2 * cap) (-1);
    cap;
    count = 0 }

(** A table keyed by [cols] at [idxs] (only their layouts are read), sized
    for [size] distinct keys; it grows past that. [tagged] prepends an int
    component that readers supply through [?tag]. *)
let keytab ?(size = 16) ?(tagged = false) (cols : Column.t array)
    (idxs : int list) : keytab =
  create_table ~size
    ((if tagged then [ Tag Fun.id ] else [])
    @ List.map (fun i -> Col cols.(i)) idxs)

let length (t : keytab) = t.count

(* A deep copy: adding to it leaves [t] as it was. *)
let copy (t : keytab) : keytab =
  { comps =
      Array.map
        (fun c ->
          { c with
            store =
              (match c.store with
              | Ints v -> Ints { a = Array.copy v.a }
              | Floats v -> Floats { a = Array.copy v.a }
              | Strings v -> Strings { a = Array.copy v.a });
            nul = Bytes.copy c.nul })
        t.comps;
    slots = Array.copy t.slots;
    cap = t.cap;
    count = t.count }

(* A hash's fingerprint, which is also its home slot (masked). Radix
   partitions and bloom filters use the low bits; the fingerprint takes the
   top 31 of the 62. *)
let fingerprint h = h lsr 31
let entry_mask = (1 lsl 31) - 1

(* Double the entry capacity (load factor stays <= 1/2) and re-slot every
   entry from its fingerprint. *)
let grow (t : keytab) =
  let cap = t.cap in
  let ncap = 2 * cap in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  Array.iter
    (fun c ->
      (match c.store with
      | Ints v -> v.a <- extend v.a 0
      | Floats v -> v.a <- extend v.a 0.
      | Strings v -> v.a <- extend v.a "");
      if c.has_null then begin
        let nul = Bytes.make ncap '\000' in
        Bytes.blit c.nul 0 nul 0 cap;
        c.nul <- nul
      end)
    t.comps;
  let mask = (2 * ncap) - 1 in
  let slots = Array.make (2 * ncap) (-1) in
  Array.iter
    (fun v ->
      if v >= 0 then begin
        let i = ref ((v lsr 31) land mask) in
        while slots.(!i) >= 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- v
      end)
    t.slots;
  t.slots <- slots;
  t.cap <- ncap

(* Equality of a non-null source value against a stored one; [None] when
   the families differ (such keys never compare equal). *)
let value_eq (s : source) (c : comp) : (int -> int -> bool) option =
  if family s <> c.fam then None
  else
    Some
      (match (s, c.store) with
      | Tag f, Ints v -> fun r e -> Array.unsafe_get v.a e = f r
      | Col col, Ints v -> (
        match col.Column.data with
        | Column.I b ->
          fun r e -> Array.unsafe_get v.a e = Bigarray.Array1.unsafe_get b r
        | Column.B a ->
          fun r e -> Array.unsafe_get v.a e = Bool.to_int (Array.unsafe_get a r)
        | _ -> assert false)
      | Col col, Floats v -> (
        match col.Column.data with
        | Column.F b ->
          fun r e ->
            Float.equal (Array.unsafe_get v.a e) (Bigarray.Array1.unsafe_get b r)
        | _ -> assert false)
      | Col col, Strings v -> (
        match col.Column.data with
        | Column.S a ->
          fun r e -> String.equal (Array.unsafe_get v.a e) (Array.unsafe_get a r)
        | Column.D (codes, d) ->
          let vals = d.Column.values in
          fun r e ->
            String.equal (Array.unsafe_get v.a e)
              (Array.unsafe_get vals (Bigarray.Array1.unsafe_get codes r))
        | _ -> assert false)
      | Tag _, (Floats _ | Strings _) -> assert false)

let value_put (s : source) (c : comp) : int -> int -> unit =
  match (s, c.store) with
  | Tag f, Ints v -> fun r e -> v.a.(e) <- f r
  | Col col, Ints v -> (
    match col.Column.data with
    | Column.I b -> fun r e -> v.a.(e) <- Bigarray.Array1.get b r
    | Column.B a -> fun r e -> v.a.(e) <- Bool.to_int a.(r)
    | _ -> assert false)
  | Col col, Floats v -> (
    match col.Column.data with
    | Column.F b -> fun r e -> v.a.(e) <- Bigarray.Array1.get b r
    | _ -> assert false)
  | Col col, Strings v -> fun r e -> v.a.(e) <- Column.string_at col r
  | Tag _, (Floats _ | Strings _) -> assert false

(* Lift a component's value equality and copy over NULLs: a NULL equals
   only a NULL. *)
let comp_reader (t : keytab) (s : source) (c : comp) veq =
  match source_nulls s with
  | None ->
    ( (fun r e ->
        ((not c.has_null) || Bytes.unsafe_get c.nul e = '\000') && veq r e),
      value_put s c )
  | Some m ->
    let vput = value_put s c in
    ( (fun r e ->
        let rn = Bitset.get m r in
        let en = c.has_null && Bytes.unsafe_get c.nul e <> '\000' in
        if rn || en then rn && en else veq r e),
      fun r e ->
        if Bitset.get m r then begin
          if not c.has_null then begin
            c.nul <- Bytes.make t.cap '\000';
            c.has_null <- true
          end;
          Bytes.set c.nul e '\001'
        end
        else vput r e )

let reader_of ~null_as_key (t : keytab) (srcs : source list) : reader option =
  if List.length srcs <> Array.length t.comps then None
  else
    let parts =
      List.mapi
        (fun j s ->
          let c = t.comps.(j) in
          Option.map (comp_reader t s c) (value_eq s c))
        srcs
    in
    if List.exists Option.is_none parts then None
    else
      let parts = Array.of_list (List.map Option.get parts) in
      let eqs = Array.map fst parts and puts = Array.map snd parts in
      let eq =
        match eqs with
        | [| e0 |] -> e0
        | [| e0; e1 |] -> fun r e -> e0 r e && e1 r e
        | eqs ->
          let k = Array.length eqs in
          fun r e ->
            let i = ref 0 in
            while !i < k && (Array.unsafe_get eqs !i) r e do
              incr i
            done;
            !i = k
      in
      let put =
        match puts with
        | [| p0 |] -> p0
        | [| p0; p1 |] ->
          fun r e ->
            p0 r e;
            p1 r e
        | puts ->
          fun r e ->
            for i = 0 to Array.length puts - 1 do
              puts.(i) r e
            done
      in
      Some { hash = sources_hash ~null_as_key srcs; eq; put }

(** A reader of the keys of [cols] at [idxs] (after [tag]'s int, for a
    tagged table) against [t]. [null_as_key] as for {!row_hash}: a join
    reader's hash is -1 on NULL keys, which must not be added. [None] when a
    component's family differs from the table's: no row can match. *)
let reader ?tag ~null_as_key (t : keytab) (cols : Column.t array)
    (idxs : int list) : reader option =
  reader_of ~null_as_key t
    ((match tag with Some f -> [ Tag f ] | None -> [])
    @ List.map (fun i -> Col cols.(i)) idxs)

(* Entry id of row [r]'s key (hash [h]), or [-1 - s] where [s] is the
   empty slot that ended the probe. *)
let probe (t : keytab) (rd : reader) h r =
  let slots = t.slots and fp = fingerprint h in
  let mask = Array.length slots - 1 in
  let i = ref (fp land mask) and res = ref (-1) in
  while !res = -1 do
    let v = Array.unsafe_get slots !i in
    if v < 0 then res := -2 - !i
    else if v lsr 31 = fp && rd.eq r (v land entry_mask) then
      res := v land entry_mask
    else i := (!i + 1) land mask
  done;
  if !res >= 0 then !res else !res + 1

(* Entry id of row [r]'s key, inserting it (id = previous [length]) when
   new. *)
let add_hashed (t : keytab) (rd : reader) h r =
  let e = probe t rd h r in
  if e >= 0 then e
  else begin
    let fp = fingerprint h in
    let slot =
      if t.count < t.cap then -1 - e
      else begin
        grow t;
        let mask = Array.length t.slots - 1 in
        let i = ref (fp land mask) in
        while t.slots.(!i) >= 0 do
          i := (!i + 1) land mask
        done;
        !i
      end
    in
    let e = t.count in
    t.slots.(slot) <- (fp lsl 31) lor e;
    rd.put r e;
    t.count <- e + 1;
    e
  end

let add (t : keytab) (rd : reader) r = add_hashed t rd (rd.hash r) r

(* Entry id of row [r]'s key, or -1 when absent. *)
let find (t : keytab) (rd : reader) r =
  let e = probe t rd (rd.hash r) r in
  if e >= 0 then e else -1

(** The table's key columns, one per component (after the tag), [length t]
    rows each, in entry order — the output group columns of a GROUP BY. *)
let key_columns (t : keytab) : Column.t array =
  let n = t.count in
  Array.map
    (fun c ->
      let data =
        match c.store with
        | Ints v when c.fam = FBool ->
          Column.B (Array.init n (fun e -> v.a.(e) <> 0))
        | Ints v -> Column.I (Column.ivec_of_array ~len:n v.a)
        | Floats v -> Column.F (Column.fvec_of_array ~len:n v.a)
        | Strings v -> Column.S (Array.sub v.a 0 n)
      in
      let nulls =
        if not c.has_null then None
        else begin
          let m = Bitset.create n in
          for e = 0 to n - 1 do
            if Bytes.get c.nul e <> '\000' then Bitset.set m e
          done;
          Some m
        end
      in
      { Column.ty = c.ty; data; nulls })
    t.comps

(** Rows whose key over [idxs] has not been seen before, in input order
    ([SELECT DISTINCT]); [row] maps logical positions [0..n-1] to rows. *)
let first_rows ?(row = Fun.id) (cols : Column.t array) (idxs : int list)
    ~(n : int) : int array =
  let t = keytab ~size:n cols idxs in
  let rd = Option.get (reader ~null_as_key:true t cols idxs) in
  let keep = Array.make n 0 and k = ref 0 in
  for pos = 0 to n - 1 do
    let r = row pos in
    let before = t.count in
    if add t rd r = before then begin
      keep.(!k) <- r;
      incr k
    end
  done;
  Array.sub keep 0 !k

(* ------------------------------------------------------------------ *)
(* Bloom filters                                                      *)
(* ------------------------------------------------------------------ *)

(* Compact bloom filter over the build-side key hashes: two bits per key in
   a power-of-two bit array (~8 bits per key, <5% false positives),
   consulted before the table on join probes. Probe misses — the common
   case on selective joins — skip the slot walk entirely, and the filter is
   small enough to stay cache-resident when the table is not. *)
type bloom = { bits : Bytes.t; mask : int }

let bloom_create n_keys =
  let want = max 1024 (8 * n_keys) in
  let rec pow2 b = if b >= want then b else pow2 (b * 2) in
  let nbits = pow2 1024 in
  { bits = Bytes.make (nbits lsr 3) '\000'; mask = nbits - 1 }

let bloom_set b i =
  let byte = i lsr 3 in
  Bytes.unsafe_set b.bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get b.bits byte) lor (1 lsl (i land 7))))

let bloom_get b i =
  Char.code (Bytes.unsafe_get b.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* The two bit positions come straight from the (already mixed) key hash:
   bits 7..30 and bits 31 up. Bits 0..6 are the radix partition, which every
   key of one partition's filter shares. *)
let bloom_add b h =
  bloom_set b ((h lsr 7) land b.mask);
  bloom_set b ((h lsr 31) land b.mask)

let bloom_may b h =
  bloom_get b ((h lsr 7) land b.mask) && bloom_get b ((h lsr 31) land b.mask)

(* ------------------------------------------------------------------ *)
(* Join build regions                                                 *)
(* ------------------------------------------------------------------ *)

(* A join build side keeps its rows flat: [offs] holds one prefix-summed
   start per entry and [rows] the build rows of each entry, contiguous and
   in insertion order, so entry [e] owns [rows.(offs.(e)) ..
   rows.(offs.(e + 1) - 1)]. Radix partitions ({!Radix}) share one pair of
   arrays, each partition building its own key table and bloom filter over
   a disjoint region of them.

   [build_region] builds over [n] logical rows (base row [row pos]) into
   slots [base, base + n) of [offs] and [rows], numbering the table's
   entries from [base]. Rows with a NULL key component never join and are
   skipped. The region's spare [offs] slots (fewer entries than rows) hold
   the end of its used rows, so the slot after the last entry always reads
   as that entry's end; [offs] needs one slot past the last region. The
   region's counts start from zero on every call, so a build re-run after
   a failure part way writes the same values. *)
let build_region (cols : Column.t array) (idxs : int list) ~(row : int -> int)
    ~(n : int) ~(base : int) ~(offs : int array) ~(rows : int array) :
    keytab * bloom =
  let keys = keytab ~size:n cols idxs in
  let rd = Option.get (reader ~null_as_key:false keys cols idxs) in
  let bloom = bloom_create n in
  Array.fill offs base n 0;
  (* pass 1: each row's entry, and each entry's row count *)
  let ent = Array.make n (-1) in
  for pos = 0 to n - 1 do
    let r = row pos in
    let h = rd.hash r in
    if h >= 0 then begin
      bloom_add bloom h;
      let e = add_hashed keys rd h r in
      Array.unsafe_set ent pos e;
      offs.(base + e) <- offs.(base + e) + 1
    end
  done;
  (* inclusive prefix sums: offs.(base + e) is the end of e's rows *)
  let stop = ref base in
  for s = base to base + keys.count - 1 do
    stop := !stop + offs.(s);
    offs.(s) <- !stop
  done;
  Array.fill offs (base + keys.count) (n - keys.count) !stop;
  (* pass 2, backwards: each entry's cursor walks down from its end to its
     start, leaving the rows in insertion order *)
  for pos = n - 1 downto 0 do
    let e = Array.unsafe_get ent pos in
    if e >= 0 then begin
      let k = offs.(base + e) - 1 in
      offs.(base + e) <- k;
      rows.(k) <- row pos
    end
  done;
  (keys, bloom)
