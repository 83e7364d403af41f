(** One join driver.

    Every equi-join probe in both executors, and the semi-, anti- and
    inverted semi-joins, walk a range of probe rows through {!probe}
    against a {!Radix.t} build side, the way every filtered range selects
    through {!Kernel.select}. A probe row resolves to one global entry of
    the build, whose matches are one range of the build's flat row array
    in insertion order; the results go to an unboxed growable buffer of
    (probe row, build row) pairs, so no probe allocates per row. A cross
    join is the equi-join on no keys: its build is one entry holding every
    build row.

    Output order is an invariant: probe rows in range order, each with its
    build rows in insertion order. The outer joins of the vectorized
    executor append their unmatched rows after all pairs ({!complete});
    the compiled executor's fused LEFT probe pads each unmatched row in
    place ([Left]). *)

type mode =
  | Inner  (** every matching pair *)
  | Left  (** every matching pair; an unmatched row pairs with -1 *)
  | Semi  (** each row with a match, once (build row -1) *)
  | Anti  (** each row without a match (build row -1) *)
  | Mark of Bitset.t  (** sets the bit of every matched build row *)

(* Growable (probe row, build row) pairs, kept in blocks small enough for
   the minor heap: a probe allocates in proportion to its output, never to
   its input, and only {!contents} copies the pairs out, into arrays of
   their exact length. Blocks double from 16 pairs up to [block], so a
   probe with few matches allocates little. *)
let block = 256

type pairs = {
  mutable l : int array;
  mutable r : int array; (* the current block *)
  mutable len : int; (* pairs in the current block *)
  mutable full : (int array * int array) list; (* full blocks, newest first *)
  mutable total : int;
}

let pairs () =
  { l = Array.make 16 0; r = Array.make 16 0; len = 0; full = []; total = 0 }

let push p a b =
  if p.len = Array.length p.l then begin
    p.full <- (p.l, p.r) :: p.full;
    let size = min block (2 * p.len) in
    p.l <- Array.make size 0;
    p.r <- Array.make size 0;
    p.len <- 0
  end;
  Array.unsafe_set p.l p.len a;
  Array.unsafe_set p.r p.len b;
  p.len <- p.len + 1;
  p.total <- p.total + 1

(** The pairs of [ps], in order: their probe rows and build rows. *)
let contents (ps : pairs list) : int array * int array =
  let total = List.fold_left (fun acc p -> acc + p.total) 0 ps in
  let li = Array.make total 0 and ri = Array.make total 0 in
  let off = ref 0 in
  (* plain int stores: [Array.blit] would pay a write barrier per element
     into the (major-heap) result *)
  let copy (l : int array) (r : int array) len =
    let o = !off in
    for i = 0 to len - 1 do
      Array.unsafe_set li (o + i) (Array.unsafe_get l i);
      Array.unsafe_set ri (o + i) (Array.unsafe_get r i)
    done;
    off := o + len
  in
  List.iter
    (fun p ->
      List.iter (fun (l, r) -> copy l r (Array.length l)) (List.rev p.full);
      copy p.l p.r p.len)
    ps;
  (li, ri)

(* Global entry of the build that row [row] of [cols] keys (at [idxs]) into,
   or -1: NULL keys, bloom misses and absent keys all miss. Partition
   readers are made on first use, so the locator is private to its
   caller's domain. *)
let locator (t : Radix.t) (cols : Column.t array) (idxs : int list) : int -> int
    =
  match Hash_util.reader ~null_as_key:false t.keys.(0) cols idxs with
  | None -> fun _ -> -1 (* key families differ: nothing matches *)
  | Some rd0 ->
    let rds = Array.make (Array.length t.keys) None in
    rds.(0) <- Some rd0;
    let reader p =
      match Array.unsafe_get rds p with
      | Some rd -> rd
      | None ->
        let rd =
          Option.get (Hash_util.reader ~null_as_key:false t.keys.(p) cols idxs)
        in
        rds.(p) <- Some rd;
        rd
    in
    let hash = rd0.hash and mask = t.mask in
    fun row ->
      let h = hash row in
      if h < 0 then -1
      else
        let p = h land mask in
        if not (Hash_util.bloom_may (Array.unsafe_get t.blooms p) h) then -1
        else
          let e = Hash_util.probe (Array.unsafe_get t.keys p) (reader p) h row in
          if e < 0 then -1 else Array.unsafe_get t.bases p + e

(** Probe positions [lo, hi) (rows [sel.(pos)], or [pos] itself) of [cols]
    keyed at [idxs] against [t], appending to [out] as [mode] says.
    [residual l r] must also hold for a pair to match. *)
let probe ?residual ?sel mode (t : Radix.t) (cols : Column.t array)
    (idxs : int list) ~lo ~hi (out : pairs) : unit =
  let locate = locator t cols idxs in
  let offs = t.offs and rows = t.rows in
  let any = Option.is_none residual in
  let left = match mode with Left -> true | _ -> false in
  let keep = match residual with Some f -> f | None -> fun _ _ -> true in
  (* whether row [row] keeps any build row of [k0, k1) *)
  let exists row k0 k1 =
    if any then k0 < k1
    else begin
      let k = ref k0 in
      while !k < k1 && not (keep row (Array.unsafe_get rows !k)) do
        incr k
      done;
      !k < k1
    end
  in
  for pos = lo to hi - 1 do
    if (pos - lo) land 8191 = 0 then Guard.check ();
    let row = match sel with None -> pos | Some s -> Array.unsafe_get s pos in
    let g = locate row in
    let k0 = if g < 0 then 0 else Array.unsafe_get offs g in
    let k1 = if g < 0 then 0 else Array.unsafe_get offs (g + 1) in
    match mode with
    | Inner | Left ->
      let before = out.total in
      for k = k0 to k1 - 1 do
        let b = Array.unsafe_get rows k in
        if any || keep row b then push out row b
      done;
      if left && out.total = before then push out row (-1)
    | Semi -> if exists row k0 k1 then push out row (-1)
    | Anti -> if not (exists row k0 k1) then push out row (-1)
    | Mark m ->
      for k = k0 to k1 - 1 do
        let b = Array.unsafe_get rows k in
        if any || keep row b then Bitset.set m b
      done
  done

(** {!probe} over all [n] positions, in the morsels of
    {!Parallel.map_chunks}; returns the probe rows and build rows of the
    pairs, in order. [residual] makes each morsel's pair test. *)
let collect ~grain ~threads ?residual ?sel mode (t : Radix.t)
    (cols : Column.t array) (idxs : int list) ~(n : int) :
    int array * int array =
  contents
    (Parallel.map_chunks ~grain ~threads n (fun lo len ->
         let out = pairs () in
         let residual = Option.map (fun mk -> mk ()) residual in
         probe ?residual ?sel mode t cols idxs ~lo ~hi:(lo + len) out;
         out))

(** Rows of positions [0, n) (through [sel]) whose bit in [m] is set, or
    clear when [anti]: the survivors of an inverted semi- or anti-join, in
    position order. *)
let marked ~anti ?sel (m : Bitset.t) ~(n : int) : int array =
  let out = Array.make n 0 and k = ref 0 in
  for pos = 0 to n - 1 do
    let row = match sel with None -> pos | Some s -> s.(pos) in
    if Bitset.get m row <> anti then begin
      out.(!k) <- row;
      incr k
    end
  done;
  Array.sub out 0 !k

(** Outer-join completion: after the pairs [(li, ri)], the rows of the left
    side (LEFT, FULL) and then of the right side (RIGHT, FULL) that no pair
    names, each side in position order and padded with -1. A side is its
    [n] positions over [rows] base rows, through [sel]. *)
let complete (kind : Plan.join_kind) ~left:(lsel, ln, lrows)
    ~right:(rsel, rn, rrows) (li, ri) : int array * int array =
  match kind with
  | Plan.JInner -> (li, ri)
  | JLeft | JRight | JFull ->
    let unmatched pad sel n nrows hits =
      if not pad then [||]
      else begin
        let m = Bitset.create nrows in
        Array.iter (Bitset.set m) hits;
        marked ~anti:true ?sel m ~n
      end
    in
    let lx = unmatched (kind <> JRight) lsel ln lrows li in
    let rx = unmatched (kind <> JLeft) rsel rn rrows ri in
    let pad a = Array.make (Array.length a) (-1) in
    (Array.concat [ li; lx; pad rx ], Array.concat [ ri; pad lx; rx ])
