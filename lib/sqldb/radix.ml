(** Radix-partitioned join builds and aggregation.

    Large build sides are split by key-hash radix into 2^bits partitions so
    each {!Parallel} worker builds its own cache-resident key table with no
    cross-domain sharing, replacing the serial build. Partitioning is the
    classic 2-pass scheme: each chunk first histograms its rows per
    partition, a prefix sum over the per-chunk histograms assigns every
    (chunk, partition) pair a disjoint region of a contiguous per-partition
    buffer, then a second pass scatters base row indices into those
    regions — no locks, no atomics. Equal keys land in the same partition
    on both sides because {!Hash_util.row_hash} hashes by value,
    independent of layout.

    Partition layout: every partition builds its key table and bloom
    filter with {!Hash_util.build_region} into its own region of one
    shared [offs]/[rows] pair, numbering its entries from the region's
    base. The build side is therefore a single probe target: {!Join.probe}
    routes a probe row by the same hash to its partition's table and reads
    its matches as one range of the shared row array, in insertion order.
    An unpartitioned build is the one-partition case of the same layout.
    Only the build side decides: [should] compares its row count against
    the settings' [grain], and small builds stay unpartitioned. The probe
    side is never partitioned; it runs in morsels against the whole build.

    Settings [radix = false] disables partitioning entirely; tests force
    the radix path with [grain = 0].

    Every scatter chunk and per-partition build is a {!Guard} checkpoint
    and a {!Faults} injection site ("radix.scatter", "radix.build"); chunk
    bodies are idempotent (cursors are chunk-local copies, builds rewrite
    only their own region), so with more than one thread the chunk-retry
    recovery in {!Parallel.run_protected} re-runs a crashed piece inline.
    At one thread (radix forced) the pieces run inline and a fault reaches
    [Db.execute]'s suppressed retry. *)

(* Partition when the input reaches the grain, the size at which a region
   splits at all. With one worker the cache-residency win alone rarely
   pays at our scales, so single-threaded execution keeps the single-table
   path — unless the grain was forced to 0 (differential tests exercise
   radix at 1 thread through exactly this override). *)
let should (s : Settings.t) ~rows ~threads =
  s.radix && rows >= s.grain && (threads > 1 || s.grain = 0)

(* Power-of-two partition count: enough partitions that each build fits in
   cache (~8K rows targets L2 for a few key+payload columns) and that every
   worker gets at least one, capped at 64 so tiny partitions don't drown in
   per-partition setup. *)
let partition_bits ~rows ~threads =
  let rec by_build b =
    if b >= 6 || rows lsr b <= 8192 then b else by_build (b + 1)
  in
  let rec by_threads b =
    if b >= 3 || 1 lsl b >= threads then b else by_threads (b + 1)
  in
  max (by_build 1) (by_threads 0)

(* 2-pass parallel partition of the [n] logical rows (base row [base pos])
   into [nparts] buffers of base row indices. Rows hashing negative (null
   keys) are dropped — they can never join. Within a partition, rows keep
   global logical order regardless of chunking, so downstream output is
   deterministic across thread counts. *)
let partition ~grain ~threads ~nparts ~(hash : int -> int) ~(base : int -> int)
    (n : int) : int array array =
  let mask = nparts - 1 in
  (* the histogram pass caches each row's partition id (nparts <= 64 fits a
     byte; 255 marks a null key) so the scatter pass re-routes with one byte
     load instead of re-hashing the key columns; the scatter pass reuses
     its morsels *)
  let pid = Bytes.create n in
  let hists =
    Parallel.map_chunks ~grain ~threads n (fun start len ->
        Guard.check ();
        Faults.slow_point ~site:"radix.scatter";
        let hist = Array.make nparts 0 in
        for pos = start to start + len - 1 do
          (* single-thread chunks can span the whole input: keep the
             deadline checkpoint at stride granularity regardless *)
          if (pos - start) land 8191 = 0 then Guard.check ();
          let h = hash (base pos) in
          if h >= 0 then begin
            let p = h land mask in
            Bytes.unsafe_set pid pos (Char.unsafe_chr p);
            hist.(p) <- hist.(p) + 1
          end
          else Bytes.unsafe_set pid pos '\255'
        done;
        (start, len, hist))
  in
  (* prefix sums: offsets.(chunk).(p) = rows of partition p written by
     earlier chunks; totals.(p) = partition size *)
  let totals = Array.make nparts 0 in
  let offsets =
    List.map
      (fun (start, len, hist) ->
        let off = Array.copy totals in
        Array.iteri (fun p c -> totals.(p) <- totals.(p) + c) hist;
        (start, len, off))
      hists
  in
  let out = Array.init nparts (fun p -> Array.make totals.(p) 0) in
  ignore
    (Parallel.map_list ~grain ~threads ~rows:n
      (fun (start, len, off) ->
        Guard.check ();
        Faults.crash_point ~site:"radix.scatter";
        Faults.slow_point ~site:"radix.scatter";
        (* chunk-local cursor copy keeps the scatter idempotent under
           chunk-retry recovery: a re-run rewrites the same disjoint
           region with the same values *)
        let cur = Array.copy off in
        for pos = start to start + len - 1 do
          if (pos - start) land 8191 = 0 then Guard.check ();
          let p = Char.code (Bytes.unsafe_get pid pos) in
          if p <> 255 then begin
            out.(p).(cur.(p)) <- base pos;
            cur.(p) <- cur.(p) + 1
          end
        done)
      offsets);
  out

(* ------------------------------------------------------------------ *)
(* Join build sides                                                   *)
(* ------------------------------------------------------------------ *)

(* A join build side: [mask + 1] partitions routed by key hash (one when
   unpartitioned), each with its own key table and bloom filter, all laid
   out flat in one shared [offs]/[rows] pair ({!Hash_util.build_region}).
   Partition [p]'s entry [e] is global entry [bases.(p) + e], so every
   probe resolves to one range of [rows]. *)
type t = {
  mask : int;
  keys : Hash_util.keytab array;
  blooms : Hash_util.bloom array;
  bases : int array;
  offs : int array;
  rows : int array;
}

(* Build over all [n] rows, or over [sel]'s base rows, partitioned when
   the build side passes the size gate. Each partition build runs on its
   own worker and is a fault-injection site; with more than one thread
   {!Parallel.map_list} runs it under chunk retry, and a retried build
   rewrites its own region ({!Hash_util.build_region}). An unpartitioned
   build is no injection site: it is not a parallel piece with a retry
   of its own. *)
let build ~(settings : Settings.t) ~threads ?sel (cols : Column.t array)
    (idxs : int list) ~(n : int) : t =
  let n_log = match sel with Some s -> Array.length s | None -> n in
  let base = match sel with Some s -> Array.get s | None -> Fun.id in
  let grain = settings.grain in
  let partitioned = should settings ~rows:n_log ~threads in
  (* regions: (base row of a logical row, row count), one per partition *)
  let regions =
    if not partitioned then [| (base, n_log) |]
    else
      Array.map
        (fun part -> (Array.get part, Array.length part))
        (partition ~grain ~threads
           ~nparts:(1 lsl partition_bits ~rows:n_log ~threads)
           ~hash:(Hash_util.row_hash ~null_as_key:false cols idxs)
           ~base n_log)
  in
  let np = Array.length regions in
  let bases = Array.make np 0 in
  for p = 1 to np - 1 do
    bases.(p) <- bases.(p - 1) + snd regions.(p - 1)
  done;
  let total = bases.(np - 1) + snd regions.(np - 1) in
  let offs = Array.make (total + 1) 0 and rows = Array.make total 0 in
  offs.(total) <- total;
  let built =
    Parallel.map_list ~grain ~threads ~rows:n_log
      (fun p ->
        if partitioned then begin
          Guard.check ();
          Faults.crash_point ~site:"radix.build";
          Faults.slow_point ~site:"radix.build"
        end;
        let row, n = regions.(p) in
        Hash_util.build_region cols idxs ~row ~n ~base:bases.(p) ~offs ~rows)
      (List.init np Fun.id)
  in
  { mask = np - 1;
    keys = Array.of_list (List.map fst built);
    blooms = Array.of_list (List.map snd built);
    bases;
    offs;
    rows }

(* Bloom pre-test for scan pushdown, routing by the probe key's hash; a
   null key (negative hash) can never join, so it fails outright. Sound
   for inner and semi joins only: a row that fails has no partner. *)
let scan_test (t : t) (c : Column.t) : int -> bool =
  if Array.length t.keys.(0).Hash_util.comps <> 1 then
    invalid_arg "Radix.scan_test: multi-column key";
  let hash = Hash_util.row_hash ~null_as_key:false [| c |] [ 0 ] in
  let blooms = t.blooms and mask = t.mask in
  fun row ->
    let h = hash row in
    h >= 0 && Hash_util.bloom_may (Array.unsafe_get blooms (h land mask)) h

(* Partition [n] logical rows by group-key hash for radix aggregation:
   the same 2-pass scheme as the join partitioner, with NULL as a key value
   (null components hash like any other), so every row lands in a
   partition. Equal keys land in one partition, so per-partition
   aggregation tables hold disjoint group sets. Returns [None] when the
   size gate declines. *)
let group_parts ~(settings : Settings.t) ~threads ?(base = Fun.id)
    (cols : Column.t array) (idxs : int list) ~(n : int) :
    int array array option =
  if not (should settings ~rows:n ~threads) then None
  else
    let hash = Hash_util.row_hash ~null_as_key:true cols idxs in
    let nparts = 1 lsl partition_bits ~rows:n ~threads in
    Some (partition ~grain:settings.grain ~threads ~nparts ~hash ~base n)
