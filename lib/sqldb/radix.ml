(** Radix-partitioned hash joins and aggregation.

    Large build sides are split by key-hash radix into 2^bits partitions so
    each {!Parallel} worker builds — and probes — its own cache-resident
    hash table with no cross-domain sharing, replacing the serial build +
    shared-table probe. Partitioning is the classic 2-pass scheme: each
    chunk first histograms its rows per partition, a prefix sum over the
    per-chunk histograms assigns every (chunk, partition) pair a disjoint
    region of a contiguous per-partition buffer, then a second pass scatters
    base row indices into those regions — no locks, no atomics. Equal keys
    land in the same partition on both sides because {!Hash_util.row_hash}
    hashes by value, independent of layout.

    Per partition, the regular {!Hash_util.build_table} runs over the
    partition's selection vector, so bloom filters and base-row indexing are
    preserved per partition; probes route by the same hash, which is also
    the hash the partition's key table and bloom filter use. Small builds
    keep the single-table path: the [should] threshold compares the
    (planner-estimated, then actual) build cardinality against
    [min_rows].

    [set_enabled false] disables partitioning entirely (the single-table
    path); tests force the radix path with [set_min_rows 0].

    Every scatter chunk and per-partition build is a {!Guard} checkpoint
    and a {!Faults} injection site ("radix.scatter", "radix.build"); chunk
    bodies are idempotent (cursors are chunk-local copies), so the existing
    chunk-retry recovery in {!Parallel.run_protected} re-runs a crashed
    piece inline. *)

let default_min_rows = 8192

let enabled_ref = ref true
let min_rows_ref = ref default_min_rows

let enabled () = !enabled_ref
let set_enabled b = enabled_ref := b
let min_rows () = !min_rows_ref
let set_min_rows n = min_rows_ref := max 0 n

(* Partition when the build side is big enough to amortize the two extra
   passes. With one worker the cache-residency win alone rarely pays at our
   scales, so single-threaded execution keeps the single-table path — unless
   the threshold was explicitly forced to 0 (differential tests exercise
   radix at 1 thread through exactly this override). *)
let should ~rows ~threads =
  !enabled_ref && rows >= !min_rows_ref && (threads > 1 || !min_rows_ref = 0)

(* Power-of-two partition count: enough partitions that each build fits in
   cache (~8K rows targets L2 for a few key+payload columns) and that every
   worker gets at least one, capped at 64 so tiny partitions don't drown in
   per-partition setup. [probe] (when known) also drives the count up: a
   partition is the scheduling quantum of the probe phase, so a huge probe
   over a small build still wants many partitions — each worker then streams
   a sequence of small cache-resident probe morsels instead of one third of
   the probe side. *)
let partition_bits ?(probe = 0) ~rows ~threads () =
  let fit cap target rows =
    let rec go b =
      if b >= cap || rows lsr b <= target then b else go (b + 1)
    in
    go 1
  in
  (* build partitions target L2 (~8K rows); probe partitions are the probe
     phase's scheduling quantum, so aim smaller (~4K rows) and allow more of
     them — per-partition setup is just a table build over a few hundred
     rows *)
  let by_build = fit 6 8192 rows in
  let by_probe = if probe = 0 then 0 else fit 7 4096 probe in
  let by_threads =
    let rec go b = if b >= 3 || 1 lsl b >= threads then b else go (b + 1) in
    go 0
  in
  min 7 (max by_build (max by_probe by_threads))

(* 2-pass parallel partition of the [n] logical rows (base row [base pos])
   into [nparts] buffers of base row indices. Rows hashing negative (null
   keys) are dropped — they can never join. Within a partition, rows keep
   global logical order regardless of chunking, so downstream output is
   deterministic across thread counts. *)
let partition ~threads ~nparts ~(hash : int -> int) ~(base : int -> int)
    (n : int) : int array array =
  let mask = nparts - 1 in
  (* morsel-granular chunks: both passes are embarrassingly parallel, so the
     critical path should be one morsel, not a 1/threads range *)
  let cs = Parallel.chunks ~k:(Parallel.morsel_count ~threads n) n in
  (* the histogram pass caches each row's partition id (nparts <= 64 fits a
     byte; 255 marks a null key) so the scatter pass re-routes with one byte
     load instead of re-hashing the key columns *)
  let pid = Bytes.create n in
  let hists =
    Parallel.map_list ~threads
      (List.map
         (fun (start, len) () ->
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
           hist)
         cs)
  in
  (* prefix sums: offsets.(chunk).(p) = rows of partition p written by
     earlier chunks; totals.(p) = partition size *)
  let totals = Array.make nparts 0 in
  let offsets =
    List.map
      (fun hist ->
        let off = Array.copy totals in
        Array.iteri (fun p c -> totals.(p) <- totals.(p) + c) hist;
        off)
      hists
  in
  let out = Array.init nparts (fun p -> Array.make totals.(p) 0) in
  let works =
    List.map2
      (fun (start, len) off () ->
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
      cs offsets
  in
  ignore (Parallel.map_list ~threads works);
  out

(* ------------------------------------------------------------------ *)
(* Partitioned build-side tables                                      *)
(* ------------------------------------------------------------------ *)

(* A join build side: one shared table (small builds, radix disabled) or
   radix partitions routed by key hash. *)
type t =
  | Single of Hash_util.table
  | Parts of { mask : int; tables : Hash_util.table array }

(* Build over all [n] rows, or over [sel]'s base rows. Partitions when the
   gate passes; each partition build runs on its own worker and is a
   fault-injection site with inline chunk-retry. *)
let build ~threads ?sel (cols : Column.t array) (idxs : int list) ~(n : int) :
    t =
  let n_log = match sel with Some s -> Array.length s | None -> n in
  if not (should ~rows:n_log ~threads) then
    Single (Hash_util.build_table ?sel cols idxs ~n)
  else begin
    let hash = Hash_util.row_hash ~null_as_key:false cols idxs in
    let nparts = 1 lsl partition_bits ~rows:n_log ~threads () in
    let base = match sel with Some s -> fun pos -> s.(pos) | None -> Fun.id in
    let parts = partition ~threads ~nparts ~hash ~base n_log in
    let tables =
      Array.of_list
        (Parallel.map_list ~threads
           (List.init nparts (fun p () ->
                Guard.check ();
                Faults.crash_point ~site:"radix.build";
                Faults.slow_point ~site:"radix.build";
                Hash_util.build_table ~sel:parts.(p) cols idxs ~n)))
    in
    Parts { mask = nparts - 1; tables }
  end

(* Probe closure routing each row to its key's partition. Per-partition
   probe closures are created lazily, so one probe_fn per chunk keeps the
   routing array domain-private. *)
let probe_fn (t : t) (cols : Column.t array) (idxs : int list) :
    int -> int list =
  match t with
  | Single tbl -> Hash_util.probe_fn tbl cols idxs
  | Parts { mask; tables } ->
    let hash = Hash_util.row_hash ~null_as_key:false cols idxs in
    let pfs = Array.make (Array.length tables) None in
    fun row ->
      let h = hash row in
      if h < 0 then []
      else begin
        let p = h land mask in
        let pf =
          match pfs.(p) with
          | Some f -> f
          | None ->
            let f = Hash_util.probe_fn tables.(p) cols idxs in
            pfs.(p) <- Some f;
            f
        in
        pf row
      end

(* Bloom pre-test for scan pushdown, routing by the probe key's hash; a
   null key (negative hash) can never join, so it fails outright. *)
let scan_test (t : t) (c : Column.t) : int -> bool =
  match t with
  | Single tbl -> Hash_util.scan_test tbl c
  | Parts { mask; tables } ->
    let hash = Hash_util.row_hash ~null_as_key:false [| c |] [ 0 ] in
    let tests = Array.map (fun tbl -> Hash_util.scan_test tbl c) tables in
    fun row ->
      let h = hash row in
      h >= 0 && tests.(h land mask) row

(* Partition [n] logical rows by group-key hash for radix aggregation:
   the same 2-pass scheme as the join partitioner, with NULL as a key value
   (null components hash like any other), so every row lands in a
   partition. Equal keys land in one partition, so per-partition
   aggregation tables hold disjoint group sets. Returns [None] when the
   size gate declines. *)
let group_parts ~threads ?(base = Fun.id) (cols : Column.t array)
    (idxs : int list) ~(n : int) : int array array option =
  if not (should ~rows:n ~threads) then None
  else
    let hash = Hash_util.row_hash ~null_as_key:true cols idxs in
    let nparts = 1 lsl partition_bits ~rows:n ~threads () in
    Some (partition ~threads ~nparts ~hash ~base n)

(* Cheap size-only gate for callers that decide the join strategy before
   key layouts are known (the compiled executor, whose probe side is still
   a fused pipeline at planning time). Mirrors [join_plan]'s size logic. *)
let pre_gate ~threads ~build_rows ~probe_rows =
  should ~rows:(max build_rows (probe_rows / 4)) ~threads

(* Two-sided plan for the vectorized join: partition count plus both sides'
   row hashes, or [None] when the single-table path should run. The gate
   considers both sides: partitioning pays either when the build is large
   (cache-resident partition tables, parallel build) or when the probe side
   dwarfs the threshold (per-partition probe morsels parallelize the probe
   far finer than range chunking) — a big probe amortizes the extra
   partition passes even over a small build. [est] is the planner's
   build-side cardinality estimate — a stats pre-gate that vetoes
   partitioning when the optimizer is confident the whole join is tiny
   (well under the threshold; 0 means no estimate); the actual counts have
   the final say. *)
let join_plan ~threads ?(est = 0.) ~build_rows ~probe_rows
    (bcols : Column.t array) (bidxs : int list) (pcols : Column.t array)
    (pidxs : int list) : (int * (int -> int) * (int -> int)) option =
  let eff_rows = max build_rows (probe_rows / 4) in
  if
    (not (should ~rows:eff_rows ~threads))
    || (est > 0.
       && est *. 4. < float_of_int (min_rows ())
       && probe_rows / 4 < min_rows ())
  then None
  else
    Some
      ( 1 lsl partition_bits ~probe:probe_rows ~rows:build_rows ~threads (),
        Hash_util.row_hash ~null_as_key:false bcols bidxs,
        Hash_util.row_hash ~null_as_key:false pcols pidxs )
