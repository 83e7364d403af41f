(** Engine settings: the choices between equivalent physical paths, as one
    immutable value. A setting changes cost, never a result: the
    configuration oracle ([test/test_config.ml]) runs its corpus under
    several. A [Db.t] holds one, a query may override it
    ([Db.execute ?settings]), and both executors carry it in their
    context; [dict] is read at ingest. The parallel dispatch mode and the
    pool stay process-level ({!Parallel.set_mode}). *)

type t = {
  radix : bool; (* radix-partitioned join builds and aggregation *)
  grain : int;
      (* rows a parallel region runs inline up to, and the build size
         radix partitions from; 0 splits every region and forces radix *)
  fuse : bool; (* byte-mask selection and the fused aggregate source *)
  ivm : bool; (* a stale stored result catches up by delta *)
  dict : bool; (* dictionary-encode string columns at ingest *)
  cache : bool; (* the result cache *)
  plancache : bool; (* the parameterized plan cache *)
}

let default =
  { radix = true;
    grain = 8192;
    fuse = true;
    ivm = true;
    dict = true;
    cache = true;
    plancache = true }
