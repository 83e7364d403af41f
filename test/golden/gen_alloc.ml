(* Prints the minor-heap words that executing each of the 22 TPC-H
   programs allocates on each backend (SF 0.002, 1 thread, no result or
   plan cache, fault injection off), and the words it allocates directly
   on the major heap (major minus promoted words from [Gc.counters]:
   arrays over 256 words skip the minor heap, so the first column misses
   them), for the comparison against
   [alloc.txt] that [dune runtest] makes. Allocation is exact where wall
   time is noise: a change that moves a number shows as a diff, and
   [dune promote] takes the new record once the move is explained. Each
   query runs once untimed first, so lazily built per-table state does
   not land on whichever query happens to touch it first. *)

open Sqldb

let () =
  Faults.disarm ();
  let db = Tpch.Dbgen.make_db 0.002 in
  let cat = Catalog.pin (Db.catalog db) in
  List.iter
    (fun (backend, dialect) ->
      let exec bq =
        match backend with
        | `Duck -> ignore (Exec_vectorized.run_query ~threads:1 cat bq)
        | `Hyper -> ignore (Exec_compiled.run_query ~threads:1 cat bq)
      in
      List.iter
        (fun (name, source) ->
          let sql = Pytond.compile ~dialect ~db ~source ~fname:"query" () in
          let bq = Db.plan db sql in
          exec bq;
          (* read outside the minor-words bracket: [Gc.counters] itself
             allocates, and would move the first column *)
          let _, p0, m0 = Gc.counters () in
          let w0 = Gc.minor_words () in
          exec bq;
          let w1 = Gc.minor_words () in
          let _, p1, m1 = Gc.counters () in
          Printf.printf "%-4s %-6s %10.0f %10.0f\n" name dialect (w1 -. w0)
            (m1 -. m0 -. (p1 -. p0)))
        Tpch.Queries.all)
    [ (`Duck, "duckdb"); (`Hyper, "hyper") ]
