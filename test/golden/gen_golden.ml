(* Prints the O4 SQL of the 22 TPC-H programs and of the paper workloads
   ([Workloads.all]) in both dialects, for the byte-for-byte comparison
   against [o4.sql] that [dune runtest] makes. After an intended change
   to the generated SQL, [dune promote] takes the new text. *)

let emit ~group ~db (name, source) =
  List.iter
    (fun dialect ->
      Printf.printf "-- %s/%s %s\n%s\n\n" group name dialect
        (Pytond.compile ~dialect ~db ~source ~fname:"query" ()))
    [ "duckdb"; "hyper" ]

let () =
  let db = Tpch.Dbgen.make_db 0.001 in
  List.iter (emit ~group:"tpch" ~db) Tpch.Queries.all;
  List.iter
    (fun (name, load, source) ->
      let db = Sqldb.Db.create () in
      load db;
      emit ~group:"workload" ~db (name, source))
    Workloads.all
