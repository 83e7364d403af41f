(** Test runner: aggregates all suites. *)

let () =
  Alcotest.run "pytond"
    (Test_storage.suites @ Test_dict.suites @ Test_engine.suites
   @ Test_ir.suites @ Test_frontend.suites @ Test_tensor.suites
   @ Test_numpy_api.suites @ Test_pipeline.suites @ Test_errors.suites
   @ Test_faults.suites @ Test_stats.suites @ Test_radix.suites
   @ Test_fused.suites @ Test_server.suites @ Test_matview.suites
   @ Test_plancache.suites @ Test_keytab.suites @ Test_config.suites)
