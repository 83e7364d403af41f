open Perfbench_util

let series points =
  let s = Hostnorm.create ~kind:Hostnorm.Alloc ~every:0. in
  List.iter (fun (t, ms) -> Hostnorm.add s ~t ~ms) points;
  s

let close = Alcotest.float 1e-9

let test_interpolation () =
  let s = series [ (10., 1.0); (20., 2.0); (40., 2.0) ] in
  Alcotest.check close "at a probe" 1.0 (Hostnorm.ref_at s 10.);
  Alcotest.check close "between probes" 1.5 (Hostnorm.ref_at s 15.);
  Alcotest.check close "flat segment" 2.0 (Hostnorm.ref_at s 30.);
  Alcotest.check close "held before first" 1.0 (Hostnorm.ref_at s 0.);
  Alcotest.check close "held after last" 2.0 (Hostnorm.ref_at s 99.)

let test_normalize () =
  let nominal = Hostnorm.ref_nominal_ms Hostnorm.Alloc in
  (* A sample measured while the host ran at half nominal speed (probe
     twice its nominal time) normalizes to half its raw time. *)
  let s = series [ (0., 2. *. nominal); (1., 2. *. nominal) ] in
  Alcotest.check close "half speed" 5. (Hostnorm.normalize s ~t0:0.2 ~t1:0.4 10.);
  (* Bracketing probes: the sample is normalized by their mean. *)
  let s = series [ (0., 1.); (1., 3.) ] in
  Alcotest.check close "bracketed" (10. *. nominal /. 2.) (Hostnorm.normalize s ~t0:0.1 ~t1:0.9 10.)

let test_placement () =
  (* every = 0 probes at each tick (bracketing); a long interval probes
     once, then not again until it has elapsed. *)
  let s = Hostnorm.create ~kind:Hostnorm.Alloc ~every:0. in
  for _ = 1 to 3 do Hostnorm.tick s done;
  Alcotest.(check int) "bracketing probes every tick" 3
    (Array.length (Hostnorm.probes s));
  let s = Hostnorm.create ~kind:Hostnorm.Alloc ~every:3600. in
  for _ = 1 to 3 do Hostnorm.tick s done;
  Alcotest.(check int) "interval probes once" 1 (Array.length (Hostnorm.probes s));
  let ts = Hostnorm.probes s in
  Alcotest.(check bool) "probe time positive" true (ts.(0) > 0.)

let test_percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 0.))) "p99 needs 1000 samples" None
    (Hostnorm.percentile ~p:99. (xs 999));
  Alcotest.(check (option (float 0.))) "p99 of 1..1000" (Some 990.)
    (Hostnorm.percentile ~p:99. (xs 1000));
  Alcotest.(check (option (float 0.))) "p90 of 1..100" (Some 90.)
    (Hostnorm.percentile ~p:90. (xs 100));
  Alcotest.(check (option (float 0.))) "p50 of 19 refused" None
    (Hostnorm.percentile ~p:50. (xs 19));
  Alcotest.(check (option (float 0.))) "p50 of 20" (Some 10.)
    (Hostnorm.percentile ~p:50. (Array.of_list (List.rev (Array.to_list (xs 20)))))

let test_median_geomean () =
  Alcotest.check close "odd median" 2. (Hostnorm.median [| 3.; 1.; 2. |]);
  Alcotest.check close "even median" 2.5 (Hostnorm.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "geomean" 4. (Hostnorm.geomean [| 2.; 8. |]);
  Alcotest.check (Alcotest.float 1e-9) "geomean of equal values" 7.
    (Hostnorm.geomean (Array.make 5 7.))

let test_self_time () =
  let tr = Trace.create () in
  Trace.span tr ~request:0 "root" (fun () ->
      Trace.span tr ~request:0 "a" (fun () -> ignore (Hostnorm.churn 100));
      Trace.span tr ~request:0 "b" (fun () -> ignore (Hostnorm.churn 100)));
  let st = Trace.self_times (Trace.spans tr) in
  let find n = List.find (fun (s, _) -> s.Trace.name = n) st in
  let root, root_self = find "root" in
  let a, a_self = find "a" and b, _ = find "b" in
  Alcotest.(check int) "children point at root" root.Trace.id a.Trace.parent;
  Alcotest.(check int) "root has no parent" (-1) root.Trace.parent;
  Alcotest.check close "leaf self time is its duration" (a.Trace.t1 -. a.Trace.t0) a_self;
  Alcotest.check (Alcotest.float 1e-6) "root self excludes children"
    (root.Trace.t1 -. root.Trace.t0 -. (a.Trace.t1 -. a.Trace.t0)
    -. (b.Trace.t1 -. b.Trace.t0))
    root_self

let () =
  Alcotest.run "perfbench"
    [ ( "hostnorm",
        [ Alcotest.test_case "interpolation between probes" `Quick test_interpolation;
          Alcotest.test_case "normalize by interpolated probe" `Quick test_normalize;
          Alcotest.test_case "probe placement" `Quick test_placement;
          Alcotest.test_case "percentile needs 10 beyond" `Quick test_percentile_rule;
          Alcotest.test_case "median and geomean" `Quick test_median_geomean ] );
      ( "trace",
        [ Alcotest.test_case "self time excludes children" `Quick test_self_time ] ) ]
