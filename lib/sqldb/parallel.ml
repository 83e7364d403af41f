(** Morsel-style parallelism over OCaml 5 domains.

    [threads = 1] runs everything inline so single-threaded measurements are
    free of domain overhead.

    On hosts with fewer cores than requested threads (notably the single-CPU
    evaluation container), real domains cannot exhibit speedup. [Simulated]
    mode therefore runs each partition sequentially, times it, and records
    the *overlap saving* — total partition time minus the critical path
    (slowest partition). A benchmark measures wall time and subtracts
    {!saved_time} to obtain the modeled multicore time: serial sections count
    fully, parallel regions count as their critical path. This substitution
    is documented in DESIGN.md.

    Resilience: every chunk dispatch is a {!Guard} checkpoint and a
    {!Faults} injection point. A chunk whose domain dies — whether from an
    injected worker crash, a failed [Domain.spawn], or a poisoned domain —
    is retried sequentially in the calling domain instead of crashing the
    query; only guard trips and unrecovered injected faults propagate. *)

type mode = Sequential_only | Domains | Simulated

let available_cores () =
  (* Domain.recommended_domain_count reflects the cpuset *)
  Domain.recommended_domain_count ()

(* PYTOND_PARALLEL=domains|simulated|sequential overrides auto-detection so
   tests can exercise each dispatch path deterministically. *)
let detect () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "PYTOND_PARALLEL") with
  | Some "domains" -> Domains
  | Some "simulated" -> Simulated
  | Some ("sequential" | "sequential_only") -> Sequential_only
  | _ -> if available_cores () > 1 then Domains else Simulated

let mode = ref (detect ())

let set_mode m = mode := m
let current_mode () = !mode

(* Re-run detection (environment + core count); mode is otherwise fixed at
   module init. *)
let force () = mode := detect ()

(* Cumulative overlap saving (seconds) since the last [reset_saved]. *)
let saved = Atomic.make 0. (* single-writer in Simulated mode *)

let reset_saved () = Atomic.set saved 0.
let saved_time () = Atomic.get saved

(* CAS loop: a get-then-set would drop updates if two domains ever account
   saved time concurrently. *)
let rec add_saved dt =
  let cur = Atomic.get saved in
  if not (Atomic.compare_and_set saved cur (cur +. dt)) then add_saved dt

(* Split [n] items into [k] contiguous chunks as (start, len) pairs. *)
let chunks ~k n =
  if n = 0 then []
  else
    let k = max 1 (min k n) in
    let base = n / k and rem = n mod k in
    List.init k (fun i ->
        let start = (i * base) + min i rem in
        let len = base + if i < rem then 1 else 0 in
        (start, len))

(* Run one unit of chunk work: deadline checkpoint, fault injection, and
   inline retry when an injected worker crash kills the first attempt. *)
let run_protected (work : unit -> 'a) : 'a =
  Guard.check ();
  Faults.slow_point ~site:"parallel.chunk";
  try
    Faults.crash_point ~site:"parallel.chunk";
    work ()
  with Faults.Injected { kind = Faults.Worker_crash; _ } ->
    (* the worker died mid-chunk: redo the chunk sequentially *)
    work ()

(* Join a spawned chunk; a poisoned domain retries its chunk inline. Guard
   trips and injected faults are real outcomes and propagate. *)
let join_or_retry (work : unit -> 'a) (d : 'a Domain.t) : 'a =
  match Domain.join d with
  | r -> r
  | exception (Guard.Trip _ as e) -> raise e
  | exception (Faults.Injected _ as e) -> raise e
  | exception _ -> run_protected work

let spawn_all (works : (unit -> 'a) list) : 'a list =
  (* Guard and fault-suppression state are domain-local (concurrent queries
     each carry their own); child domains must explicitly inherit the
     dispatching query's context or its deadline/row budget would stop
     applying exactly where most of the work runs. *)
  let guard = Guard.current () in
  let sup = Faults.suppressed () in
  let in_context work () =
    Guard.with_installed guard (fun () ->
        Faults.with_inherited sup (fun () -> run_protected work))
  in
  let doms =
    List.map
      (fun work ->
        match Domain.spawn (in_context work) with
        | d -> Either.Left (work, d)
        | exception _ ->
          (* spawn failed (domain limit): degrade to inline execution *)
          Either.Right work)
      works
  in
  List.map
    (function
      | Either.Left (work, d) -> join_or_retry work d
      | Either.Right work -> run_protected work)
    doms

let run_timed (works : (unit -> 'a) list) : 'a list =
  let timed =
    List.map
      (fun work ->
        let t0 = Unix.gettimeofday () in
        let r = run_protected work in
        (r, Unix.gettimeofday () -. t0))
      works
  in
  let total = List.fold_left (fun acc (_, t) -> acc +. t) 0. timed in
  let critical = List.fold_left (fun acc (_, t) -> Float.max acc t) 0. timed in
  add_saved (total -. critical);
  List.map fst timed

(* Map each chunk of [0, n) with [f start len] and collect results in chunk
   order. [k] overrides the chunk count (default one per thread) — morsel
   schedulers pass a finer grain so the critical path is one morsel. *)
let map_chunks ?k ~threads n f =
  let cs = chunks ~k:(match k with Some k -> k | None -> threads) n in
  match cs with
  | [] -> []
  | [ (s, l) ] -> [ f s l ]
  | _ when threads <= 1 -> List.map (fun (s, l) -> f s l) cs
  | _ -> (
    let works = List.map (fun (s, l) () -> f s l) cs in
    match !mode with
    | Sequential_only -> List.map run_protected works
    | Domains -> spawn_all works
    | Simulated -> run_timed works)

(* Run independent thunks "in parallel" under the same policy. *)
let map_list ~threads (fs : (unit -> 'a) list) : 'a list =
  if threads <= 1 || List.length fs <= 1 then List.map (fun f -> f ()) fs
  else
    match !mode with
    | Sequential_only -> List.map run_protected fs
    | Domains -> spawn_all fs
    | Simulated -> run_timed fs

(* Morsel count for embarrassingly parallel loops over [n] rows: enough
   chunks that work-stealing can balance them (the critical path is one
   morsel, not a 1/threads range), bounded so per-chunk dispatch stays
   negligible. Real domains get exactly one chunk each — spawning dozens of
   domains on a multicore host costs more than it balances. *)
let morsel_count ~threads n =
  match !mode with
  | Domains -> threads
  | Sequential_only | Simulated -> max threads (min 64 (n / 8192))
