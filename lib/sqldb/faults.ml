(** Fault-injection registry for resilience testing.

    Armed via [PYTOND_FAULTS=<seed>] in the environment or {!arm}
    programmatically, the registry makes deterministic pseudo-random draws at
    named injection points compiled into the engine:

    - {b worker crash} ([Parallel] chunk dispatch) — the chunk fails with
      {!Injected} before it starts and {!Parallel.run_protected} re-runs it;
    - {b slow partition} ([Parallel] chunk dispatch) — the chunk stalls for a
      few milliseconds, exercising deadline guards and the simulated-speedup
      accounting under skew;
    - {b dictionary corruption} (executor scans) — a scan reports its
      dictionary page as corrupt, modelling a detected (checksummed) storage
      fault; [Db.execute] recovers by retrying the query once with faults
      suppressed, i.e. re-reading clean data.

    Every fault is therefore either recovered inside the engine or surfaces
    as a typed error — never a silently wrong answer. The differential
    oracle in [test/test_faults.ml] asserts exactly that. *)

type kind = Worker_crash | Slow_partition | Dict_corrupt

exception Injected of { kind : kind; site : string }

let kind_name = function
  | Worker_crash -> "worker-crash"
  | Slow_partition -> "slow-partition"
  | Dict_corrupt -> "dict-corrupt"

type state = { seed : int; draws : int Atomic.t }

let registry : state option Atomic.t = Atomic.make None

(* Recovery paths re-execute work with injection suppressed so a retry
   cannot be re-faulted into a livelock. Suppression is domain-local:
   concurrent queries on a server worker pool must not mask each other's
   injection points when one of them happens to be inside a retry. Pool
   workers running a query's chunk inherit its suppression explicitly
   ({!Parallel} passes [suppressed ()] through {!with_inherited}). *)
let suppress_depth : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let suppressed () = Domain.DLS.get suppress_depth > 0

let with_suppressed f =
  Domain.DLS.set suppress_depth (Domain.DLS.get suppress_depth + 1);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set suppress_depth (Domain.DLS.get suppress_depth - 1))
    f

(** Run [f]; if an injected fault escapes it, run it once more with
    injection suppressed. A detected fault is recovered by re-reading,
    never by returning a partial result; Guard trips are not retried. *)
let retry_once f =
  try f () with Injected _ when not (suppressed ()) -> with_suppressed f

(** Run [f] with suppression forced on ([true]) or left as-is ([false]):
    a pool worker running a suppressed query's chunk calls this with the
    query's [suppressed ()] so a recovery retry stays unfaulted across
    domains. *)
let with_inherited inherited f = if inherited then with_suppressed f else f ()

let arm ~seed () = Atomic.set registry (Some { seed; draws = Atomic.make 0 })
let disarm () = Atomic.set registry None
let armed () = Atomic.get registry <> None

(* Re-read PYTOND_FAULTS: arms when set to an integer seed, disarms
   otherwise. Called at module init and by tests restoring global state. *)
let arm_from_env () =
  match Sys.getenv_opt "PYTOND_FAULTS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some seed -> arm ~seed ()
    | None -> disarm ())
  | None -> disarm ()

let () = arm_from_env ()

(* splitmix64-style finalizer over seed, site and draw counter. *)
let mix seed site_hash draw =
  let z = ref (seed * 0x9E3779B1 + site_hash + (draw * 0x85EBCA6B)) in
  z := (!z lxor (!z lsr 16)) * 0x21F0AAAD;
  z := (!z lxor (!z lsr 15)) * 0x735A2D97;
  (!z lxor (!z lsr 15)) land max_int

(* Firing odds per kind: roughly one fault every few queries across a test
   suite — frequent enough to exercise recovery, rare enough that most
   queries also cover the fault-free path under a given seed. *)
let denominator = function
  | Worker_crash -> 5
  | Slow_partition -> 7
  | Dict_corrupt -> 6

let fires kind ~site =
  match Atomic.get registry with
  | None -> false
  | Some st ->
    if suppressed () then false
    else
      let draw = Atomic.fetch_and_add st.draws 1 in
      mix st.seed (Hashtbl.hash (site, kind_name kind)) draw
      mod denominator kind
      = 0

(* Injection points. Each is a no-op unless the registry is armed. *)

let crash_point ~site =
  if fires Worker_crash ~site then raise (Injected { kind = Worker_crash; site })

let slow_point ~site =
  if fires Slow_partition ~site then Unix.sleepf 0.002

let dict_corrupt_point ~site =
  if fires Dict_corrupt ~site then raise (Injected { kind = Dict_corrupt; site })
