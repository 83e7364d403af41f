(** Cooperative execution guards: a per-query deadline / cancellation token
    plus a processed-row budget.

    A guard is installed for the duration of one [Db.execute] call and
    checked cooperatively at morsel boundaries ({!Parallel} chunk dispatch,
    the compiled executor's morsel loop) and at pipeline breakers (vectorized
    operator boundaries, aggregation sinks). Nothing is preempted: a tripped
    guard raises {!Trip} from the next checkpoint, which unwinds the query
    and leaves the engine reusable.

    The active guard is {b domain-local}: concurrent queries running on
    different domains (the {!Server} worker pool) each install and observe
    their own guard without interfering. Pool workers running a chunk of a
    query ({!Parallel}) install the dispatching query's guard explicitly via
    {!current} / {!with_installed}; the guard record itself is shared and
    its counters are atomics, so row accounting and cancellation are visible
    across every domain working on the same query. When no guard is
    installed a checkpoint is a single domain-local load. *)

type trip = Timeout | Row_budget | Cancelled

exception Trip of { reason : trip; detail : string }

let trip_name = function
  | Timeout -> "timeout"
  | Row_budget -> "row-budget"
  | Cancelled -> "cancelled"

type t = {
  deadline : float option; (* absolute, in Unix.gettimeofday seconds *)
  row_budget : int option; (* max rows materialized across breakers *)
  rows : int Atomic.t;
  cancelled : bool Atomic.t;
}

(* One slot per domain: the guard of the query this domain is currently
   executing (or helping execute). *)
let active : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () : t option = Domain.DLS.get active

(** Run [f] with [g] as this domain's active guard, restoring the previous
    guard afterwards. {!Parallel} uses this to run each chunk under the
    dispatching query's guard, on whichever domain runs it. *)
let with_installed (g : t option) (f : unit -> 'a) : 'a =
  let prev = Domain.DLS.get active in
  Domain.DLS.set active g;
  Fun.protect ~finally:(fun () -> Domain.DLS.set active prev) f

let install ?timeout_ms ?row_budget () : t option =
  match (timeout_ms, row_budget) with
  | None, None -> None
  | _ ->
    let g =
      { deadline =
          Option.map
            (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
            timeout_ms;
        row_budget;
        rows = Atomic.make 0;
        cancelled = Atomic.make false }
    in
    Domain.DLS.set active (Some g);
    Some g

let clear () = Domain.DLS.set active None

let cancel g = Atomic.set g.cancelled true

(* Checkpoint: free when no guard is installed. *)
let check () =
  match Domain.DLS.get active with
  | None -> ()
  | Some g ->
    if Atomic.get g.cancelled then
      raise (Trip { reason = Cancelled; detail = "query cancelled" });
    (match g.deadline with
    (* [>=], not [>]: a 0ms budget sets the deadline to install time, and a
       checkpoint reached within the same clock tick must still trip. *)
    | Some d when Unix.gettimeofday () >= d ->
      raise (Trip { reason = Timeout; detail = "deadline exceeded" })
    | _ -> ())

(* Account [n] materialized rows against the budget (if any). *)
let add_rows n =
  match Domain.DLS.get active with
  | None -> ()
  | Some { row_budget = None; _ } -> ()
  | Some ({ row_budget = Some budget; _ } as g) ->
    let total = Atomic.fetch_and_add g.rows n + n in
    if total > budget then
      raise
        (Trip
           { reason = Row_budget;
             detail =
               Printf.sprintf "row budget %d exceeded (%d rows materialized)"
                 budget total })

(* Run [f] under a guard; a no-op wrapper when neither limit is given. The
   previous guard (if any) is restored on exit, so a guarded call nested
   under another guarded call — e.g. a retry wrapper — behaves sanely. *)
let with_guard ?timeout_ms ?row_budget (f : unit -> 'a) : 'a =
  match (timeout_ms, row_budget) with
  | None, None -> f ()
  | _ ->
    let prev = current () in
    ignore (install ?timeout_ms ?row_budget ());
    Fun.protect ~finally:(fun () -> Domain.DLS.set active prev) f
