(** Morsel-style parallelism: the one place that decides whether a region
    of work splits, into how many chunks, and where they run.

    A region runs inline at one thread or up to the grain (the caller's
    [Settings.grain], passed as [~grain]); above it, {!chunk_count} picks
    the chunks. [Domains] runs them on a lazily started pool of at most
    [recommended_domain_count - 1] persistent workers plus the caller,
    which claims chunks from the same counter, so a caller never waits on
    a chunk nobody took (a server worker or a nested region cannot
    deadlock). [Simulated], for hosts with fewer cores than threads, runs
    chunks one after another, timed, and adds each region's overlap saving
    (total minus slowest chunk) to {!saved_time}: wall time minus the
    saving models a multicore run whose regions cost their critical path,
    without cache effects (DESIGN.md §1). [Sequential_only] runs chunks
    inline in order.

    Every dispatched chunk is a {!Guard} checkpoint and a {!Faults} site
    and runs under the dispatching query's guard and fault suppression.
    Guard trips and injected faults propagate; any other failure re-runs
    its chunk inline. A region returns or raises only after every chunk it
    handed out has finished. *)

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

(* The grain: a region of at most this many rows runs inline, as one call
   in the calling domain, and {!Radix.should} partitions from this size.
   Grain 0 splits every region of two or more rows and forces radix. *)
let inline ~grain ~threads n = threads <= 1 || n <= grain

(* The one chunk-count rule. Scans, filters and probes write disjoint
   outputs that are only concatenated, so they take morsels: more chunks
   than threads balance uneven work at no merge cost. An aggregate's
   chunks ([merged]) each fold a partial table that must then be merged,
   so every extra chunk costs a table and a merge pass: aggregates take
   one chunk per thread. *)
let chunk_count ~grain ~merged ~threads n =
  if inline ~grain ~threads n then 1
  else if merged then threads
  else max threads (min 64 (n / max 1 grain))

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

(* A dispatched region: [run i] runs item [i] and records its outcome;
   items are claimed by index from [next]. *)
type region = {
  run : int -> unit;
  size : int;
  next : int Atomic.t;
  finished : int Atomic.t;
}

let lock = Mutex.create ()
let posted = Condition.create () (* a region was queued *)
let region_done = Condition.create () (* a region finished its last item *)

(* One entry per worker a region wants. An entry whose region the caller
   already finished finds no item left. *)
let wanted : region Queue.t = Queue.create ()
let workers = ref (-1) (* -1: not started *)

(* Claim and run items until none are left. *)
let help r =
  let rec loop () =
    let i = Atomic.fetch_and_add r.next 1 in
    if i < r.size then begin
      r.run i;
      if Atomic.fetch_and_add r.finished 1 = r.size - 1 then begin
        Mutex.lock lock;
        Condition.broadcast region_done;
        Mutex.unlock lock
      end;
      loop ()
    end
  in
  loop ()

let rec worker () =
  Mutex.lock lock;
  while Queue.is_empty wanted do
    Condition.wait posted lock
  done;
  let r = Queue.pop wanted in
  Mutex.unlock lock;
  help r;
  worker ()

(* With the lock held: start the workers once. A failed spawn leaves a
   smaller pool; with none, callers run every item. *)
let start () =
  if !workers < 0 then begin
    workers := 0;
    try
      while !workers < available_cores () - 1 do
        ignore (Domain.spawn worker);
        incr workers
      done
    with _ -> ()
  end

let run_pooled ~threads (works : (unit -> 'a) list) : 'a list =
  let works = Array.of_list works in
  let n = Array.length works in
  let guard = Guard.current () and sup = Faults.suppressed () in
  let results = Array.make n None in
  let run i =
    results.(i) <-
      Some
        (match
           Guard.with_installed guard (fun () ->
               Faults.with_inherited sup (fun () -> run_protected works.(i)))
         with
        | v -> Ok v
        | exception e -> Error e)
  in
  let r = { run; size = n; next = Atomic.make 0; finished = Atomic.make 0 } in
  Mutex.lock lock;
  start ();
  for _ = 2 to min threads (min (!workers + 1) n) do
    Queue.push r wanted
  done;
  Condition.broadcast posted;
  Mutex.unlock lock;
  help r;
  Mutex.lock lock;
  while Atomic.get r.finished < n do
    Condition.wait region_done lock
  done;
  Mutex.unlock lock;
  (* guard trips and injected faults are real outcomes and propagate; any
     other failure re-runs its item inline *)
  List.init n (fun i ->
      match results.(i) with
      | Some (Ok v) -> v
      | Some (Error ((Guard.Trip _ | Faults.Injected _) as e)) -> raise e
      | _ -> run_protected works.(i))

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

(* Run two or more independent work items under the current mode. *)
let dispatch ~threads (works : (unit -> 'a) list) : 'a list =
  match !mode with
  | Sequential_only -> List.map run_protected works
  | Domains -> run_pooled ~threads works
  | Simulated -> run_timed works

(** Map each chunk of rows [0, n) with [f start len] and collect the
    results in chunk order; [merged] marks an aggregate's partials
    ({!chunk_count}). An inline region is the one call [f 0 n]; an empty
    one calls nothing. *)
let map_chunks ?(merged = false) ~grain ~threads n f =
  let k = min n (chunk_count ~grain ~merged ~threads n) in
  if k <= 1 then if n = 0 then [] else [ f 0 n ]
  else
    let base = n / k and rem = n mod k in
    dispatch ~threads
      (List.init k (fun i ->
           let start = (i * base) + min i rem in
           fun () -> f start (base + if i < rem then 1 else 0)))

(** [List.map f xs] over independent items that together touch [rows]
    rows, under the same inline rule as {!map_chunks}. *)
let map_list ~grain ~threads ~rows f xs =
  match xs with
  | _ :: _ :: _ when not (inline ~grain ~threads rows) ->
    dispatch ~threads (List.map (fun x () -> f x) xs)
  | _ -> List.map f xs
