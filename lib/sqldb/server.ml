(** Multi-tenant query service: a bounded admission queue in front of a
    {!Domain}-based worker pool, with per-tenant policies ({!Tenant}),
    retry-with-backoff for transient faults, and a per-tenant circuit
    breaker that routes repeated primary-engine failures to a fallback
    engine.

    The server is generic over the request/response types: the caller
    supplies one [exec] closure that runs a request for a tenant on either
    the primary engine ([fallback:false]) or the fallback engine
    ([fallback:true]). The binary wires [exec] to the compiled SQL engine
    with the interpreter baseline as fallback; tests wire synthetic
    executors to pin the admission/retry/breaker machinery itself.

    Discipline, in order:
    - {b admission} — a submit is rejected immediately with a typed
      {!Overloaded} (carrying a retry-after hint) when the shared queue is
      at capacity or the tenant is at its in-flight limit. The queue never
      grows without bound and a noisy tenant cannot starve the pool.
    - {b tenant policy} — the [exec] closure receives the {!Tenant.t} and
      applies its {!Guard} budgets (timeout / row cap) to the query, so
      every existing Guard checkpoint in the engine enforces the tenant's
      limits cooperatively.
    - {b snapshot pin} — execution pins the catalog ({!Db.execute} does
      this internally), so a query admitted before an ingest completes
      against one consistent snapshot.
    - {b retry} — attempts that fail with a transient-classified exception
      (by default: an escaped injected fault) are retried with jittered
      exponential backoff, up to the tenant's retry budget.
    - {b breaker} — terminal primary failures count against the tenant's
      breaker; once open, the tenant's queries run on the fallback engine
      until a cooldown passes and a primary probe succeeds. *)

exception Overloaded of { scope : string; retry_after_ms : int }
(** Raised (returned as [Error]) when admission refuses a request. [scope]
    is ["server"] for queue pressure or ["tenant:<name>"] for a tenant at
    its in-flight cap; [retry_after_ms] is the backpressure hint. *)

type 'resp outcome = {
  value : 'resp;
  via_fallback : bool; (** served by the fallback engine (open breaker) *)
  attempts : int; (** 1 = first try succeeded *)
  queued_ms : float; (** admission-to-start latency *)
}

type ('req, 'resp) job = {
  jtenant : Tenant.t;
  jreq : 'req;
  jsubmitted : float;
  jm : Mutex.t;
  jc : Condition.t;
  mutable jresult : ('resp outcome, exn) result option;
}

type ('req, 'resp) t = {
  exec : tenant:Tenant.t -> fallback:bool -> 'req -> 'resp;
  transient : exn -> bool;
  lock : Mutex.t;
  work : Condition.t;
  queue : ('req, 'resp) job Queue.t;
  queue_cap : int;
  tenants : (string, Tenant.t) Hashtbl.t;
  default_policy : Tenant.policy;
  mutable running : bool;
  mutable workers : unit Domain.t list;
  (* stats, all under [lock] *)
  mutable submitted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable failed : int;
  mutable max_depth : int;
  mutable avg_service_ms : float; (* EWMA, feeds retry-after hints *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Worker loop                                                        *)
(* ------------------------------------------------------------------ *)

let deliver (job : _ job) result =
  Mutex.lock job.jm;
  job.jresult <- Some result;
  Condition.signal job.jc;
  Mutex.unlock job.jm

let process t (job : _ job) =
  let tenant = job.jtenant in
  let started = Unix.gettimeofday () in
  let queued_ms = (started -. job.jsubmitted) *. 1000. in
  let fallback = Tenant.breaker_open tenant in
  let rec attempt n =
    match t.exec ~tenant ~fallback job.jreq with
    | v -> Ok { value = v; via_fallback = fallback; attempts = n; queued_ms }
    | exception e
      when (not fallback)
           && t.transient e
           && n <= tenant.Tenant.policy.Tenant.max_retries ->
      Tenant.record_retry tenant;
      Unix.sleepf (Tenant.backoff_delay_ms tenant ~attempt:n /. 1000.);
      attempt (n + 1)
    | exception e -> Error e
  in
  let result = try attempt 1 with e -> Error e in
  (match result with
  | Ok o when o.via_fallback -> Tenant.record_fallback tenant
  | Ok _ -> Tenant.record_success tenant
  | Error _ -> Tenant.record_failure tenant);
  Tenant.release tenant;
  let service_ms = (Unix.gettimeofday () -. started) *. 1000. in
  locked t (fun () ->
      (match result with
      | Ok _ -> t.completed <- t.completed + 1
      | Error _ -> t.failed <- t.failed + 1);
      t.avg_service_ms <-
        (if t.completed + t.failed = 1 then service_ms
         else (0.8 *. t.avg_service_ms) +. (0.2 *. service_ms)));
  deliver job result

let rec worker_loop t =
  Mutex.lock t.lock;
  while t.running && Queue.is_empty t.queue do
    Condition.wait t.work t.lock
  done;
  (* on shutdown, drain what was already admitted so no submitter is left
     blocked on an undelivered job *)
  if Queue.is_empty t.queue then Mutex.unlock t.lock
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.lock;
    (* a worker must survive anything a job throws at it *)
    (try process t job
     with e -> deliver job (Error e));
    worker_loop t
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let default_transient = function
  | Faults.Injected _ -> true
  | _ -> false

let create ?(workers = 2) ?(queue_cap = 32)
    ?(default_policy = Tenant.default_policy) ?(transient = default_transient)
    ~exec () =
  let t =
    { exec;
      transient;
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      queue_cap = max 1 queue_cap;
      tenants = Hashtbl.create 8;
      default_policy;
      running = true;
      workers = [];
      submitted = 0;
      rejected = 0;
      completed = 0;
      failed = 0;
      max_depth = 0;
      avg_service_ms = 0. }
  in
  t.workers <-
    List.init (max 1 workers) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let stop t =
  locked t (fun () ->
      t.running <- false;
      Condition.broadcast t.work);
  List.iter Domain.join t.workers;
  t.workers <- []

let tenant t name = locked t (fun () -> Hashtbl.find_opt t.tenants name)

let find_or_create_tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some ten -> ten
  | None ->
    let ten = Tenant.create ~policy:t.default_policy name in
    Hashtbl.replace t.tenants name ten;
    ten

(* ------------------------------------------------------------------ *)
(* Submission                                                         *)
(* ------------------------------------------------------------------ *)

(* Backpressure hint: how long until the current backlog should have
   drained through the pool, floored at one service quantum. *)
let retry_after t ~depth =
  let per = if t.avg_service_ms > 0. then t.avg_service_ms else 5. in
  let w = max 1 (List.length t.workers) in
  int_of_float (Float.max per (float_of_int (depth + 1) *. per /. float_of_int w))

(** Submit [req] for [tenant] and block until the response is available.
    Admission either enqueues the request (bounded) or returns
    [Error (Overloaded _)] immediately — an overloaded server sheds load in
    O(1) instead of queueing without bound. Execution failures come back as
    [Error e] with the worker's exception. *)
let submit (t : ('req, 'resp) t) ~tenant:name (req : 'req) :
    ('resp outcome, exn) result =
  let admitted =
    locked t (fun () ->
        if not t.running then Error (Failure "server stopped")
        else begin
          let ten = find_or_create_tenant t name in
          let depth = Queue.length t.queue in
          if depth >= t.queue_cap then begin
            t.rejected <- t.rejected + 1;
            Error
              (Overloaded
                 { scope = "server"; retry_after_ms = retry_after t ~depth })
          end
          else if not (Tenant.try_admit ten) then begin
            t.rejected <- t.rejected + 1;
            Error
              (Overloaded
                 { scope = "tenant:" ^ name;
                   retry_after_ms = retry_after t ~depth })
          end
          else begin
            let job =
              { jtenant = ten;
                jreq = req;
                jsubmitted = Unix.gettimeofday ();
                jm = Mutex.create ();
                jc = Condition.create ();
                jresult = None }
            in
            Queue.push job t.queue;
            t.submitted <- t.submitted + 1;
            t.max_depth <- max t.max_depth (Queue.length t.queue);
            Condition.signal t.work;
            Ok job
          end
        end)
  in
  match admitted with
  | Error e -> Error e
  | Ok job ->
    Mutex.lock job.jm;
    let rec wait () =
      match job.jresult with
      | Some r -> r
      | None ->
        Condition.wait job.jc job.jm;
        wait ()
    in
    let r = wait () in
    Mutex.unlock job.jm;
    r

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

type stats = {
  submitted : int;
  completed : int;
  failed : int;
  rejected : int;
  max_depth : int; (** deepest the admission queue ever got *)
  queue_cap : int;
  workers : int;
  avg_service_ms : float;
  tenants : (string * Tenant.stats) list;
}

let stats t : stats =
  locked t (fun () ->
      { submitted = t.submitted;
        completed = t.completed;
        failed = t.failed;
        rejected = t.rejected;
        max_depth = t.max_depth;
        queue_cap = t.queue_cap;
        workers = List.length t.workers;
        avg_service_ms = t.avg_service_ms;
        tenants =
          Hashtbl.fold
            (fun name ten acc -> (name, Tenant.stats ten) :: acc)
            t.tenants [] })

let stats_to_string (s : stats) : string =
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "server: %d submitted, %d completed, %d failed, %d rejected; queue \
     depth max %d/%d, %d workers, avg service %.1fms\n"
    s.submitted s.completed s.failed s.rejected s.max_depth s.queue_cap
    s.workers s.avg_service_ms;
  List.iter
    (fun (name, (ts : Tenant.stats)) ->
      Printf.bprintf buf
        "  tenant %-12s admitted=%d rejected=%d completed=%d failed=%d \
         retries=%d fallbacks=%d%s\n"
        name ts.Tenant.s_admitted ts.Tenant.s_rejected ts.Tenant.s_completed
        ts.Tenant.s_failed ts.Tenant.s_retries ts.Tenant.s_fallbacks
        (if ts.Tenant.s_breaker_open then " [breaker OPEN]" else ""))
    (List.sort compare s.tenants);
  Buffer.contents buf
