(** Host-speed normalization.

    The benchmark host changes speed in regimes lasting seconds to tens of
    seconds, so a raw wall time mixes the program's cost with the host's
    current speed. A reference probe — a fixed loop in this file, sharing no
    code with the engine — is timed between samples; each sample is then
    reported as [raw *. ref_nominal /. ref], where [ref] is the probe time
    interpolated at the sample's midpoint. [ref_nominal] is a constant, so
    normalized figures keep their units. *)

let now = Unix.gettimeofday

(** [Alloc]: builds and folds short-lived boxed-float lists, so it tracks
    the core's speed, allocation, minor collections and cache pressure.
    [Mixed]: the same loop five times over, then a sequential read of a
    32 MB array, so it also tracks memory bandwidth. *)
type kind = Alloc | Mixed

(* Nominal probe time (ms) of each kind: about what {!probe} takes on the
   2-vCPU x86-64 VM the benchmark was tuned on. Only their constancy
   matters; changing one rescales every figure normalized by that kind. *)
let ref_nominal_ms = function Alloc -> 0.6 | Mixed -> 8.0

(* Short-lived lists only: everything dies in the minor heap, so the probe
   adds no work to the major collector the measured program shares. *)
let churn n =
  let acc = ref 0. in
  for i = 1 to n do
    acc := List.fold_left ( +. ) !acc (List.init 50 (fun j -> float_of_int (i + j)))
  done;
  Sys.opaque_identity !acc

(* A bigarray, so the collector never scans it. Larger than the last-level
   cache of the tuning host, so the read is bandwidth-bound. *)
let stream_buf = lazy (Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 22) Fun.id)

let stream () =
  let a = Lazy.force stream_buf in
  let s = ref 0 in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    s := !s + Bigarray.Array1.unsafe_get a i
  done;
  Sys.opaque_identity !s

let run_probe = function
  | Alloc -> ignore (churn 1_000)
  | Mixed ->
    ignore (churn 5_000);
    ignore (stream ())

(** Probe series in time order: midpoints (s) and probe times (ms). *)
type series = {
  kind : kind;
  mutable ts : float array;
  mutable ms : float array;
  mutable n : int;
  every : float; (* minimum seconds between probes; 0 = bracket samples *)
  mutable last : float;
}

let create ~kind ~every = { kind; ts = [||]; ms = [||]; n = 0; every; last = neg_infinity }

(** Record a probe taken at midpoint [t] that lasted [ms]. *)
let add s ~t ~ms =
  if s.n = Array.length s.ts then begin
    let cap = max 64 (2 * s.n) in
    let grow a = Array.append a (Array.make (cap - s.n) 0.) in
    s.ts <- grow s.ts;
    s.ms <- grow s.ms
  end;
  s.ts.(s.n) <- t;
  s.ms.(s.n) <- ms;
  s.n <- s.n + 1

(** Time one reference probe and record it. *)
let probe s =
  let t0 = now () in
  run_probe s.kind;
  let t1 = now () in
  add s ~t:((t0 +. t1) /. 2.) ~ms:((t1 -. t0) *. 1000.);
  s.last <- t1

(** Probe if at least [every] seconds passed since the last probe. Call it
    between samples, never inside one. *)
let tick s = if now () -. s.last >= s.every then probe s

(** Probe time at [t], linearly interpolated between the neighbouring
    probes and held constant beyond the first and last. *)
let ref_at s t =
  if s.n = 0 then invalid_arg "Hostnorm.ref_at: no probes";
  if t <= s.ts.(0) then s.ms.(0)
  else if t >= s.ts.(s.n - 1) then s.ms.(s.n - 1)
  else begin
    (* invariant: ts.(lo) <= t < ts.(hi) *)
    let lo = ref 0 and hi = ref (s.n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if s.ts.(mid) <= t then lo := mid else hi := mid
    done;
    let t0 = s.ts.(!lo) and t1 = s.ts.(!hi) in
    let w = if t1 > t0 then (t -. t0) /. (t1 -. t0) else 0. in
    s.ms.(!lo) +. (w *. (s.ms.(!hi) -. s.ms.(!lo)))
  end

(** [raw] (any unit) measured over [t0, t1], normalized to nominal host
    speed. *)
let normalize s ~t0 ~t1 raw =
  raw *. ref_nominal_ms s.kind /. ref_at s ((t0 +. t1) /. 2.)

(** All recorded probe times (ms). *)
let probes s = Array.sub s.ms 0 s.n

(* ---- statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(** Median of a non-empty array (mean of the middle pair when even). *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Hostnorm.median: empty";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Nearest-rank [p]-th percentile, reported only when at least 10 samples
    lie beyond it: [None] otherwise. *)
let percentile ~p xs =
  let n = Array.length xs in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  if n = 0 || rank < 1 || n - rank < 10 then None
  else Some (sorted xs).(rank - 1)

(** Geometric mean of positive values. *)
let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Hostnorm.geomean: empty";
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int n)
