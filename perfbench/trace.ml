(** In-memory spans recorded around the benchmark's calls into each layer,
    written out when the run ends. A span's self time is its duration
    minus the part of it covered by its children. *)

type span = {
  id : int;
  name : string;
  parent : int; (* -1 for a request root *)
  request : int;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list; (* newest first *)
  mutable next : int;
  mutable stack : int list; (* open spans, innermost first *)
}

let create () = { spans = []; next = 0; stack = [] }

(** Run [f] inside a span named [name] of request [request]; the span's
    parent is the innermost span open when [f] starts. *)
let span tr ~request name f =
  let id = tr.next in
  tr.next <- id + 1;
  let parent = match tr.stack with p :: _ -> p | [] -> -1 in
  tr.stack <- id :: tr.stack;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    tr.stack <- List.tl tr.stack;
    tr.spans <- { id; name; parent; request; t0; t1 } :: tr.spans
  in
  Fun.protect ~finally:finish f

let spans tr = List.rev tr.spans

(** Self time (s) of every span, in recording order. Children of a span
    never overlap each other (the benchmark is one sequential client). *)
let self_times (spans : span list) : (span * float) list =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = s.t1 -. s.t0 in
        Hashtbl.replace child_time s.parent
          (d +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      (s, s.t1 -. s.t0 -. c))
    spans

(** One JSON object per line: id, name, parent, request, start, end (s). *)
let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"request\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.parent s.request s.t0 s.t1)
    spans;
  close_out oc

(** Rename the span completed last (its name may depend on what the call
    did). *)
let rename_last tr name =
  match tr.spans with s :: rest -> tr.spans <- { s with name } :: rest | [] -> ()
