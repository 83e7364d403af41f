(** A relation: a named, typed schema plus equal-length columns. *)

open Value

type t = { names : string array; cols : Column.t array }

let create names cols =
  if Array.length names <> Array.length cols then
    invalid_arg "Relation.create: arity mismatch";
  (match Array.to_list cols with
  | [] -> ()
  | c0 :: rest ->
    let n = Column.length c0 in
    List.iter
      (fun c ->
        if Column.length c <> n then
          invalid_arg "Relation.create: column length mismatch")
      rest);
  { names; cols }

let empty names tys =
  { names = Array.of_list names;
    cols = Array.of_list (List.map (fun ty -> Column.of_values ty [||]) tys) }

let n_cols t = Array.length t.cols
let n_rows t = if n_cols t = 0 then 0 else Column.length t.cols.(0)

let schema t =
  Array.to_list (Array.mapi (fun i n -> (n, t.cols.(i).Column.ty)) t.names)

let col_index t name =
  let rec find i =
    if i >= Array.length t.names then None
    else if String.equal t.names.(i) name then Some i
    else find (i + 1)
  in
  find 0

let column t name =
  match col_index t name with
  | Some i -> t.cols.(i)
  | None -> invalid_arg ("Relation.column: no column " ^ name)

let row t i = Array.map (fun c -> Column.get c i) t.cols

(* Gather rows; -1 index produces an all-null row (outer joins). *)
let take t idx =
  { t with cols = Array.map (fun c -> Column.take c idx) t.cols }

(* Dictionary-encode every low-cardinality string column (catalog ingest). *)
let encode_strings ?max_distinct t =
  { t with cols = Array.map (Column.encode ?max_distinct) t.cols }

(* Decode all dictionary columns back to raw strings (equivalence tests). *)
let decode_strings t = { t with cols = Array.map Column.decode t.cols }

let rename t names =
  if Array.length names <> n_cols t then
    invalid_arg "Relation.rename: arity mismatch";
  { t with names }

(* Concatenate same-schema relations (used by the morsel executor to collect
   chunks). Column concatenations are independent, so with [threads] each is
   its own work item above [grain] rows. *)
let concat ?(threads = 1) ~grain = function
  | [] -> invalid_arg "Relation.concat: empty"
  | [ r ] -> r
  | first :: _ as rs ->
    { first with
      cols =
        Array.of_list
          (Parallel.map_list ~grain ~threads
             ~rows:(List.fold_left (fun acc r -> acc + n_rows r) 0 rs)
             (fun i -> Column.concat (List.map (fun r -> r.cols.(i)) rs))
             (List.init (Array.length first.cols) Fun.id)) }

(* Canonical multiset of rows as sorted strings: order-insensitive
   comparison in tests. Floats are rounded to [digits] decimals. *)
let canonical ?(digits = 4) t =
  let fmt_v v =
    match v with
    | VFloat f ->
      let scale = 10. ** float_of_int digits in
      let r = Float.round (f *. scale) /. scale in
      (* Avoid -0.0 artifacts. *)
      let r = if r = 0. then 0. else r in
      Printf.sprintf "%.*f" digits r
    | v -> Value.to_string v
  in
  let rows =
    List.map
      (fun i ->
        String.concat "|" (Array.to_list (Array.map fmt_v (row t i))))
      (List.init (n_rows t) Fun.id)
  in
  List.sort String.compare rows

let pp ?(max_rows = 20) fmt t =
  let n = n_rows t in
  Format.fprintf fmt "%s@."
    (String.concat " | " (Array.to_list t.names));
  for i = 0 to min n max_rows - 1 do
    Format.fprintf fmt "%s@."
      (String.concat " | "
         (Array.to_list (Array.map Value.to_string (row t i))))
  done;
  if n > max_rows then Format.fprintf fmt "... (%d rows)@." n

let to_string ?max_rows t = Format.asprintf "%a" (pp ?max_rows) t
