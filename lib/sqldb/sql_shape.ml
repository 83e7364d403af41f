(** Query fingerprinting: extract constants from SQL text into ordered
    parameter slots, producing a canonical {e shape}.

    The shape is legal SQL in which each extracted constant is replaced by a
    positional placeholder [$1], [$2], ... ({!Sql_ast.Param} after parsing),
    every keyword is spelled uppercase and whitespace/comments are erased —
    so any two spellings of the same query with different constants share
    one shape. The plan cache in {!Db} keys on (shape, param types): a
    template planned once for the shape is re-executed for new constants by
    substituting them into the bound plan, with no reparse and no replan.

    Extraction works on the token stream, not the AST: a cache {e hit} must
    not pay a full parse. The extractor is conservative about positions
    where the grammar or the planner requires a literal — those constants
    stay in the shape text (costing at worst a duplicate cache entry, never
    a wrong answer):

    - [LIMIT n] and [GROUP BY]/[ORDER BY] items (positional references);
    - [IN (v, ...)] list items (the planner folds them to a value list);
    - [VALUES] rows (parsed directly to values);
    - [LIKE] patterns (the grammar wants a string literal);
    - [TRUE]/[FALSE]/[NULL] (keywords, and type-ambiguous as parameters).

    [DATE 'iso'] collapses into a single date-typed slot. Text that already
    contains [$k] placeholders, or a string literal left open, is rejected
    ({!Unparameterizable}): [Db.execute] runs such text uncached. *)

exception Unparameterizable of string

type t = {
  shape : string; (* canonical SQL with $k placeholders *)
  params : Value.t array; (* extracted constants, slot order *)
}

(* Idents canonicalized to uppercase in the shape: the parser's reserved
   words plus the keyword-like names it special-cases. Anything else is a
   table/column identifier and keeps its spelling. *)
let canon_idents =
  [ "FROM"; "WHERE"; "GROUP"; "HAVING"; "ORDER"; "LIMIT"; "AS"; "AND"; "OR";
    "NOT"; "SELECT"; "DISTINCT"; "JOIN"; "LEFT"; "RIGHT"; "FULL"; "INNER";
    "OUTER"; "ON"; "BY"; "CASE"; "WHEN"; "THEN"; "ELSE"; "END"; "IN"; "LIKE";
    "IS"; "NULL"; "EXISTS"; "BETWEEN"; "WITH"; "VALUES"; "UNION"; "ASC";
    "DESC"; "CROSS"; "DATE"; "TRUE"; "FALSE"; "OVER"; "FOR" ]

(* Parameter-extraction context. [Normal] allows extraction; the others are
   the literal-required positions listed above. A frame is pushed per '('
   and inherits its parent's context so e.g. an expression nested inside
   ORDER BY stays literal, while SELECT/WHERE/... reset the current frame
   back to Normal (an IN (SELECT ...) subquery is parameterized freely).
   WHEN/THEN/ELSE reset it too, except inside GROUP BY / ORDER BY. *)
type clause = Normal | GroupOrder | Limit | Values | InList

(* The fingerprint IS the plan-cache hot path: on a bind hit it is the only
   per-query text work, so it must undercut a parse+plan by a wide margin.
   It therefore scans characters directly — one pass, no token records, no
   per-identifier allocation — emitting the shape into a single buffer.
   Token boundaries (comments, string escapes, two-char operators,
   scientific notation) replicate {!Sql_parse.lex} exactly. *)

let up = Char.uppercase_ascii

(* Canonical idents bucketed by first letter: membership is a length check
   plus a couple of case-insensitive char comparisons against the two or
   three candidates in the bucket — no uppercased copy of the word. *)
let canon_by_char =
  let a = Array.make 26 [] in
  List.iter
    (fun w ->
      let b = Char.code w.[0] - Char.code 'A' in
      a.(b) <- w :: a.(b))
    canon_idents;
  a

let rec canon_eq src s len w k =
  k = len || (up (String.unsafe_get src (s + k)) = String.unsafe_get w k
             && canon_eq src s len w (k + 1))

let rec canon_find src s len = function
  | [] -> None
  | w :: tl ->
    if String.length w = len && canon_eq src s len w 1 then Some w
    else canon_find src s len tl

let canon_of src s len =
  let b = Char.code (up src.[s]) - Char.code 'A' in
  if b < 0 || b >= 26 then None
  else canon_find src s len canon_by_char.(b)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let fingerprint (sql : string) : t =
  let n = String.length sql in
  let buf = Buffer.create (n + 16) in
  (* Unconditionally space-separate every token and trim the leading space
     once at the end — cheaper than a per-token emptiness check. *)
  let sep () = Buffer.add_char buf ' ' in
  let emit_str s =
    sep ();
    Buffer.add_string buf s
  in
  let emit_sub s len =
    sep ();
    Buffer.add_substring buf sql s len
  in
  let params = ref [] in
  let n_params = ref 0 in
  let add_param v =
    params := v :: !params;
    incr n_params;
    sep ();
    Buffer.add_char buf '$';
    Buffer.add_string buf (string_of_int !n_params)
  in
  let frames = ref [ ref Normal ] in
  let top () = List.hd !frames in
  let push c = frames := ref c :: !frames in
  let pop () =
    match !frames with _ :: (_ :: _ as rest) -> frames := rest | _ -> ()
  in
  let allowed () = match !(top ()) with Normal -> true | _ -> false in
  let pending_in = ref false in
  let after_like = ref false in
  (* whitespace and [--] line comments, as the lexer skips them *)
  let rec skip j =
    if j >= n then j
    else
      match sql.[j] with
      | ' ' | '\n' | '\t' | '\r' -> skip (j + 1)
      | '-' when j + 1 < n && sql.[j + 1] = '-' ->
        let k = ref j in
        while !k < n && sql.[!k] <> '\n' do incr k done;
        skip !k
      | _ -> j
  in
  (* ['...'] with [''] escape; returns the unescaped value and the index
     past the closing quote *)
  let scan_string j =
    let b = Buffer.create 16 in
    let j = ref (j + 1) in
    let closed = ref false in
    while not !closed do
      if !j >= n then raise (Unparameterizable "unterminated string literal")
      else if sql.[!j] = '\'' then
        if !j + 1 < n && sql.[!j + 1] = '\'' then begin
          Buffer.add_char b '\'';
          j := !j + 2
        end
        else begin
          closed := true;
          incr j
        end
      else begin
        Buffer.add_char b sql.[!j];
        incr j
      end
    done;
    (Buffer.contents b, !j)
  in
  let i = ref 0 in
  while !i < n do
    let c = String.unsafe_get sql !i in
    if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && String.unsafe_get sql (!i + 1) = '-'
    then
      while !i < n && String.unsafe_get sql !i <> '\n' do incr i done
    else begin
    let was_in = !pending_in in
    pending_in := false;
    let was_like = !after_like in
    after_like := false;
    (if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
       let s = !i in
       while !i < n && is_ident_char (String.unsafe_get sql !i) do
         incr i
       done;
       match canon_of sql s (!i - s) with
       | None -> emit_sub s (!i - s)
       | Some kw ->
         (match kw with
         | "GROUP" | "ORDER" -> top () := GroupOrder
         | "LIMIT" -> top () := Limit
         | "VALUES" -> top () := Values
         | "SELECT" | "FROM" | "WHERE" | "HAVING" | "ON" | "UNION" ->
           top () := Normal
         (* a CASE inside GROUP BY / ORDER BY must not reopen extraction:
            the items after it are still positional references *)
         | "WHEN" | "THEN" | "ELSE" ->
           if !(top ()) <> GroupOrder then top () := Normal
         | "IN" -> pending_in := true
         | "LIKE" -> after_like := true
         | _ -> ());
         let date_start = if kw = "DATE" && allowed () then skip !i else n in
         if date_start < n && sql.[date_start] = '\'' then begin
           (* DATE 'iso' is one date-typed constant, not keyword + string *)
           let sv, j = scan_string date_start in
           add_param (Value.VDate (Value.date_of_iso sv));
           i := j
         end
         else emit_str kw
     end
     else if c >= '0' && c <= '9' then begin
       let s = !i in
       let fractional = ref false in
       let scanning = ref true in
       while !scanning && !i < n do
         let d = String.unsafe_get sql !i in
         if d >= '0' && d <= '9' then incr i
         else if d = '.' then begin
           fractional := true;
           incr i
         end
         else scanning := false
       done;
       if !i < n && (sql.[!i] = 'e' || sql.[!i] = 'E') then begin
         fractional := true;
         incr i;
         if !i < n && (sql.[!i] = '+' || sql.[!i] = '-') then incr i;
         while
           !i < n
           && String.unsafe_get sql !i >= '0'
           && String.unsafe_get sql !i <= '9'
         do
           incr i
         done
       end;
       let raw = String.sub sql s (!i - s) in
       let v =
         if !fractional then Value.VFloat (float_of_string raw)
         else Value.VInt (int_of_string raw)
       in
       if allowed () then add_param v else emit_str (Sql_ast.lit_to_sql v)
     end
     else if c = '\'' then begin
       let sv, j = scan_string !i in
       i := j;
       if allowed () && not was_like then add_param (Value.VString sv)
       else emit_str (Sql_ast.sql_string_literal sv)
     end
     else if c = '$' then
       raise (Unparameterizable "text already contains $k")
     else if c = '(' then begin
       push
         (if was_in then InList
          else
            match !(top ()) with (GroupOrder | Values) as cl -> cl | _ -> Normal);
       incr i;
       sep ();
       Buffer.add_char buf '('
     end
     else if c = ')' then begin
       pop ();
       incr i;
       sep ();
       Buffer.add_char buf ')'
     end
     else begin
       (* two-char operators, normalized as the lexer normalizes them *)
       let c2 =
         if !i + 1 < n then String.unsafe_get sql (!i + 1) else '\000'
       in
       match c, c2 with
       | '<', '>' | '!', '=' ->
         emit_str "<>";
         i := !i + 2
       | '<', '=' ->
         emit_str "<=";
         i := !i + 2
       | '>', '=' ->
         emit_str ">=";
         i := !i + 2
       | '|', '|' ->
         emit_str "||";
         i := !i + 2
       | _ ->
         sep ();
         Buffer.add_char buf c;
         incr i
     end)
    end
  done;
  let len = Buffer.length buf in
  { shape = (if len = 0 then "" else Buffer.sub buf 1 (len - 1));
    params = Array.of_list (List.rev !params) }

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)
(* ------------------------------------------------------------------ *)

(* One character per slot: a template planned for integer constants must not
   be bound with strings — the inferred schema could differ. *)
let ty_code = function
  | Value.VInt _ -> 'i'
  | Value.VFloat _ -> 'f'
  | Value.VString _ -> 's'
  | Value.VBool _ -> 'b'
  | Value.VDate _ -> 'd'
  | Value.VNull -> 'n'

let ty_sig (params : Value.t array) : string =
  String.init (Array.length params) (fun i -> ty_code params.(i))

let render_params (params : Value.t array) : string =
  "["
  ^ String.concat ","
      (Array.to_list (Array.map Sql_ast.lit_to_sql params))
  ^ "]"

(** Constant-identity key: shape plus canonically rendered constants. Two
    texts get the same key iff they denote the same query with the same
    constants, whatever their comments, whitespace, keyword case or
    literal spelling. *)
let key (f : t) : string = f.shape ^ "#" ^ render_params f.params
