(** Pandas/NumPy → TondIR translation (paper §III-C, §III-D).

    The translator walks the ANF-normalized statements of a [@pytond]
    function, tracking a symbolic value per Python variable. DataFrames map
    to IR relations; Series and boolean masks stay symbolic (expressions over
    their source relation's columns) until an operation materializes a rule.
    NumPy arrays map to relations in the dense [(id, c0..cn-1)] or sparse COO
    [(row_id, col_id, val)] layout. *)

open Frontend.Ast
open Tondir.Ir
module Value = Sqldb.Value

(* [api] names the Pandas/NumPy surface that failed to translate (method,
   attribute or aggregate) so callers can report which operation forced a
   fallback to the Python baseline. *)
exception Unsupported of { api : string option; msg : string }

let err fmt =
  Printf.ksprintf (fun msg -> raise (Unsupported { api = None; msg })) fmt

let err_api api fmt =
  Printf.ksprintf (fun msg -> raise (Unsupported { api = Some api; msg })) fmt

type rel_info = { rname : string; rcols : (string * Value.ty) list }

type tensor_info = {
  trel : string;
  tlayout : Context.layout;
  tid : string; (* dense: id column name *)
  tvals : (string * Value.ty) list; (* dense: value columns *)
  tshape : [ `M | `V | `S ];
  trows : int option; (* statically-known row count (aggregated outputs) *)
}

type sym =
  | SRel of rel_info
  | SSeries of { src : rel_info; sexpr : term; sname : string; sty : Value.ty }
  | SMask of { msrc : rel_info; atoms : atom list }
  | SScalar of { srel : string; scol : string; sty : Value.ty }
  | SConstV of const
  | SGrouped of { gsrc : rel_info; keys : string list }
  | SGroupedSel of { gsrc : rel_info; keys : string list; sel : string }
  | STensor of tensor_info
  | SAccessor of string * sym
  | SBuilder of (string * sym) list ref
  | SListV of sym list
  | SNone

type state = {
  ctx : Context.t;
  mutable rules : rule list; (* reverse order *)
  mutable syms : (string * sym) list;
  mutable fresh_n : int;
}

let emit st r = st.rules <- r :: st.rules

let fresh st base =
  st.fresh_n <- st.fresh_n + 1;
  Printf.sprintf "%s_%d" base st.fresh_n

let bind st name sym = st.syms <- (name, sym) :: st.syms

let lookup st name =
  match List.assoc_opt name st.syms with
  | Some s -> s
  | None -> err "unbound variable %s" name

let cols_of (r : rel_info) = List.map fst r.rcols

let col_ty (r : rel_info) c =
  match List.assoc_opt c r.rcols with
  | Some ty -> ty
  | None -> err "relation %s has no column %s" r.rname c

(* ------------------------------------------------------------------ *)
(* Term helpers                                                       *)
(* ------------------------------------------------------------------ *)

let const_of_ast = function
  | Int i -> CInt i
  | Float f -> CFloat f
  | Str s -> CString s
  | Bool b -> CBool b
  | NoneLit -> CNull
  | UnaryOp (Neg, Int i) -> CInt (-i)
  | UnaryOp (Neg, Float f) -> CFloat (-.f)
  | e -> err "expected a literal, got %s" (expr_str e)

let value_of_const = function
  | CInt i -> Value.VInt i
  | CFloat f -> Value.VFloat f
  | CBool b -> Value.VBool b
  | CString s -> Value.VString s
  | CDate d -> Value.VDate d
  | CNull -> Value.VNull

let const_of_value = function
  | Value.VInt i -> CInt i
  | Value.VFloat f -> CFloat f
  | Value.VBool b -> CBool b
  | Value.VString s -> CString s
  | Value.VDate d -> CDate d
  | Value.VNull -> CNull

let rec term_ty (r : rel_info) (t : term) : Value.ty =
  match t with
  | Var v -> ( match List.assoc_opt v r.rcols with Some ty -> ty | None -> TFloat)
  | Const (CInt _) -> TInt
  | Const (CFloat _) -> TFloat
  | Const (CBool _) -> TBool
  | Const (CString _) -> TString
  | Const (CDate _) -> TDate
  | Const CNull -> TFloat
  | Agg ((Count | CountDistinct | CountStar), _) -> TInt
  | Agg (Avg, _) -> TFloat
  | Agg (_, t) -> term_ty r t
  | Ext (("year" | "month" | "day" | "length" | "uid"), _) -> TInt
  | Ext (("substring" | "upper" | "lower" | "concat"), _) -> TString
  | Ext (_, _) -> TFloat
  | If (_, a, b) ->
    let ta = term_ty r a and tb = term_ty r b in
    if ta = tb then ta else TFloat
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> TBool
  | Binop (Div, _, _) -> TFloat
  | Binop (Concat, _, _) -> TString
  | Binop (_, a, b) -> (
    match (term_ty r a, term_ty r b) with
    | TInt, TInt -> TInt
    | TDate, TInt | TInt, TDate -> TDate
    | TDate, TDate -> TInt
    | _ -> TFloat)
  | InConsts _ | Like _ -> TBool

(* Negation pushed inward (TondIR has no boolean NOT term). *)
let rec negate_term = function
  | Binop (Eq, a, b) -> Binop (Ne, a, b)
  | Binop (Ne, a, b) -> Binop (Eq, a, b)
  | Binop (Lt, a, b) -> Binop (Ge, a, b)
  | Binop (Le, a, b) -> Binop (Gt, a, b)
  | Binop (Gt, a, b) -> Binop (Le, a, b)
  | Binop (Ge, a, b) -> Binop (Lt, a, b)
  | Binop (And, a, b) -> Binop (Or, negate_term a, negate_term b)
  | Binop (Or, a, b) -> Binop (And, negate_term a, negate_term b)
  | InConsts (t, cs, neg) -> InConsts (t, cs, not neg)
  | Like (t, p, neg) -> Like (t, p, not neg)
  | Const (CBool b) -> Const (CBool (not b))
  | t -> err "cannot negate term %s" (term_to_string t)

let negate_atoms atoms =
  List.map
    (function
      | Cond t -> Cond (negate_term t)
      | Exists (neg, body) -> Exists (not neg, body)
      | a -> err "cannot negate mask atom %s" (atom_to_string a))
    atoms

(* ------------------------------------------------------------------ *)
(* Sym coercions                                                      *)
(* ------------------------------------------------------------------ *)

(* View a sym as a series (source relation + expression over its columns). *)
let as_series st (s : sym) : rel_info * term * Value.ty * string =
  match s with
  | SSeries { src; sexpr; sty; sname } -> (src, sexpr, sty, sname)
  | SRel r -> (
    match r.rcols with
    | [ (c, ty) ] -> (r, Var c, ty, c)
    | _ -> err "relation %s is not a single-column series" r.rname)
  | STensor ({ tshape = `V; _ } as t) ->
    let vcol, vty = List.hd t.tvals in
    ( { rname = t.trel; rcols = (t.tid, Value.TInt) :: t.tvals },
      Var vcol, vty, vcol )
  | SMask { msrc; atoms } -> (
    (* boolean series from a single condition *)
    match atoms with
    | [ Cond t ] -> (msrc, t, Value.TBool, "mask")
    | _ -> err "mask cannot be used as a series here")
  | _ ->
    ignore st;
    err "expected a series"

let as_rel (s : sym) : rel_info =
  match s with
  | SRel r -> r
  | STensor t when t.tlayout = Context.Dense ->
    { rname = t.trel; rcols = (t.tid, Value.TInt) :: t.tvals }
  | STensor t ->
    { rname = t.trel;
      rcols =
        [ ("row_id", Value.TInt); ("col_id", Value.TInt); ("val", Value.TFloat) ] }
  | _ -> err "expected a DataFrame"

let as_const (s : sym) : const =
  match s with
  | SConstV c -> c
  | _ -> err "expected a constant"

let as_string_sym (s : sym) : string =
  match s with
  | SConstV (CString c) -> c
  | _ -> err "expected a string literal"

let string_list_of_expr (e : expr) : string list =
  match e with
  | Str s -> [ s ]
  | EList es | ETuple es ->
    List.map (function Str s -> s | e -> err "expected string in list: %s" (expr_str e)) es
  | e -> err "expected column name(s), got %s" (expr_str e)

(* ------------------------------------------------------------------ *)
(* Rule emission helpers                                              *)
(* ------------------------------------------------------------------ *)

(* Simple rule: head vars = output cols; body = access src (binding all its
   columns by name) plus extra atoms. *)
let emit_simple st ?(group = None) ?(sort = []) ?(limit = None)
    ?(distinct = false) ~name ~(src : rel_info) ~(extra : atom list)
    ~(outs : (string * term * Value.ty) list) () : rel_info =
  (* An output computing a NEW value under an existing column's name would
     turn its assignment into an equality filter (assignment-to-bound is a
     comparison in TondIR); rename the source binding of any shadowed column
     and rewrite all terms accordingly. *)
  let shadowed =
    List.filter_map
      (fun (n, t, _) ->
        match t with
        | Var v when String.equal v n -> None
        | _ -> if List.mem_assoc n src.rcols then Some n else None)
      outs
  in
  let src_var c = if List.mem c shadowed then c ^ "__src" else c in
  let rn = List.map (fun c -> (c, src_var c)) shadowed in
  let rn_term t = rename_term rn t in
  let rec rn_atom = function
    | Cond t -> Cond (rn_term t)
    | Assign (v, t) -> Assign (v, rn_term t)
    | Exists (neg, sub) -> Exists (neg, List.map rn_atom sub)
    | a -> a
  in
  let outs = List.map (fun (n, t, ty) -> (n, rn_term t, ty)) outs in
  let extra = List.map rn_atom extra in
  let head_vars = List.map (fun (n, _, _) -> n) outs in
  (* assignments for computed outputs; plain Var outputs pass through *)
  let assigns =
    List.filter_map
      (fun (n, t, _) ->
        match t with
        | Var v when String.equal v n -> None
        | t -> Some (Assign (n, t)))
      outs
  in
  let body =
    (Access { rel = src.rname; vars = List.map src_var (cols_of src) } :: extra)
    @ assigns
  in
  emit st
    { head = { rel = { rel = name; vars = head_vars }; group; sort; limit; distinct };
      body };
  { rname = name; rcols = List.map (fun (n, _, ty) -> (n, ty)) outs }

(* Copy rule: target(vars) :- src(vars). *)
let emit_copy st ~name ~(src : rel_info) : rel_info =
  emit_simple st ~name ~src ~extra:[]
    ~outs:(List.map (fun (c, ty) -> (c, Var c, ty)) src.rcols)
    ()

(* Date-coerce a constant term against a series type. *)
let coerce_const (sty : Value.ty) (t : term) : term =
  match (sty, t) with
  | Value.TDate, Const (CString s) when Value.looks_like_iso_date s ->
    Const (CDate (Value.date_of_iso s))
  | _ -> t

(* ------------------------------------------------------------------ *)
(* Mask construction                                                  *)
(* ------------------------------------------------------------------ *)

let binop_of_cmp (op : cmpop) : Tondir.Ir.binop =
  match op with
  | Frontend.Ast.Eq -> Tondir.Ir.Eq
  | Frontend.Ast.NotEq -> Tondir.Ir.Ne
  | Frontend.Ast.Lt -> Tondir.Ir.Lt
  | Frontend.Ast.LtE -> Tondir.Ir.Le
  | Frontend.Ast.Gt -> Tondir.Ir.Gt
  | Frontend.Ast.GtE -> Tondir.Ir.Ge
  | Frontend.Ast.In | Frontend.Ast.NotIn ->
    err "in-comparison handled separately"

let binop_of_arith (op : Frontend.Ast.binop) : Tondir.Ir.binop =
  match op with
  | Frontend.Ast.Add -> Tondir.Ir.Add
  | Frontend.Ast.Sub -> Tondir.Ir.Sub
  | Frontend.Ast.Mult -> Tondir.Ir.Mul
  | Frontend.Ast.Div -> Tondir.Ir.Div
  | Frontend.Ast.Mod -> Tondir.Ir.Mod
  | Frontend.Ast.FloorDiv -> Tondir.Ir.Div
  | Frontend.Ast.Pow -> err "power not supported in TondIR"
  | Frontend.Ast.BitAnd | Frontend.Ast.BitOr ->
    err "bitwise op is not arithmetic"

let same_src (a : rel_info) (b : rel_info) =
  if not (String.equal a.rname b.rname) then
    err "operations across different sources (%s vs %s) need an explicit merge"
      a.rname b.rname

let mask_of_compare st op (a : sym) (b : sym) : sym =
  match (a, b) with
  | (SSeries _ | SRel _ | STensor _ | SMask _), SConstV c ->
    let src, e, sty, _ = as_series st a in
    let rhs = coerce_const sty (Const c) in
    SMask { msrc = src; atoms = [ Cond (Binop (binop_of_cmp op, e, rhs)) ] }
  | SConstV c, (SSeries _ | SRel _ | STensor _ | SMask _) ->
    let src, e, sty, _ = as_series st b in
    let lhs = coerce_const sty (Const c) in
    SMask { msrc = src; atoms = [ Cond (Binop (binop_of_cmp op, lhs, e)) ] }
  | (SSeries _ | STensor _), (SSeries _ | STensor _) ->
    let src1, e1, _, _ = as_series st a in
    let src2, e2, _, _ = as_series st b in
    same_src src1 src2;
    SMask { msrc = src1; atoms = [ Cond (Binop (binop_of_cmp op, e1, e2)) ] }
  | (SSeries _ | SRel _), SScalar sc | SScalar sc, (SSeries _ | SRel _) ->
    (* compare against a 1-row aggregate relation: cross join access *)
    let series = match a with SScalar _ -> b | _ -> a in
    let src, e, _, _ = as_series st series in
    let v = "sc_" ^ sc.scol in
    let cmp =
      match a with
      | SScalar _ -> Binop (binop_of_cmp op, Var v, e)
      | _ -> Binop (binop_of_cmp op, e, Var v)
    in
    SMask
      { msrc = src;
        atoms = [ Access { rel = sc.srel; vars = [ v ] }; Cond cmp ] }
  | _ -> err "unsupported comparison"

(* ------------------------------------------------------------------ *)
(* Filters / projections                                              *)
(* ------------------------------------------------------------------ *)

let apply_filter st ~name (df : rel_info) (mask : sym) : rel_info =
  match mask with
  | SMask { msrc; atoms } ->
    same_src msrc df;
    emit_simple st ~name ~src:df ~extra:atoms
      ~outs:(List.map (fun (c, ty) -> (c, Var c, ty)) df.rcols)
      ()
  | _ -> err "expected a boolean mask for filtering"

let apply_projection st ~name (df : rel_info) (cols : string list) : rel_info =
  emit_simple st ~name ~src:df ~extra:[]
    ~outs:(List.map (fun c -> (c, Var c, col_ty df c)) cols)
    ()

(* ------------------------------------------------------------------ *)
(* Merge (paper §III-C: implicit renaming, join kinds)                *)
(* ------------------------------------------------------------------ *)

type how = Inner | Left | Right | Outer | Cross

let merge_rel st ~name ~(how : how) ~(left_on : string list)
    ~(right_on : string list) (l : rel_info) (r : rel_info) : rel_info =
  let shared_keys =
    List.filter_map
      (fun (ln, rn) -> if String.equal ln rn then Some ln else None)
      (try List.combine left_on right_on with Invalid_argument _ ->
        err "merge: left_on/right_on arity mismatch")
  in
  let lnames = cols_of l and rnames = cols_of r in
  (* Output naming per pandas: shared join keys once; other shared names get
     _x/_y suffixes. Body variables match output names; equal join keys share
     one variable (the inner-join equality); non-equal key pairs get explicit
     conditions. *)
  let lvar c =
    if List.mem c shared_keys then c
    else if List.mem c rnames then c ^ "_x"
    else c
  in
  let rvar c =
    if List.mem c shared_keys then c ^ "__rk"
    else if List.mem c lnames then c ^ "_y"
    else c
  in
  let l_access = Access { rel = l.rname; vars = List.map lvar lnames } in
  let key_conds =
    (* key pairs with different names: explicit equality *)
    List.filter_map
      (fun (lk, rk) ->
        if String.equal lk rk then None
        else Some (Cond (Binop (Eq, Var (lvar lk), Var (rvar rk)))))
      (List.combine left_on right_on)
    @ List.map
        (fun k -> Cond (Binop (Eq, Var (lvar k), Var (rvar k))))
        shared_keys
  in
  let outs_left = List.map (fun (c, ty) -> (lvar c, Var (lvar c), ty)) l.rcols in
  let outs_right =
    List.filter_map
      (fun (c, ty) ->
        if List.mem c shared_keys then None
        else Some (rvar c, Var (rvar c), ty))
      r.rcols
  in
  let outs = outs_left @ outs_right in
  let head_vars = List.map (fun (n, _, _) -> n) outs in
  let body =
    match how with
    | Inner | Cross ->
      let r_access = Access { rel = r.rname; vars = List.map rvar rnames } in
      [ l_access; r_access ] @ if how = Cross then [] else key_conds
    | Left | Right | Outer ->
      let kind =
        match how with Left -> OLeft | Right -> ORight | _ -> OFull
      in
      let keys =
        List.map (fun (lk, rk) -> (lvar lk, rvar rk)) (List.combine left_on right_on)
      in
      [ l_access;
        OuterAccess (kind, { rel = r.rname; vars = List.map rvar rnames }, keys) ]
  in
  emit st
    { head = { rel = { rel = name; vars = head_vars }; group = None; sort = [];
               limit = None; distinct = false };
      body };
  { rname = name; rcols = List.map (fun (n, _, ty) -> (n, ty)) outs }

(* ------------------------------------------------------------------ *)
(* Group-by aggregation                                               *)
(* ------------------------------------------------------------------ *)

let agg_fn_of_string = function
  | "sum" -> Sum
  | "min" -> Min
  | "max" -> Max
  | "mean" | "avg" -> Avg
  | "count" -> Count
  | "nunique" -> CountDistinct
  | "size" -> CountStar
  | s -> err_api s "unknown aggregate %s" s

(* aggs: output name, input term, fn *)
let emit_groupby st ~name (src : rel_info) (keys : string list)
    (aggs : (string * term * agg_fn) list) : rel_info =
  let outs =
    List.map (fun k -> (k, Var k, col_ty src k)) keys
    @ List.map
        (fun (out, t, fn) ->
          let ty =
            match fn with
            | Count | CountDistinct | CountStar -> Value.TInt
            | Avg -> Value.TFloat
            | Sum | Min | Max -> term_ty src t
          in
          let agg_term =
            match fn with CountStar -> Agg (CountStar, Const (CInt 1)) | fn -> Agg (fn, t)
          in
          (out, agg_term, ty))
        aggs
  in
  emit_simple st ~group:(Some keys) ~name ~src ~extra:[] ~outs ()

(* Global (ungrouped) aggregate producing a 1-row relation. *)
let emit_global_agg st ~name (src : rel_info) (t : term) (fn : agg_fn) : sym =
  let ty =
    match fn with
    | Count | CountDistinct | CountStar -> Value.TInt
    | Avg -> Value.TFloat
    | Sum | Min | Max -> term_ty src t
  in
  (* Pandas sums no rows to 0, SQL to NULL. *)
  let agg_term =
    match fn with
    | CountStar -> Agg (CountStar, Const (CInt 1))
    | Sum ->
      let zero = if ty = Value.TInt then CInt 0 else CFloat 0. in
      Ext ("coalesce", [ Agg (Sum, t); Const zero ])
    | fn -> Agg (fn, t)
  in
  let _ =
    emit_simple st ~name ~src ~extra:[] ~outs:[ ("agg", agg_term, ty) ] ()
  in
  SScalar { srel = name; scol = "agg"; sty = ty }

(* ------------------------------------------------------------------ *)
(* Pivot (paper §III-C, pivot translation)                            *)
(* ------------------------------------------------------------------ *)

let emit_pivot st ~name (src : rel_info) ~index ~columns ~values ~fn : rel_info =
  let distinct_vals =
    match List.assoc_opt columns st.ctx.Context.pivot_values with
    | Some vs -> vs
    | None ->
      err "pivot_table on %s requires pivot_values for column %s in @pytond"
        src.rname columns
  in
  let outs =
    (index, Var index, col_ty src index)
    :: List.map
         (fun v ->
           let vc = const_of_value v in
           let out_name = Value.to_string v in
           let body =
             Agg (fn, If (Binop (Eq, Var columns, Const vc), Var values, Const (CInt 0)))
           in
           (out_name, body, Value.TFloat))
         distinct_vals
  in
  emit_simple st ~group:(Some [ index ]) ~name ~src ~extra:[] ~outs ()

(* ------------------------------------------------------------------ *)
(* Einsum (paper §III-D)                                              *)
(* ------------------------------------------------------------------ *)

(* Dense tensors live in relations (id, c0..cn-1). *)
let dense_cols (t : tensor_info) = List.map fst t.tvals

let mk_tensor name ?(rows = None) shape vals : tensor_info =
  { trel = name; tlayout = Context.Dense; tid = "id"; tvals = vals;
    tshape = shape; trows = rows }

(* select a's column by the value of index variable [iv]: if(iv=0, c0, ...) *)
let select_by_index (iv : string) (cols : string list) : term =
  (* right-nested if chain: if(iv=0, c0, if(iv=1, c1, ...)) *)
  let rec build i = function
    | [] -> Const (CFloat 0.)
    | [ c ] -> Var c
    | c :: rest -> If (Binop (Eq, Var iv, Const (CInt i)), Var c, build (i + 1) rest)
  in
  if cols = [] then err "empty column list" else build 0 cols

(* ES8 'ij,ik->jk': the Fig. 2 covariance pattern — a flat global aggregate
   of all column products, then a VALUES-driven reshape into rows. *)
let einsum_gram st ~name (a : tensor_info) (b : tensor_info) : tensor_info =
  let acols = dense_cols a and bcols = dense_cols b in
  let n = List.length acols and m = List.length bcols in
  let flat = fresh st (name ^ "_flat") in
  (* same-relation case (covariance): a single self-join on id *)
  let l_vars = List.map (fun c -> "a_" ^ c) acols in
  let r_vars = List.map (fun c -> "b_" ^ c) bcols in
  let body =
    [ Access { rel = a.trel; vars = "ida" :: l_vars };
      Access { rel = b.trel; vars = "idb" :: r_vars };
      Cond (Binop (Eq, Var "ida", Var "idb")) ]
    @ List.concat
        (List.mapi
           (fun j aj ->
             List.mapi
               (fun k bk ->
                 Assign
                   ( Printf.sprintf "s_%d_%d" j k,
                     Agg (Sum, Binop (Mul, Var aj, Var bk)) ))
               r_vars)
           l_vars)
  in
  let flat_vars =
    List.concat
      (List.init n (fun j -> List.init m (fun k -> Printf.sprintf "s_%d_%d" j k)))
  in
  emit st
    { head = { rel = { rel = flat; vars = flat_vars }; group = None; sort = [];
               limit = None; distinct = false };
      body };
  (* reshape: VALUES (0)..(n-1) cross the flat row *)
  let idxrel = fresh st (name ^ "_idx") in
  emit st
    { head = { rel = { rel = idxrel; vars = [ "j" ] }; group = None; sort = [];
               limit = None; distinct = false };
      body = [ ConstRel ([ "j" ], List.init n (fun j -> [ CInt (j + 1) ])) ] };
  let out_vals = List.init m (fun k -> (Printf.sprintf "c%d" k, Value.TFloat)) in
  let outs =
    ("id", Var "j", Value.TInt)
    :: List.mapi
         (fun k (cname, ty) ->
           let rec chain j =
             if j >= n then Const (CFloat 0.)
             else if j = n - 1 then Var (Printf.sprintf "s_%d_%d" j k)
             else
               If
                 ( Binop (Eq, Var "j", Const (CInt (j + 1))),
                   Var (Printf.sprintf "s_%d_%d" j k),
                   chain (j + 1) )
           in
           (cname, chain 0, ty))
         out_vals
  in
  let head_vars = List.map (fun (x, _, _) -> x) outs in
  let assigns =
    List.filter_map
      (fun (nm, t, _) ->
        match t with Var v when v = nm -> None | t -> Some (Assign (nm, t)))
      outs
  in
  emit st
    { head = { rel = { rel = name; vars = head_vars }; group = None; sort = [];
               limit = None; distinct = false };
      body =
        [ Access { rel = flat; vars = flat_vars };
          Access { rel = idxrel; vars = [ "j" ] } ]
        @ assigns };
  mk_tensor name ~rows:(Some n) `M out_vals

(* Matrix-vector / matmul: 'ij,jk->ik' where b's rows correspond to a's
   columns (b's row count = n statically). *)
let einsum_matmul st ~name (a : tensor_info) (b : tensor_info) : tensor_info =
  let acols = dense_cols a and bcols = dense_cols b in
  let outs_vals =
    List.mapi (fun k _ -> (Printf.sprintf "c%d" k, Value.TFloat)) bcols
  in
  let avars = List.map (fun c -> "a_" ^ c) acols in
  let bvars = List.map (fun c -> "b_" ^ c) bcols in
  let sel = select_by_index "jid" avars in
  let body =
    [ Access { rel = a.trel; vars = "id" :: avars };
      Access { rel = b.trel; vars = "jid" :: bvars } ]
    @ List.mapi
        (fun k bk ->
          Assign
            ( Printf.sprintf "c%d" k,
              Agg (Sum, Binop (Mul, Var bk, sel)) ))
        bvars
  in
  let head_vars = "id" :: List.map fst outs_vals in
  emit st
    { head = { rel = { rel = name; vars = head_vars }; group = Some [ "id" ];
               sort = []; limit = None; distinct = false };
      body };
  mk_tensor name (if List.length bcols = 1 then `V else `M) outs_vals

(* Hadamard 'ij,ij->ij': join on id, per-column products. *)
let einsum_hadamard st ~name (a : tensor_info) (b : tensor_info) : tensor_info =
  let acols = dense_cols a and bcols = dense_cols b in
  if List.length acols <> List.length bcols then err "hadamard shape mismatch";
  let avars = List.map (fun c -> "a_" ^ c) acols in
  let bvars = List.map (fun c -> "b_" ^ c) bcols in
  let outs_vals = List.mapi (fun k _ -> (Printf.sprintf "c%d" k, Value.TFloat)) acols in
  let body =
    [ Access { rel = a.trel; vars = "id" :: avars };
      Access { rel = b.trel; vars = "idb" :: bvars };
      Cond (Binop (Eq, Var "id", Var "idb")) ]
    @ List.mapi
        (fun k (av, bv) ->
          Assign (Printf.sprintf "c%d" k, Binop (Mul, Var av, Var bv)))
        (List.combine avars bvars)
  in
  emit st
    { head = { rel = { rel = name; vars = "id" :: List.map fst outs_vals };
               group = None; sort = []; limit = None; distinct = false };
      body };
  mk_tensor name (if List.length acols = 1 then `V else `M) outs_vals

(* Sparse binary einsum (Blacher et al. [4] style over COO). *)
let einsum_sparse st ~name (spec : Tensor.Einsum_spec.spec)
    (a : tensor_info) (b : tensor_info) : tensor_info =
  let sa, sb =
    match spec.inputs with [ x; y ] -> (x, y) | _ -> err "sparse einsum arity"
  in
  let out = spec.output in
  (* each distinct index char becomes a variable; COO columns bind them *)
  let var c = Printf.sprintf "x_%c" c in
  let access rel s vname =
    match String.length s with
    | 2 -> Access { rel; vars = [ var s.[0]; var s.[1]; vname ] }
    | 1 -> Access { rel; vars = [ var s.[0]; vname ] }
    | _ -> err "sparse einsum: operand of unsupported order"
  in
  (* repeated index within one operand: diagonal — same var is a join *)
  let a_access = access a.trel sa "va" in
  let b_access = access b.trel sb "vb" in
  let out_vars = List.map var (Tensor.Einsum_spec.distinct_chars out) in
  let outs = out_vars @ [ "v" ] in
  let body =
    [ a_access; b_access;
      Assign ("v", Agg (Sum, Binop (Mul, Var "va", Var "vb"))) ]
  in
  emit st
    { head = { rel = { rel = name; vars = outs };
               group = (if out_vars = [] then None else Some out_vars);
               sort = []; limit = None; distinct = false };
      body };
  { trel = name; tlayout = Context.Sparse; tid = "row_id";
    tvals = [ ("val", Value.TFloat) ];
    tshape = (match String.length out with 0 -> `S | 1 -> `V | _ -> `M);
    trows = None }

let einsum_translate st ~name (spec_str : string) (ops : sym list) : sym =
  let spec = Tensor.Einsum_spec.parse spec_str in
  let tensors =
    List.map
      (function
        | STensor t -> t
        | SSeries _ as s ->
          let src, e, _, _ = as_series st s in
          ignore e;
          err "einsum over raw series %s: convert with to_numpy first" src.rname
        | _ -> err "einsum operands must be arrays")
      ops
  in
  match tensors with
  | [ a; b ] when a.tlayout = Context.Sparse || b.tlayout = Context.Sparse ->
    STensor (einsum_sparse st ~name spec a b)
  | _ -> (
    let norm = Tensor.Einsum_spec.(to_string (normalize spec)) in
    match (norm, tensors) with
    | "ij,ik->jk", [ a; b ] -> STensor (einsum_gram st ~name a b)
    | "ij,jk->ik", [ a; b ] -> STensor (einsum_matmul st ~name a b)
    | "ij,j->i", [ a; b ] -> STensor (einsum_matmul st ~name a b)
    | ("ij,ij->ij" | "i,i->i"), [ a; b ] ->
      STensor (einsum_hadamard st ~name a b)
    | ("i,i->" | "ij,ij->"), [ a; b ] ->
      (* inner product: hadamard then total sum *)
      let h = einsum_hadamard st ~name:(fresh st (name ^ "_h")) a b in
      let src = as_rel (STensor h) in
      let total =
        List.fold_left
          (fun acc (c, _) ->
            match acc with
            | None -> Some (Var c)
            | Some t -> Some (Binop (Add, t, Var c)))
          None h.tvals
      in
      emit_global_agg st ~name src (Option.get total) Sum
    | ("ij->i" | "i->i"), [ a ] ->
      (* row sum *)
      let src = as_rel (STensor a) in
      let total =
        List.fold_left
          (fun acc (c, _) ->
            match acc with
            | None -> Some (Var c)
            | Some t -> Some (Binop (Add, t, Var c)))
          None a.tvals
      in
      let r =
        emit_simple st ~name ~src ~extra:[]
          ~outs:[ ("id", Var a.tid, Value.TInt);
                  ("c0", Option.get total, Value.TFloat) ]
          ()
      in
      ignore r;
      STensor (mk_tensor name `V [ ("c0", Value.TFloat) ])
    | ("ij->" | "i->"), [ a ] ->
      let src = as_rel (STensor a) in
      let total =
        List.fold_left
          (fun acc (c, _) ->
            match acc with
            | None -> Some (Var c)
            | Some t -> Some (Binop (Add, t, Var c)))
          None a.tvals
      in
      emit_global_agg st ~name src (Option.get total) Sum
    | "ii->i", [ a ] ->
      let src = as_rel (STensor a) in
      let sel = select_by_index a.tid (dense_cols a) in
      let _ =
        emit_simple st ~name ~src ~extra:[]
          ~outs:[ ("id", Var a.tid, Value.TInt); ("c0", sel, Value.TFloat) ]
          ()
      in
      STensor (mk_tensor name `V [ ("c0", Value.TFloat) ])
    | spec, _ -> err "einsum pattern %s not supported on dense layout" spec)

(* ------------------------------------------------------------------ *)
(* Tensor helpers                                                     *)
(* ------------------------------------------------------------------ *)

(* Lift a DataFrame to the dense tensor layout: reuse an existing unique id
   column, otherwise add one with uid() (paper §III-E). *)
let tensor_of_rel st ~name (r : rel_info) : tensor_info =
  match r.rcols with
  | ("id", _) :: vals ->
    { trel = r.rname; tlayout = Context.Dense; tid = "id"; tvals = vals;
      tshape = (if List.length vals = 1 then `V else `M); trows = None }
  | _ ->
    let outs =
      ("id", Ext ("uid", []), Value.TInt)
      :: List.map (fun (c, ty) -> (c, Var c, ty)) r.rcols
    in
    let _ = emit_simple st ~name ~src:r ~extra:[] ~outs () in
    { trel = name; tlayout = Context.Dense; tid = "id"; tvals = r.rcols;
      tshape = (if List.length r.rcols = 1 then `V else `M); trows = None }

let tensor_map st ~name (t : tensor_info) (f : term -> term) : tensor_info =
  let src = as_rel (STensor t) in
  let outs =
    (t.tid, Var t.tid, Value.TInt)
    :: List.map (fun (c, ty) -> (c, f (Var c), ty)) t.tvals
  in
  let _ = emit_simple st ~name ~src ~extra:[] ~outs () in
  { t with trel = name; tid = t.tid }

(* ------------------------------------------------------------------ *)
(* Builder materialization (implicit joins, paper §III-C)             *)
(* ------------------------------------------------------------------ *)

let materialize_builder st ~name (entries : (string * sym) list) : rel_info =
  match entries with
  | [] -> err "cannot materialize an empty DataFrame"
  | _ ->
    let srcs =
      List.map
        (fun (col, s) ->
          match s with
          | SSeries { src; sexpr; sty; _ } -> (col, src, sexpr, sty)
          | STensor ({ tshape = `V; _ } as t) ->
            let vc, vty = List.hd t.tvals in
            (col, as_rel (STensor t), Var vc, vty)
          | SRel ({ rcols = [ (c, ty) ]; _ } as r) -> (col, r, Var c, ty)
          | _ -> err "DataFrame columns must be series")
        entries
    in
    let distinct_srcs =
      List.sort_uniq compare (List.map (fun (_, src, _, _) -> src.rname) srcs)
    in
    if List.length distinct_srcs = 1 then begin
      let _, src0, _, _ = List.hd srcs in
      emit_simple st ~name ~src:src0 ~extra:[]
        ~outs:(List.map (fun (col, _, e, ty) -> (col, e, ty)) srcs)
        ()
    end
    else begin
      (* implicit join: add uid() to each source, then equi-join on the ids *)
      let with_ids =
        List.map
          (fun rname ->
            let _, src, _, _ =
              List.find (fun (_, s, _, _) -> String.equal s.rname rname) srcs
            in
            let uid_name = fresh st (name ^ "_uid") in
            let outs =
              ("__uid", Ext ("uid", []), Value.TInt)
              :: List.map (fun (c, ty) -> (c, Var c, ty)) src.rcols
            in
            let r = emit_simple st ~name:uid_name ~src ~extra:[] ~outs () in
            (rname, r))
          distinct_srcs
      in
      (* join bodies: access each uid-relation; shared variable "__uid" joins *)
      let accesses =
        List.map
          (fun (orig, r) ->
            ignore orig;
            Access { rel = r.rname; vars = cols_of r })
          with_ids
      in
      let outs = List.map (fun (col, _, e, ty) -> (col, e, ty)) srcs in
      let head_vars = List.map (fun (n, _, _) -> n) outs in
      let assigns =
        List.filter_map
          (fun (n, t, _) ->
            match t with
            | Var v when String.equal v n -> None
            | t -> Some (Assign (n, t)))
          outs
      in
      emit st
        { head = { rel = { rel = name; vars = head_vars }; group = None;
                   sort = []; limit = None; distinct = false };
          body = accesses @ assigns };
      { rname = name; rcols = List.map (fun (n, _, ty) -> (n, ty)) outs }
    end

(* ------------------------------------------------------------------ *)
(* Sort / limit                                                       *)
(* ------------------------------------------------------------------ *)

let find_rule st rel =
  List.find_opt (fun r -> String.equal (rule_defines r) rel) st.rules

let emit_sort st ~name (src : rel_info) (keys : (string * dir) list) : rel_info =
  emit_simple st ~sort:keys ~name ~src ~extra:[]
    ~outs:(List.map (fun (c, ty) -> (c, Var c, ty)) src.rcols)
    ()

(* head(n): if [src] was defined by a sort-only rule, combine sort and limit
   in one rule (paper §III-E). *)
let emit_head st ~name (src : rel_info) (n : int) : rel_info =
  let sort =
    match find_rule st src.rname with
    | Some r when r.head.sort <> [] && r.head.limit = None -> r.head.sort
    | _ -> []
  in
  emit_simple st ~sort ~limit:(Some n) ~name ~src ~extra:[]
    ~outs:(List.map (fun (c, ty) -> (c, Var c, ty)) src.rcols)
    ()

(* ------------------------------------------------------------------ *)
(* Lambda inlining (series.apply / np.where arms)                     *)
(* ------------------------------------------------------------------ *)

let rec lambda_term st (env : (string * term) list) (src : rel_info)
    (e : expr) : term =
  match e with
  | Name n -> (
    match List.assoc_opt n env with
    | Some t -> t
    | None -> (
      match lookup st n with
      | SConstV c -> Const c
      | _ -> err "lambda: unsupported free variable %s" n))
  | Int i -> Const (CInt i)
  | Float f -> Const (CFloat f)
  | Str s -> Const (CString s)
  | Bool b -> Const (CBool b)
  | BinOp (op, a, b) ->
    Binop (binop_of_arith op, lambda_term st env src a, lambda_term st env src b)
  | Compare (op, a, b) -> (
    match op with
    | Frontend.Ast.In | Frontend.Ast.NotIn -> (
      match b with
      | EList es ->
        InConsts
          ( lambda_term st env src a,
            List.map const_of_ast es,
            op = Frontend.Ast.NotIn )
      | _ -> err "lambda: in expects a literal list")
    | _ ->
      Binop
        (binop_of_cmp op, lambda_term st env src a, lambda_term st env src b))
  | BoolOp (LAnd, a, b) ->
    Binop (And, lambda_term st env src a, lambda_term st env src b)
  | BoolOp (LOr, a, b) ->
    Binop (Or, lambda_term st env src a, lambda_term st env src b)
  | IfExp { cond; then_; else_ } ->
    If
      ( lambda_term st env src cond,
        lambda_term st env src then_,
        lambda_term st env src else_ )
  | UnaryOp (Neg, a) ->
    Binop (Sub, Const (CInt 0), lambda_term st env src a)
  | e -> err "lambda: unsupported expression %s" (expr_str e)

(* ------------------------------------------------------------------ *)
(* Expression translation                                             *)
(* ------------------------------------------------------------------ *)

(* Atomic expressions (post-ANF): names and literals. *)
let rec translate_atom st (e : expr) : sym =
  match e with
  | Name n -> lookup st n
  | Int i -> SConstV (CInt i)
  | Float f -> SConstV (CFloat f)
  | Str s -> SConstV (CString s)
  | Bool b -> SConstV (CBool b)
  | NoneLit -> SConstV CNull
  | UnaryOp (Neg, (Int _ | Float _)) -> SConstV (const_of_ast e)
  | EList es | ETuple es -> SListV (List.map (translate_atom st) es)
  | e -> err "expected an atomic expression, got %s" (expr_str e)

and translate_attr st (recv : sym) (attr : string) : sym =
  match (recv, attr) with
  | SRel r, c when List.mem_assoc c r.rcols ->
    SSeries { src = r; sexpr = Var c; sname = c; sty = col_ty r c }
  | (SSeries _ as s), ("str" | "dt") -> SAccessor (attr, s)
  | SAccessor ("dt", s), ("year" | "month" | "day") ->
    let src, e, _, nm = as_series st s in
    SSeries { src; sexpr = Ext (attr, [ e ]); sname = nm; sty = Value.TInt }
  | STensor ({ tshape = `M; _ } as t), "T" when t.trows <> None ->
    err "transpose of %s must go through einsum" t.trel
  | SRel r, c -> err "relation %s has no column %s" r.rname c
  | s, a -> err_api a "unsupported attribute .%s on %s" a (match s with
      | SRel r -> r.rname | _ -> "value")

(* Resolve a call's receiver spine: Attr(Attr(atom, a1), a2)... The final
   attribute is the method name. *)
and resolve_spine st (f : expr) : sym * string =
  match f with
  | Attr (base, meth) -> (
    match base with
    | Name _ -> (translate_atom st base, meth)
    | Attr _ ->
      let rec eval_base = function
        | Name n -> lookup st n
        | Attr (b, a) -> translate_attr st (eval_base b) a
        | e -> err "unsupported call spine %s" (expr_str e)
      in
      (eval_base base, meth)
    | e -> err "unsupported call receiver %s" (expr_str e))
  | Name n -> (lookup st n, "__call__")
  | e -> err "unsupported callee %s" (expr_str e)

and translate_rhs st ~(target : string) (e : expr) : sym =
  match e with
  | Name _ | Int _ | Float _ | Str _ | Bool _ | NoneLit | EList _ | ETuple _ ->
    translate_atom st e
  | UnaryOp (Neg, (Int _ | Float _)) -> translate_atom st e
  | Attr (Name n, attr) -> translate_attr st (lookup st n) attr
  | Subscript (Name n, idx) -> translate_subscript st ~target (lookup st n) idx
  | Compare (op, a, b) -> translate_compare st op a b
  | BinOp (op, a, b) -> translate_binop st ~target op a b
  | UnaryOp (Invert, a) -> (
    match translate_atom st a with
    | SMask m -> SMask { m with atoms = negate_atoms m.atoms }
    | _ -> err "~ expects a boolean mask")
  | IfExp { cond; then_; else_ } ->
    let csrc, cexpr, _, _ = as_series st (translate_atom st cond) in
    let tt = term_of_operand st csrc (translate_atom st then_) in
    let te = term_of_operand st csrc (translate_atom st else_) in
    SSeries { src = csrc; sexpr = If (cexpr, tt, te); sname = target;
              sty = Value.TFloat }
  | Call { func; args; kwargs } -> translate_call st ~target func args kwargs
  | Lambda _ -> err "standalone lambdas cannot be translated"
  | e -> err "unsupported expression %s" (expr_str e)

(* View an operand as a term over [src]'s columns (or a constant). *)
and term_of_operand st (src : rel_info) (s : sym) : term =
  match s with
  | SConstV c -> Const c
  | SSeries { src = s2; sexpr; _ } ->
    same_src src s2;
    sexpr
  | SMask { msrc; atoms = [ Cond t ] } ->
    same_src src msrc;
    t
  | STensor _ | SRel _ ->
    let s2, e, _, _ = as_series st s in
    same_src src s2;
    e
  | _ -> err "operand cannot be used in an expression"

and translate_compare st op (a : expr) (b : expr) : sym =
  let sa = translate_atom st a and sb = translate_atom st b in
  match (op, sb) with
  | Frontend.Ast.In, SListV items ->
    let src, e, sty, _ = as_series st sa in
    let cs =
      List.map (fun s -> (match coerce_const sty (Const (as_const s)) with
        | Const c -> c | _ -> assert false)) items
    in
    SMask { msrc = src; atoms = [ Cond (InConsts (e, cs, false)) ] }
  | Frontend.Ast.NotIn, SListV items ->
    let src, e, sty, _ = as_series st sa in
    let cs =
      List.map (fun s -> (match coerce_const sty (Const (as_const s)) with
        | Const c -> c | _ -> assert false)) items
    in
    SMask { msrc = src; atoms = [ Cond (InConsts (e, cs, true)) ] }
  | _ -> mask_of_compare st op sa sb

and translate_binop st ~target op (a : expr) (b : expr) : sym =
  let sa = translate_atom st a and sb = translate_atom st b in
  match op with
  | Frontend.Ast.BitAnd | Frontend.Ast.BitOr -> (
    match (sa, sb) with
    | SMask m1, SMask m2 -> (
      same_src m1.msrc m2.msrc;
      (* conjunctions of plain conditions fold into a single term so that
         subsequent negation / disjunction / np.where stay expressible *)
      let fold atoms =
        let conds, rest =
          List.partition (function Cond _ -> true | _ -> false) atoms
        in
        let merged =
          match conds with
          | [] -> []
          | Cond t :: more ->
            [ Cond
                (List.fold_left
                   (fun acc a ->
                     match a with
                     | Cond t' -> Binop (And, acc, t')
                     | _ -> assert false)
                   t more) ]
          | _ -> assert false
        in
        merged @ rest
      in
      if op = Frontend.Ast.BitAnd then
        SMask { msrc = m1.msrc; atoms = fold (m1.atoms @ m2.atoms) }
      else
        match (fold m1.atoms, fold m2.atoms) with
        | [ Cond t1 ], [ Cond t2 ] ->
          SMask { msrc = m1.msrc; atoms = [ Cond (Binop (Or, t1, t2)) ] }
        | _ -> err "disjunction of complex masks is not supported")
    | _ -> err "& and | expect boolean masks")
  | _ -> (
    match (sa, sb) with
    | SConstV c1, SConstV c2 ->
      (* constant folding of literal arithmetic *)
      let f = Value.as_float (value_of_const c1)
      and g = Value.as_float (value_of_const c2) in
      let r =
        match op with
        | Frontend.Ast.Add -> f +. g
        | Frontend.Ast.Sub -> f -. g
        | Frontend.Ast.Mult -> f *. g
        | Frontend.Ast.Div -> f /. g
        | _ -> err "unsupported constant arithmetic"
      in
      (match (c1, c2) with
      | CInt _, CInt _ when op <> Frontend.Ast.Div ->
        SConstV (CInt (int_of_float r))
      | _ -> SConstV (CFloat r))
    | SScalar s1, SConstV c ->
      let name = fresh st ("sc_" ^ target) in
      let src = { rname = s1.srel; rcols = [ (s1.scol, s1.sty) ] } in
      let t = Binop (binop_of_arith op, Var s1.scol, Const c) in
      let _ =
        emit_simple st ~name ~src ~extra:[]
          ~outs:[ ("agg", t, term_ty src t) ] ()
      in
      SScalar { srel = name; scol = "agg"; sty = term_ty src t }
    | SConstV c, SScalar s1 ->
      let name = fresh st ("sc_" ^ target) in
      let src = { rname = s1.srel; rcols = [ (s1.scol, s1.sty) ] } in
      let t = Binop (binop_of_arith op, Const c, Var s1.scol) in
      let _ =
        emit_simple st ~name ~src ~extra:[]
          ~outs:[ ("agg", t, term_ty src t) ] ()
      in
      SScalar { srel = name; scol = "agg"; sty = term_ty src t }
    | SScalar s1, SScalar s2 ->
      (* cross join of two 1-row relations *)
      let name = fresh st ("sc_" ^ target) in
      let v1 = "x_" ^ s1.scol and v2 = "y_" ^ s2.scol in
      let t = Binop (binop_of_arith op, Var v1, Var v2) in
      let ty =
        match op with Frontend.Ast.Div -> Value.TFloat | _ -> s1.sty
      in
      emit st
        { head = { rel = { rel = name; vars = [ "agg" ] }; group = None;
                   sort = []; limit = None; distinct = false };
          body =
            [ Access { rel = s1.srel; vars = [ v1 ] };
              Access { rel = s2.srel; vars = [ v2 ] };
              Assign ("agg", t) ] };
      SScalar { srel = name; scol = "agg"; sty = ty }
    | (STensor t, (SConstV _ | SScalar _)) ->
      let o = sb in
      let f =
        match o with
        | SConstV c -> fun e -> Binop (binop_of_arith op, e, Const c)
        | SScalar _ -> err "tensor-by-aggregate scaling: use einsum"
        | _ -> assert false
      in
      STensor (tensor_map st ~name:target t f)
    | ((SConstV _ | SScalar _), STensor t) ->
      let f =
        match sa with
        | SConstV c -> fun e -> Binop (binop_of_arith op, Const c, e)
        | _ -> err "tensor-by-aggregate scaling: use einsum"
      in
      STensor (tensor_map st ~name:target t f)
    | _ ->
      (* series arithmetic stays symbolic over the shared source *)
      let src =
        match (sa, sb) with
        | SSeries { src; _ }, _ | _, SSeries { src; _ } -> src
        | STensor _, _ -> let s, _, _, _ = as_series st sa in s
        | _, STensor _ -> let s, _, _, _ = as_series st sb in s
        | _ -> err "arithmetic needs at least one series operand"
      in
      let ta = term_of_operand st src sa and tb = term_of_operand st src sb in
      let t = Binop (binop_of_arith op, ta, tb) in
      SSeries { src; sexpr = t; sname = target; sty = term_ty src t })

and translate_subscript st ~target (recv : sym) (idx : index) : sym =
  match (recv, idx) with
  | SRel r, Index (Str c) ->
    SSeries { src = r; sexpr = Var c; sname = c; sty = col_ty r c }
  | SRel r, Index (EList es) ->
    let cols = List.map (function Str s -> s | e -> err "bad projection %s" (expr_str e)) es in
    SRel (apply_projection st ~name:target r cols)
  | SRel r, Index (Name m) -> (
    match lookup st m with
    | SMask _ as mask -> SRel (apply_filter st ~name:target r mask)
    | SSeries { sty = Value.TBool; src; sexpr; _ } ->
      SRel (apply_filter st ~name:target r (SMask { msrc = src; atoms = [ Cond sexpr ] }))
    | _ -> err "unsupported subscript value %s" m)
  | SGrouped { gsrc; keys }, Index i -> (
    match i with
    | Str c -> SGroupedSel { gsrc; keys; sel = c }
    | EList [ Str c ] -> SGroupedSel { gsrc; keys; sel = c }
    | _ -> err "unsupported groupby selection")
  | (SSeries _ as s), Index (Name m) -> (
    (* filtered series: materialize a filtered single-column relation *)
    match lookup st m with
    | SMask { msrc; atoms } ->
      let src, e, ty, nm = as_series st s in
      same_src src msrc;
      SRel
        (emit_simple st ~name:target ~src ~extra:atoms
           ~outs:[ (nm, e, ty) ] ())
    | _ -> err "unsupported series subscript")
  | STensor t, Index (Name m) -> (
    (* boolean filtering of a vector (fancy indexing) *)
    match lookup st m with
    | SMask { msrc; atoms } ->
      let src = as_rel (STensor t) in
      same_src src msrc;
      let r =
        emit_simple st ~name:target ~src ~extra:atoms
          ~outs:(List.map (fun (c, ty) -> (c, Var c, ty)) src.rcols)
          ()
      in
      ignore r;
      STensor { t with trel = target; trows = None }
    | _ -> err "unsupported tensor subscript")
  | (SAccessor ("str", s) | (SSeries _ as s)), Slice (a, b) ->
    let src, e, _, nm = as_series st s in
    let lo = match a with Some (Int i) -> i | None -> 0 | _ -> err "bad slice" in
    let hi = match b with Some (Int i) -> i | None -> err "open-ended slice" | _ -> err "bad slice" in
    SSeries
      { src;
        sexpr = Ext ("substring", [ e; Const (CInt (lo + 1)); Const (CInt (hi - lo)) ]);
        sname = nm; sty = Value.TString }
  | _ -> err "unsupported subscript"

(* ------------------------------------------------------------------ *)
(* Calls                                                              *)
(* ------------------------------------------------------------------ *)

and kwarg_expr kwargs name = List.assoc_opt name kwargs

and kwarg_strings kwargs name =
  Option.map string_list_of_expr (kwarg_expr kwargs name)

and get_how_kw kwargs : how =
  match kwarg_expr kwargs "how" with
  | None | Some (Str "inner") -> Inner
  | Some (Str "left") -> Left
  | Some (Str "right") -> Right
  | Some (Str "outer") -> Outer
  | Some (Str "cross") -> Cross
  | Some e -> err "bad how=%s" (expr_str e)

and translate_call st ~target (func : expr) (args : expr list)
    (kwargs : (string * expr) list) : sym =
  match func with
  | Attr (Name ("np" | "pd" as m), fn) ->
    translate_module_call st ~target m fn args kwargs
  | _ ->
  let recv, meth = resolve_spine st func in
  match (recv, meth) with
  (* ---- module functions ---- *)
  | SNone, _ -> err "call on None"
  | SConstV (CString "pd"), _ | SConstV (CString "np"), _ -> assert false
  | SAccessor ("str", s), ("contains" | "startswith" | "endswith") -> (
    let src, e, _, _ = as_series st s in
    match args with
    | [ Str pat ] ->
      let pattern =
        match meth with
        | "contains" -> "%" ^ pat ^ "%"
        | "startswith" -> pat ^ "%"
        | _ -> "%" ^ pat
      in
      SMask { msrc = src; atoms = [ Cond (Like (e, pattern, false)) ] }
    | _ -> err "str.%s expects a literal pattern" meth)
  | SAccessor ("str", s), "slice" -> (
    let src, e, _, nm = as_series st s in
    match args with
    | [ Int a; Int b ] ->
      SSeries
        { src;
          sexpr = Ext ("substring", [ e; Const (CInt (a + 1)); Const (CInt (b - a)) ]);
          sname = nm; sty = Value.TString }
    | _ -> err "str.slice(start, stop) expects literals")
  | SAccessor ("dt", _), _ -> err "call on dt accessor: use .dt.year attribute"
  (* ---- DataFrame methods ---- *)
  | SRel r, "merge" -> (
    match args with
    | [ other ] ->
      let other = as_rel (translate_atom st other) in
      let how = get_how_kw kwargs in
      let left_on, right_on =
        match
          ( kwarg_strings kwargs "on",
            kwarg_strings kwargs "left_on",
            kwarg_strings kwargs "right_on" )
        with
        | Some on, _, _ -> (on, on)
        | None, Some l, Some rr -> (l, rr)
        | None, None, None when how = Cross -> ([], [])
        | _ -> err "merge: missing on=/left_on=/right_on="
      in
      SRel (merge_rel st ~name:target ~how ~left_on ~right_on r other)
    | _ -> err "merge expects one positional argument")
  | SRel r, "groupby" -> (
    match args with
    | [ by ] -> SGrouped { gsrc = r; keys = string_list_of_expr by }
    | _ -> err "groupby expects key list")
  | SRel r, "sort_values" ->
    let by =
      match (args, kwarg_strings kwargs "by") with
      | [ v ], _ -> string_list_of_expr v
      | [], Some by -> by
      | _ -> err "sort_values: missing by="
    in
    let dirs =
      match kwarg_expr kwargs "ascending" with
      | None | Some (Bool true) -> List.map (fun _ -> Asc) by
      | Some (Bool false) -> List.map (fun _ -> Desc) by
      | Some (EList bs) ->
        List.map (function Bool true -> Asc | Bool false -> Desc | _ -> Asc) bs
      | Some e -> err "bad ascending=%s" (expr_str e)
    in
    SRel (emit_sort st ~name:target r (List.combine by dirs))
  | SRel r, "head" -> (
    match args with
    | [ Int n ] -> SRel (emit_head st ~name:target r n)
    | _ -> err "head expects a literal count")
  | SRel r, "nlargest" -> (
    match args with
    | [ Int n; cols ] ->
      let by = string_list_of_expr cols in
      SRel
        (emit_simple st
           ~sort:(List.map (fun c -> (c, Desc)) by)
           ~limit:(Some n) ~name:target ~src:r ~extra:[]
           ~outs:(List.map (fun (c, ty) -> (c, Var c, ty)) r.rcols)
           ())
    | _ -> err "nlargest(n, columns)")
  | SRel r, "drop" ->
    let cols =
      match (args, kwarg_strings kwargs "columns") with
      | [ c ], _ -> string_list_of_expr c
      | [], Some cs -> cs
      | _ -> err "drop: missing columns"
    in
    SRel
      (apply_projection st ~name:target r
         (List.filter (fun c -> not (List.mem c cols)) (cols_of r)))
  | SRel r, "rename" -> (
    match kwarg_expr kwargs "columns" with
    | Some (EDict kvs) ->
      let mapping =
        List.map
          (function
            | Str k, Str v -> (k, v)
            | _ -> err "rename mapping must be string pairs")
          kvs
      in
      let outs =
        List.map
          (fun (c, ty) ->
            let c' =
              match List.assoc_opt c mapping with Some v -> v | None -> c
            in
            (c', Var c, ty))
          r.rcols
      in
      SRel (emit_simple st ~name:target ~src:r ~extra:[] ~outs ())
    | _ -> err "rename expects columns={...}")
  | SRel _, ("reset_index" | "copy") -> recv
  | SRel r, ("to_numpy" | "values") ->
    STensor (tensor_of_rel st ~name:target r)
  | SRel r, "drop_duplicates" ->
    SRel
      (emit_simple st ~distinct:true ~name:target ~src:r ~extra:[]
         ~outs:(List.map (fun (c, ty) -> (c, Var c, ty)) r.rcols)
         ())
  | SRel r, "pivot_table" ->
    let gets k =
      match kwarg_expr kwargs k with
      | Some (Str s) -> s
      | _ -> err "pivot_table: missing %s=" k
    in
    let fn =
      match kwarg_expr kwargs "aggfunc" with
      | Some (Str s) -> agg_fn_of_string s
      | None -> Avg
      | Some e -> err "bad aggfunc %s" (expr_str e)
    in
    SRel
      (emit_pivot st ~name:target r ~index:(gets "index")
         ~columns:(gets "columns") ~values:(gets "values") ~fn)
  (* ---- GroupBy ---- *)
  | SGrouped { gsrc; keys }, "agg" ->
    let aggs =
      List.map
        (fun (out, spec) ->
          match spec with
          | ETuple [ Str col; Str fn ] | EList [ Str col; Str fn ] ->
            (out, Var col, agg_fn_of_string fn)
          | ETuple [ Str col; Lambda ([ p ], body) ] ->
            (out, lambda_term st [ (p, Var col) ] gsrc body, Sum)
          | _ -> err "agg expects out=('col','fn') pairs")
        kwargs
    in
    SRel (emit_groupby st ~name:target gsrc keys aggs)
  | SGrouped { gsrc; keys }, "size" ->
    SRel (emit_groupby st ~name:target gsrc keys [ ("size", Const (CInt 1), CountStar) ])
  | SGrouped { gsrc; keys }, ("sum" | "min" | "max" | "mean" | "count") ->
    let fn = agg_fn_of_string meth in
    let rest = List.filter (fun (c, _) -> not (List.mem c keys)) gsrc.rcols in
    SRel
      (emit_groupby st ~name:target gsrc keys
         (List.map (fun (c, _) -> (c, Var c, fn)) rest))
  | SGroupedSel { gsrc; keys; sel }, ("sum" | "min" | "max" | "mean" | "count" | "nunique") ->
    SRel
      (emit_groupby st ~name:target gsrc keys
         [ (sel, Var sel, agg_fn_of_string meth) ])
  | SGroupedSel { gsrc; keys; _ }, "size" ->
    SRel (emit_groupby st ~name:target gsrc keys [ ("size", Const (CInt 1), CountStar) ])
  (* ---- Series reductions ---- *)
  | (SSeries _ as s), ("sum" | "min" | "max" | "mean" | "count" | "nunique") ->
    let src, e, _, _ = as_series st s in
    emit_global_agg st ~name:target src e (agg_fn_of_string meth)
  | (SSeries _ as s), "unique" ->
    let src, e, ty, nm = as_series st s in
    SRel
      (emit_simple st ~distinct:true ~name:target ~src ~extra:[]
         ~outs:[ (nm, e, ty) ] ())
  | (SSeries _ as s), "isin" -> (
    let src, e, _, _ = as_series st s in
    match args with
    | [ EList items ] ->
      let cs = List.map const_of_ast items in
      SMask { msrc = src; atoms = [ Cond (InConsts (e, cs, false)) ] }
    | [ other ] -> (
      match translate_atom st other with
      | SRel orel | SSeries { src = orel; _ } -> (
        (* membership via an existential sub-body *)
        match orel.rcols with
        | _ ->
          let key_col, osym = (match translate_atom st other with
            | SSeries { src; sexpr = Var c; _ } -> (c, src)
            | SRel ({ rcols = [ (c, _) ]; _ } as r) -> (c, r)
            | SRel r -> (fst (List.hd r.rcols), r)
            | _ -> err "isin expects a series or single-column frame")
          in
          let iv = fresh st "ex" in
          let inner_vars =
            List.map
              (fun (c, _) -> if String.equal c key_col then iv else "_")
              osym.rcols
          in
          SMask
            { msrc = src;
              atoms =
                [ Exists
                    ( false,
                      [ Access { rel = osym.rname; vars = inner_vars };
                        Cond (Binop (Eq, e, Var iv)) ] ) ] })
      | _ -> err "isin expects a list or series")
    | _ -> err "isin expects one argument")
  | (SSeries _ as s), "apply" -> (
    match args with
    | [ Lambda ([ p ], body) ] ->
      let src, e, _, nm = as_series st s in
      let t = lambda_term st [ (p, e) ] src body in
      SSeries { src; sexpr = t; sname = nm; sty = term_ty src t }
    | _ -> err "apply expects a single-parameter lambda")
  | (SSeries _ as s), "round" ->
    let src, e, _, nm = as_series st s in
    let digits = match args with [ Int d ] -> d | _ -> 0 in
    SSeries
      { src; sexpr = Ext ("round", [ e; Const (CInt digits) ]); sname = nm;
        sty = Value.TFloat }
  | (SSeries _ as s), "abs" ->
    let src, e, ty, nm = as_series st s in
    SSeries { src; sexpr = Ext ("abs", [ e ]); sname = nm; sty = ty }
  | (SSeries _ as s), "astype" -> s
  | (SSeries _ as s), "to_numpy" ->
    (* vector in dense layout *)
    let src, e, ty, nm = as_series st s in
    let outs = [ ("id", Ext ("uid", []), Value.TInt); (nm, e, ty) ] in
    let _ = emit_simple st ~name:target ~src ~extra:[] ~outs () in
    STensor
      { trel = target; tlayout = Context.Dense; tid = "id";
        tvals = [ (nm, ty) ]; tshape = `V; trows = None }
  (* ---- ndarray methods (Table V) ---- *)
  | STensor t, "sum" -> (
    match (args, kwarg_expr kwargs "axis") with
    | [], None ->
      let src = as_rel (STensor t) in
      let total =
        List.fold_left
          (fun acc (c, _) ->
            match acc with
            | None -> Some (Var c)
            | Some x -> Some (Binop (Add, x, Var c)))
          None t.tvals
      in
      emit_global_agg st ~name:target src (Option.get total) Sum
    | ([ Int 1 ], None | [], Some (Int 1)) ->
      let src = as_rel (STensor t) in
      let total =
        List.fold_left
          (fun acc (c, _) ->
            match acc with
            | None -> Some (Var c)
            | Some x -> Some (Binop (Add, x, Var c)))
          None t.tvals
      in
      let _ =
        emit_simple st ~name:target ~src ~extra:[]
          ~outs:[ ("id", Var t.tid, Value.TInt); ("c0", Option.get total, Value.TFloat) ]
          ()
      in
      STensor (mk_tensor target `V [ ("c0", Value.TFloat) ])
    | _ -> err "tensor sum: unsupported axis")
  | STensor t, "all" ->
    let src = as_rel (STensor t) in
    let vcol, _ = List.hd t.tvals in
    emit_global_agg st ~name:target src (Var vcol) Min
  | STensor t, "nonzero" ->
    let src = as_rel (STensor t) in
    let vcol, _ = List.hd t.tvals in
    let r =
      emit_simple st ~name:target ~src
        ~extra:[ Cond (Binop (Ne, Var vcol, Const (CInt 0))) ]
        ~outs:[ ("id", Var t.tid, Value.TInt) ]
        ()
    in
    SRel r
  | STensor t, "round" ->
    STensor (tensor_map st ~name:target t (fun e -> Ext ("round", [ e ])))
  | STensor t, "compress" -> (
    match args with
    | [ EList mask ] ->
      let flags =
        List.map
          (function
            | Bool b -> b
            | Int i -> i <> 0
            | e -> err "compress mask must be literal: %s" (expr_str e))
          mask
      in
      let kept =
        List.filteri
          (fun i _ -> i < List.length flags && List.nth flags i)
          t.tvals
      in
      let src = as_rel (STensor t) in
      let outs =
        (t.tid, Var t.tid, Value.TInt)
        :: List.map (fun (c, ty) -> (c, Var c, ty)) kept
      in
      let _ = emit_simple st ~name:target ~src ~extra:[] ~outs () in
      STensor { t with trel = target; tvals = kept }
    | _ -> err "compress expects a literal mask (axis=1)")
  | STensor _, ("transpose" | "T") -> err "transpose must go through einsum"
  | SScalar _, "item" -> recv
  | s, m ->
    err_api m "unsupported method .%s on %s" m
      (match s with
      | SRel r -> "DataFrame " ^ r.rname
      | STensor t -> "ndarray " ^ t.trel
      | SSeries _ -> "Series"
      | _ -> "value")

(* Module-level function dispatch: np.einsum, np.where, pd.DataFrame, ... *)
and translate_module_call st ~target (m : string) (fn : string)
    (args : expr list) (kwargs : (string * expr) list) : sym =
  match (m, fn, args) with
  | "np", "einsum", Str spec :: ops ->
    einsum_translate st ~name:target spec (List.map (translate_atom st) ops)
  | "np", "where", [ cond; a; b ] ->
    let cm = translate_atom st cond in
    let src, pred, _, _ = as_series st cm in
    let ta = term_of_operand st src (translate_atom st a) in
    let tb = term_of_operand st src (translate_atom st b) in
    let t = If (pred, ta, tb) in
    SSeries { src; sexpr = t; sname = target; sty = term_ty src t }
  | "np", "sqrt", [ a ] ->
    let src, e, _, nm = as_series st (translate_atom st a) in
    SSeries { src; sexpr = Ext ("sqrt", [ e ]); sname = nm; sty = Value.TFloat }
  | "np", "round", [ a ] -> (
    match translate_atom st a with
    | STensor t ->
      STensor (tensor_map st ~name:target t (fun e -> Ext ("round", [ e ])))
    | s ->
      let src, e, _, nm = as_series st s in
      SSeries { src; sexpr = Ext ("round", [ e; Const (CInt 0) ]); sname = nm;
                sty = Value.TFloat })
  | "pd", "DataFrame", [] -> SBuilder (ref [])
  | "pd", "DataFrame", [ EDict kvs ] ->
    let entries =
      List.map
        (fun (k, v) ->
          match k with
          | Str c -> (c, translate_atom st v)
          | _ -> err "DataFrame dict keys must be strings")
        kvs
    in
    SRel (materialize_builder st ~name:target entries)
  | "pd", "to_datetime", [ a ] -> translate_atom st a
  | _ ->
    ignore kwargs;
    err_api (m ^ "." ^ fn) "unsupported module call %s.%s" m fn

(* ------------------------------------------------------------------ *)
(* Statements / function translation                                  *)
(* ------------------------------------------------------------------ *)

let extend_rel st ~(dfvar : string) (r : rel_info) (col : string) (s : sym) :
    unit =
  match s with
  | SConstV c ->
    let name = fresh st (dfvar ^ "_ext") in
    let outs =
      List.map (fun (c', ty) -> (c', Var c', ty)) r.rcols
      @ [ (col, Const c, term_ty r (Const c)) ]
    in
    bind st dfvar (SRel (emit_simple st ~name ~src:r ~extra:[] ~outs ()))
  | _ ->
    let src, e, ty, _ = as_series st s in
    if String.equal src.rname r.rname then begin
      let name = fresh st (dfvar ^ "_ext") in
      let replace = List.mem_assoc col r.rcols in
      let outs =
        List.map
          (fun (c', ty') ->
            if replace && String.equal c' col then (c', e, ty)
            else (c', Var c', ty'))
          r.rcols
        @ if replace then [] else [ (col, e, ty) ]
      in
      bind st dfvar (SRel (emit_simple st ~name ~src:r ~extra:[] ~outs ()))
    end
    else begin
      (* implicit join on uid (paper §III-C) *)
      let b = ref (List.map (fun (c', ty') ->
          (c', SSeries { src = r; sexpr = Var c'; sname = c'; sty = ty' })) r.rcols
          @ [ (col, s) ])
      in
      let name = fresh st (dfvar ^ "_ij") in
      bind st dfvar (SRel (materialize_builder st ~name !b))
    end

let exec_stmt st (s : stmt) : sym option =
  match s with
  | SAssign (TName t, e) ->
    bind st t (translate_rhs st ~target:t e);
    None
  | SAssign (TSubscript (Name dfvar, Str col), e) -> (
    let rhs = translate_rhs st ~target:(fresh st (dfvar ^ "_" ^ col)) e in
    match lookup st dfvar with
    | SBuilder b ->
      b := !b @ [ (col, rhs) ];
      None
    | SRel r ->
      extend_rel st ~dfvar r col rhs;
      None
    | _ -> err "cannot assign column on %s" dfvar)
  | SAssign (TSubscript _, _) -> err "unsupported subscript assignment"
  | SAssign (TAttr _, _) -> err "attribute assignment not supported"
  | SAssign (TTuple _, _) -> err "tuple assignment not supported"
  | SExpr _ -> None
  | SReturn e -> Some (translate_atom st e)

(* Ensure the returned sym is the last rule of the program. *)
let finalize st (s : sym) : unit =
  let last_defined =
    match st.rules with [] -> None | r :: _ -> Some (rule_defines r)
  in
  match s with
  | SRel r ->
    if last_defined <> Some r.rname then ignore (emit_copy st ~name:"result" ~src:r)
  | STensor t ->
    let r = as_rel s in
    if last_defined <> Some t.trel then ignore (emit_copy st ~name:"result" ~src:r)
  | SScalar { srel; scol; sty } ->
    if last_defined <> Some srel then
      ignore
        (emit_copy st ~name:"result"
           ~src:{ rname = srel; rcols = [ (scol, sty) ] })
  | SSeries { src; sexpr; sname; sty } ->
    ignore
      (emit_simple st ~name:"result" ~src ~extra:[]
         ~outs:[ (sname, sexpr, sty) ] ())
  | SBuilder b -> ignore (materialize_builder st ~name:"result" !b)
  | _ -> err "cannot return this value from a @pytond function"

(* Bind function parameters: base tables by name; tensors per layouts. *)
let bind_params st (f : func) : unit =
  List.iter
    (fun p ->
      match Context.table st.ctx p with
      | Some info -> (
        match List.assoc_opt p st.ctx.Context.layouts with
        | Some Context.Sparse ->
          bind st p
            (STensor
               { trel = p; tlayout = Context.Sparse; tid = "row_id";
                 tvals = [ ("val", Value.TFloat) ]; tshape = `M; trows = None })
        | Some Context.Dense -> (
          match info.Context.cols with
          | (idc, _) :: vals ->
            bind st p
              (STensor
                 { trel = p; tlayout = Context.Dense; tid = idc; tvals = vals;
                   tshape = (if List.length vals = 1 then `V else `M);
                   trows = None })
          | [] -> err "tensor table %s has no columns" p)
        | None ->
          bind st p (SRel { rname = p; rcols = info.Context.cols }))
      | None -> err "parameter %s is not a known table" p)
    f.params

(* Entry point: translate an ANF-normalized @pytond function to TondIR. *)
let translate ~(ctx : Context.t) (f : func) : program =
  let st = { ctx; rules = []; syms = []; fresh_n = 0 } in
  bind_params st f;
  let result = ref None in
  (try
     List.iter
       (fun s ->
         match exec_stmt st s with
         | Some sym ->
           result := Some sym;
           raise Exit
         | None -> ())
       f.body
   with Exit -> ());
  (match !result with
  | Some sym -> finalize st sym
  | None -> err "function %s has no return statement" f.fname);
  { rules = List.rev st.rules }
