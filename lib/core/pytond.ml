(** PyTond public API: compile [@pytond]-decorated Python data-science
    functions to SQL and execute them on the bundled database engine, or run
    the same source on the eager Pandas/NumPy baseline interpreter.

    Pipeline (paper Fig. 1): Python source → AST → ANF → TondIR →
    optimization (O1–O4) → SQL → backend execution.

    Every entry point reports failures as {!Error} carrying a typed
    {!Errors.t} (stage + code + context); the [_result] variants return the
    same value in a [result] instead of raising.  {!run_auto} additionally
    falls back to the interpreter baseline when the SQL pipeline cannot
    handle the program. *)

module Ast = Frontend.Ast
module Ir = Tondir.Ir
module Db = Sqldb.Db
module Relation = Sqldb.Relation
module Column = Sqldb.Column
module Value = Sqldb.Value
module Catalog = Sqldb.Catalog
module Opt = Optimizer.Passes
module Errors = Errors

exception Error = Errors.Error

type backend = Sqldb.Db.backend = Vectorized | Compiled | Lingo

type opt_level = Opt.level = O0 | O1 | O2 | O3 | O4

(** A parsed, ANF-normalized @pytond function plus its translation context. *)
type compiled = {
  func : Ast.func;
  ctx : Translate.Context.t;
  ir : Ir.program; (* unoptimized TondIR (the "Grizzly-simulated" program) *)
}

let find_function (m : Ast.module_) (name : string) : Ast.func =
  match List.find_opt (fun (f : Ast.func) -> String.equal f.fname name) m.funcs with
  | Some f -> f
  | None ->
    Errors.fail ~code:"no-function" Errors.Parse "no function %s in source"
      name

let decorator_of (f : Ast.func) : Ast.decorator option =
  List.find_opt
    (fun (d : Ast.decorator) ->
      String.equal d.dec_name "pytond"
      || String.length d.dec_name >= 7
         && String.equal (String.sub d.dec_name 0 7) "pytond.")
    f.decorators

(* Build the optimizer's uniqueness oracle from the catalog (paper §III-A:
   contextual information from the database catalog). *)
let uniqueness_of_catalog (catalog : Catalog.t) : Opt.context =
  { Opt.is_unique =
      (fun rel positions ->
        match Catalog.find_opt catalog rel with
        | None -> false
        | Some t ->
          let names = (t.Catalog.rel).Relation.names in
          let cols =
            List.filter_map
              (fun p ->
                if p >= 0 && p < Array.length names then Some names.(p)
                else None)
              positions
          in
          List.length cols = List.length positions
          && Catalog.is_unique catalog rel cols) }

(** Parse [source], locate [func], normalize to ANF and translate to
    (unoptimized) TondIR using catalog + decorator context. *)
let front ~(db : Db.t) ~(source : string) ~(fname : string) : compiled =
  let m =
    Errors.guard ~stage:Errors.Parse (fun () ->
        Frontend.Parser.parse_module source)
  in
  let f = find_function m fname in
  (match decorator_of f with
  | Some _ -> ()
  | None ->
    Errors.fail ~code:"no-decorator"
      ~context:[ ("function", fname) ]
      Errors.Translate "function %s lacks a @pytond decorator" fname);
  let f =
    Errors.guard ~stage:Errors.Anf (fun () -> Frontend.Anf.normalize_func_def f)
  in
  let base = Translate.Context.of_catalog (Db.catalog db) in
  let ctx =
    match decorator_of f with
    | Some d -> Translate.Context.of_decorator ~base d
    | None -> base
  in
  let ir =
    Errors.guard ~stage:Errors.Translate (fun () ->
        Translate.Pandas_tr.translate ~ctx f)
  in
  { func = f; ctx; ir }

let optimize ~(db : Db.t) ~(level : opt_level) (c : compiled) : Ir.program =
  let ctx = uniqueness_of_catalog (Db.catalog db) in
  Errors.guard ~stage:Errors.Optimize (fun () -> Opt.optimize ~level ~ctx c.ir)

let base_columns_of_db (db : Db.t) (name : string) : string list option =
  match Catalog.find_opt (Db.catalog db) name with
  | Some t -> Some (Array.to_list (t.Catalog.rel).Relation.names)
  | None -> None

let generate_sql ~(dialect : string) ~(db : Db.t) (ir : Ir.program) : string =
  Errors.guard ~stage:Errors.Codegen (fun () ->
      Sqlgen.Gen.generate
        ~dialect:(Sqldb.Sql_print.dialect_of_name dialect)
        ~base_columns:(base_columns_of_db db) ir)

(** Compile a @pytond function to SQL text. [level] defaults to O4 (all
    optimizations); [O0] reproduces the "Grizzly-simulated" competitor. *)
let compile ?(level = O4) ?(dialect = "duckdb") ~(db : Db.t)
    ~(source : string) ~(fname : string) () : string =
  let c = front ~db ~source ~fname in
  let ir = optimize ~db ~level c in
  generate_sql ~dialect ~db ir

(** Compile and show the intermediate TondIR (before and after optimization)
    alongside the generated SQL — for inspection and documentation.
    [dialect] selects the SQL flavor shown ("duckdb" or "hyper"). *)
let explain ?(level = O4) ?(dialect = "duckdb") ~db ~source ~fname () : string =
  let c = front ~db ~source ~fname in
  let opt = optimize ~db ~level c in
  let sql = generate_sql ~dialect ~db opt in
  (* Physical plan with the optimizer's cardinality estimates against the
     actual per-operator row counts from an instrumented run. *)
  let plan_txt =
    match Errors.protect ~stage:Errors.Plan (fun () -> Db.explain db sql) with
    | Ok s -> s
    | Result.Error e -> Printf.sprintf "(plan unavailable: %s)" (Errors.to_string e)
  in
  Printf.sprintf
    "-- TondIR (translated)\n%s\n\n-- TondIR (optimized, %s)\n%s\n\n-- SQL\n%s\n\n\
     -- Plan (estimated vs actual rows)\n%s"
    (Ir.program_to_string c.ir)
    (match level with O0 -> "O0" | O1 -> "O1" | O2 -> "O2" | O3 -> "O3" | O4 -> "O4")
    (Ir.program_to_string opt) sql plan_txt

(** Full in-database execution: compile then run on a backend, under
    [settings] (default: the database's). [timeout_ms] / [row_budget]
    install a cooperative execution guard; expiry surfaces as [Error] with
    stage [Exec] and code ["timeout"] / ["row-budget"]. *)
let run ?(level = O4) ?(backend = Vectorized) ?(threads = 1) ?settings
    ?timeout_ms ?row_budget ~(db : Db.t) ~(source : string) ~(fname : string)
    () : Relation.t =
  let dialect = match backend with Compiled -> "hyper" | _ -> "duckdb" in
  let sql = compile ~level ~dialect ~db ~source ~fname () in
  Errors.guard ~stage:Errors.Exec (fun () ->
      Db.execute ~threads ~backend ?settings ?timeout_ms ?row_budget db sql)

(** {!run} returning the typed error instead of raising. *)
let run_result ?level ?backend ?threads ?timeout_ms ?row_budget ~db ~source
    ~fname () : (Relation.t, Errors.t) result =
  Errors.protect ~stage:Errors.Exec (fun () ->
      run ?level ?backend ?threads ?timeout_ms ?row_budget ~db ~source ~fname
        ())

(* ------------------------------------------------------------------ *)
(* Python-baseline execution                                          *)
(* ------------------------------------------------------------------ *)

(* Bind each function parameter from the catalog: plain tables become
   DataFrames; parameters declared dense/sparse tensors in the decorator
   become ndarrays (dropping the id / COO encoding). *)
let python_args ~(db : Db.t) (c : compiled) : Interp.value list =
  let catalog = Db.catalog db in
  List.map
    (fun p ->
      match Catalog.find_opt catalog p with
      | None ->
        Errors.fail ~code:"no-table"
          ~context:[ ("parameter", p) ]
          Errors.Exec "no table %s for parameter" p
      | Some t -> (
        let rel = t.Catalog.rel in
        match List.assoc_opt p c.ctx.Translate.Context.layouts with
        | Some Translate.Context.Dense ->
          (* (id, c0..cn-1) -> matrix of the value columns *)
          let df = Dataframe.Df.of_relation rel in
          let vals = List.tl (Dataframe.Df.columns df) in
          let m = Dataframe.Df.to_matrix (Dataframe.Df.select df vals) in
          Interp.VTensor m
        | Some Translate.Context.Sparse ->
          (* COO -> dense matrix for NumPy semantics *)
          let rows = Relation.column rel "row_id" in
          let cols = Relation.column rel "col_id" in
          let vals = Relation.column rel "val" in
          let n = Column.length vals in
          let nr = ref 0 and nc = ref 0 in
          for i = 0 to n - 1 do
            nr := max !nr (Column.int_at rows i + 1);
            nc := max !nc (Column.int_at cols i + 1)
          done;
          let coo =
            { Tensor.Sparse.n_rows = !nr; n_cols = !nc;
              rows = Array.init n (Column.int_at rows);
              cols = Array.init n (Column.int_at cols);
              vals = Array.init n (Column.float_at vals) }
          in
          Interp.VTensor (Tensor.Sparse.to_dense coo)
        | None -> Interp.VDf (Dataframe.Df.of_relation rel)))
    c.func.Ast.params

(* Normalize an interpreter result to a relation for comparison. *)
let value_to_relation (v : Interp.value) : Relation.t =
  match v with
  | Interp.VDf d -> Dataframe.Df.to_relation d
  | Interp.VSeries { col; sname } ->
    Relation.create [| sname |] [| col |]
  | Interp.VVal v ->
    Relation.create [| "agg" |] [| Column.of_values (Value.type_of v) [| v |] |]
  | Interp.VTensor (Tensor.Dense.Scalar f) ->
    Relation.create [| "agg" |] [| Column.of_floats [| f |] |]
  | Interp.VTensor (Tensor.Dense.Vector a) ->
    Relation.create [| "id"; "c0" |]
      [| Column.of_ints (Array.init (Array.length a) (fun i -> i + 1));
         Column.of_floats a |]
  | Interp.VTensor (Tensor.Dense.Matrix { rows; cols; data }) ->
    Relation.create
      (Array.of_list
         ("id" :: List.init cols (Printf.sprintf "c%d")))
      (Array.of_list
         (Column.of_ints (Array.init rows (fun i -> i + 1))
         :: List.init cols (fun j ->
                Column.of_floats
                  (Array.init rows (fun i -> data.((i * cols) + j))))))
  | v ->
    Errors.fail ~code:"non-relational" Errors.Exec
      "baseline returned a non-relational %s" (Interp.type_name v)

(** Run the same function on the eager Pandas/NumPy baseline. *)
let run_python ~(db : Db.t) ~(source : string) ~(fname : string) () :
    Relation.t =
  let m =
    Errors.guard ~stage:Errors.Parse (fun () ->
        Frontend.Parser.parse_module source)
  in
  let f = find_function m fname in
  let base = Translate.Context.of_catalog (Db.catalog db) in
  let ctx =
    match decorator_of f with
    | Some d -> Translate.Context.of_decorator ~base d
    | None -> base
  in
  let c = { func = f; ctx; ir = { Ir.rules = [] } } in
  let args = python_args ~db c in
  Errors.guard ~stage:Errors.Exec (fun () ->
      value_to_relation (Interp.run_function m ~fname ~args))

(* ------------------------------------------------------------------ *)
(* Automatic fallback                                                 *)
(* ------------------------------------------------------------------ *)

(** Which engine produced a {!run_auto} result. *)
type engine = Sql of backend | Interp

let engine_name = function
  | Sql b -> Db.backend_name b
  | Interp -> "interp"

type auto_result = {
  relation : Relation.t;
  engine : engine;
  fallback_reason : Errors.t option;
      (** [Some e] iff the SQL pipeline failed with [e] and the interpreter
          baseline produced [relation] instead. *)
}

(* Fallback policy: the interpreter can rescue programs the SQL pipeline
   cannot translate, optimize, compile or execute — but a program that does
   not even lex/parse (or has no such function) fails identically on both
   engines, so those errors propagate. *)
let fallback_applies (e : Errors.t) =
  match e.Errors.stage with
  | Errors.Lex | Errors.Parse | Errors.Anf -> false
  | Errors.Translate | Errors.Optimize | Errors.Codegen | Errors.Plan
  | Errors.Exec -> true

(** Compile and execute on [backend]; on any translate/codegen/plan/exec
    failure (including guard trips and escaped faults), re-run on the
    interpreter baseline and report the typed reason for the fallback. *)
let run_auto ?(level = O4) ?(backend = Vectorized) ?(threads = 1) ?timeout_ms
    ?row_budget ~(db : Db.t) ~(source : string) ~(fname : string) () :
    auto_result =
  match
    run_result ~level ~backend ~threads ?timeout_ms ?row_budget ~db ~source
      ~fname ()
  with
  | Ok relation -> { relation; engine = Sql backend; fallback_reason = None }
  | Result.Error e when fallback_applies e ->
    let relation = run_python ~db ~source ~fname () in
    { relation; engine = Interp; fallback_reason = Some e }
  | Result.Error e -> raise (Error e)
