(** TondIR optimization passes (paper §IV):

    - O1: local dead-code elimination (unused assignments) and global
      dead-code elimination (unused head attributes);
    - O2: group/aggregate elimination on unique grouping keys;
    - O3: self-join elimination on unique join keys;
    - O4: rule inlining up to flow breakers (Table VII), and merging of
      ungrouped sibling aggregates over one relation.

    Levels are cumulative, matching Figure 10's break-down. *)

open Tondir.Ir
module Analysis = Tondir.Analysis

type level = O0 | O1 | O2 | O3 | O4

let level_of_int = function
  | 0 -> O0
  | 1 -> O1
  | 2 -> O2
  | 3 -> O3
  | _ -> O4

let level_to_int = function O0 -> 0 | O1 -> 1 | O2 -> 2 | O3 -> 3 | O4 -> 4

(* Uniqueness oracle: is the column set at [positions] unique in [rel]?
   Backed by the database catalog for base tables; derived facts for
   rule-defined relations are computed below. *)
type context = { is_unique : string -> int list -> bool }

let no_context = { is_unique = (fun _ _ -> false) }

(* ------------------------------------------------------------------ *)
(* Variable use counting                                              *)
(* ------------------------------------------------------------------ *)

(* Occurrences of every variable in a rule, counting: head vars, group/sort
   vars, access var lists, outer-join keys, assignment targets and all term
   positions. Exists sub-bodies contribute all their variables (shared ones
   correlate with the outer scope). *)
let occurrence_counts (r : rule) : (string, int) Hashtbl.t =
  let counts = Hashtbl.create 16 in
  let bump v =
    if v <> "_" then
      Hashtbl.replace counts v
        (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
  in
  let bump_term t = List.iter bump (term_vars [] t) in
  let rec bump_atom = function
    | Access a -> List.iter bump a.vars
    | OuterAccess (_, a, keys) ->
      List.iter bump a.vars;
      List.iter
        (fun (x, y) ->
          bump x;
          bump y)
        keys
    | ConstRel (vars, _) -> List.iter bump vars
    | Cond t -> bump_term t
    | Assign (v, t) ->
      bump v;
      bump_term t
    | Exists (_, sub) -> List.iter bump_atom sub
  in
  List.iter bump_atom r.body;
  List.iter bump r.head.rel.vars;
  (match r.head.group with Some gs -> List.iter bump gs | None -> ());
  List.iter (fun (v, _) -> bump v) r.head.sort;
  counts

(* ------------------------------------------------------------------ *)
(* O1a: local dead-code elimination                                   *)
(* ------------------------------------------------------------------ *)

(* Remove defining assignments whose target is used nowhere else in the
   rule. Equality-filter assignments (target already bound) are kept. *)
let local_dce_rule (r : rule) : rule =
  let rec fixpoint r =
    let counts = occurrence_counts r in
    let bound_before = ref [] in
    let changed = ref false in
    let body =
      List.filter_map
        (fun atom ->
          let keep = Some atom in
          match atom with
          | Assign (v, _) ->
            let is_definition = not (List.mem v !bound_before) in
            bound_before := v :: !bound_before;
            if
              is_definition
              && Option.value (Hashtbl.find_opt counts v) ~default:0 <= 1
            then begin
              changed := true;
              None
            end
            else keep
          | Access a | OuterAccess (_, a, _) ->
            bound_before := List.rev_append a.vars !bound_before;
            keep
          | ConstRel (vars, _) ->
            bound_before := List.rev_append vars !bound_before;
            keep
          | Cond _ | Exists _ -> keep)
        r.body
    in
    if !changed then fixpoint { r with body } else r
  in
  fixpoint r

(* Replace access-bound variables used nowhere else by "_" so global DCE can
   see dead attributes. *)
let prune_access_vars_rule (r : rule) : rule =
  let counts = occurrence_counts r in
  let prune_access (a : access) =
    { a with
      vars =
        List.map
          (fun v ->
            if
              v <> "_"
              && Option.value (Hashtbl.find_opt counts v) ~default:0 <= 1
            then "_"
            else v)
          a.vars }
  in
  let body =
    List.map
      (function
        | Access a -> Access (prune_access a)
        | OuterAccess (k, a, keys) -> OuterAccess (k, prune_access a, keys)
        | atom -> atom)
      r.body
  in
  { r with body }

let local_dce (p : program) : program =
  { rules = List.map (fun r -> prune_access_vars_rule (local_dce_rule r)) p.rules }

(* ------------------------------------------------------------------ *)
(* O1b: global dead-code elimination                                  *)
(* ------------------------------------------------------------------ *)

(* Drop head attributes of intermediate rules that every consumer ignores
   ("_" in all accesses at that position). Iterates with local DCE until no
   change. The final rule's head is the program result and is never pruned. *)
let global_dce (p : program) : program =
  let rec fixpoint p =
    let n = List.length p.rules in
    let def_counts = Analysis.definition_counts p in
    (* used positions per relation *)
    let used : (string, bool array) Hashtbl.t = Hashtbl.create 16 in
    let mark rel vars =
      let arr =
        match Hashtbl.find_opt used rel with
        | Some arr -> arr
        | None ->
          let arr = Array.make (List.length vars) false in
          Hashtbl.add used rel arr;
          arr
      in
      List.iteri
        (fun i v ->
          if i < Array.length arr && v <> "_" then arr.(i) <- true)
        vars
    in
    let rec scan_atoms atoms =
      List.iter
        (function
          | Access a | OuterAccess (_, a, _) -> mark a.rel a.vars
          | Exists (_, sub) -> scan_atoms sub
          | ConstRel _ | Cond _ | Assign _ -> ())
        atoms
    in
    List.iter (fun r -> scan_atoms r.body) p.rules;
    let changed = ref false in
    let rules =
      List.mapi
        (fun i r ->
          let rel = rule_defines r in
          if i = n - 1 || Hashtbl.find_opt def_counts rel <> Some 1 then r
          else
            match Hashtbl.find_opt used rel with
            | None -> r (* dead rule: removed below *)
            | Some arr ->
              let keep_pos =
                List.filteri
                  (fun j _ -> j < Array.length arr && arr.(j))
                  (List.mapi (fun j v -> (j, v)) r.head.rel.vars)
              in
              if List.length keep_pos = List.length r.head.rel.vars then r
              else begin
                changed := true;
                let vars = List.map snd keep_pos in
                { r with head = { r.head with rel = { r.head.rel with vars } } }
              end)
        p.rules
    in
    (* When a head shrank we must shrink consumer accesses identically. *)
    let keep_map : (string, bool array) Hashtbl.t = Hashtbl.create 16 in
    List.iter2
      (fun old_r new_r ->
        let rel = rule_defines old_r in
        let old_vars = old_r.head.rel.vars and new_vars = new_r.head.rel.vars in
        if List.length old_vars <> List.length new_vars then begin
          let arr = Array.make (List.length old_vars) false in
          let jref = ref 0 in
          List.iteri
            (fun i v ->
              if
                !jref < List.length new_vars
                && String.equal v (List.nth new_vars !jref)
              then begin
                arr.(i) <- true;
                incr jref
              end)
            old_vars;
          Hashtbl.replace keep_map rel arr
        end)
      p.rules rules;
    let shrink_access (a : access) =
      match Hashtbl.find_opt keep_map a.rel with
      | None -> a
      | Some arr ->
        { a with
          vars =
            List.filteri (fun i _ -> i < Array.length arr && arr.(i)) a.vars }
    in
    let rec shrink_atoms atoms =
      List.map
        (function
          | Access a -> Access (shrink_access a)
          | OuterAccess (k, a, keys) -> OuterAccess (k, shrink_access a, keys)
          | Exists (n, sub) -> Exists (n, shrink_atoms sub)
          | atom -> atom)
        atoms
    in
    let rules =
      List.map (fun r -> { r with body = shrink_atoms r.body }) rules
    in
    (* Remove rules whose result is never read (except the last). *)
    let rules =
      List.filteri
        (fun i r ->
          i = List.length rules - 1
          || Hashtbl.mem used (rule_defines r)
          || Hashtbl.find_opt def_counts (rule_defines r) <> Some 1)
        rules
    in
    if List.length rules <> n then changed := true;
    let p = local_dce { rules } in
    if !changed then fixpoint p else p
  in
  fixpoint (local_dce p)

(* ------------------------------------------------------------------ *)
(* Derived uniqueness                                                 *)
(* ------------------------------------------------------------------ *)

(* A head position is unique when its variable is defined by uid(), or when
   the rule groups by exactly that variable, or when the body is a single
   access whose corresponding source position is unique. *)
let derived_uniqueness (ctx : context) (p : program) : string -> int list -> bool
    =
  let facts : (string, int list list) Hashtbl.t = Hashtbl.create 16 in
  let add rel positions =
    let prev = Option.value (Hashtbl.find_opt facts rel) ~default:[] in
    Hashtbl.replace facts rel (positions :: prev)
  in
  let def_counts = Analysis.definition_counts p in
  List.iter
    (fun r ->
      let rel = rule_defines r in
      if Hashtbl.find_opt def_counts rel = Some 1 then begin
        (* uid-defined head vars *)
        List.iteri
          (fun i v ->
            let is_uid =
              List.exists
                (function
                  | Assign (v', Ext ("uid", _)) -> String.equal v v'
                  | _ -> false)
                r.body
            in
            if is_uid then add rel [ i ])
          r.head.rel.vars;
        (* grouping key is unique in the output *)
        match r.head.group with
        | Some gs ->
          let positions =
            List.filter_map
              (fun g ->
                let rec idx i = function
                  | [] -> None
                  | v :: rest ->
                    if String.equal v g then Some i else idx (i + 1) rest
                in
                idx 0 r.head.rel.vars)
              gs
          in
          if List.length positions = List.length gs then add rel positions
        | None -> ()
      end)
    p.rules;
  fun rel positions ->
    ctx.is_unique rel positions
    || List.exists
         (fun key -> List.for_all (fun k -> List.mem k positions) key)
         (Option.value (Hashtbl.find_opt facts rel) ~default:[])

(* ------------------------------------------------------------------ *)
(* O2: group/aggregate elimination                                    *)
(* ------------------------------------------------------------------ *)

(* If a rule groups by variables bound to a unique key of its single source
   access, every group has one row: drop the grouping and unwrap the
   aggregates. *)
let group_agg_elim (ctx : context) (p : program) : program =
  let is_unique = derived_uniqueness ctx p in
  let rewrite_rule (r : rule) : rule =
    match r.head.group with
    | None -> r
    | Some gs -> (
      let accesses =
        List.filter_map (function Access a -> Some a | _ -> None) r.body
      in
      match accesses with
      | [ a ]
        when List.for_all
               (function
                 | Access _ | Cond _ | Assign _ -> true
                 | OuterAccess _ | ConstRel _ | Exists _ -> false)
               r.body ->
        let positions =
          List.filter_map
            (fun g ->
              let rec idx i = function
                | [] -> None
                | v :: rest ->
                  if String.equal v g then Some i else idx (i + 1) rest
              in
              idx 0 a.vars)
            gs
        in
        if List.length positions = List.length gs && is_unique a.rel positions
        then begin
          let unwrap =
            map_term (function
              | Agg ((Sum | Min | Max | Avg), t) -> t
              | Agg ((Count | CountDistinct | CountStar), _) -> Const (CInt 1)
              | t -> t)
          in
          let body =
            List.map
              (function
                | Assign (v, t) -> Assign (v, unwrap t)
                | atom -> atom)
              r.body
          in
          { head = { r.head with group = None }; body }
        end
        else r
      | _ -> r)
  in
  { rules = List.map rewrite_rule p.rules }

(* ------------------------------------------------------------------ *)
(* O3: self-join elimination                                          *)
(* ------------------------------------------------------------------ *)

(* Two accesses to the same relation equi-joined on a unique column refer to
   the same row: merge them by renaming the second access's variables to the
   first's. *)
let self_join_elim (ctx : context) (p : program) : program =
  let is_unique = derived_uniqueness ctx p in
  let rewrite_rule (r : rule) : rule =
    let try_merge (body : atom list) :
        (atom list * (string -> string)) option =
      (* find two accesses to the same relation sharing a var at the same
         unique position *)
      let accesses : (int * access) list =
        List.mapi (fun i a -> (i, a)) body
        |> List.filter_map (fun (i, a) ->
               match a with Access a -> Some (i, a) | _ -> None)
      in
      let rec pairs (l : (int * access) list) =
        match l with
        | [] -> None
        | (i, a) :: rest -> (
          let candidate =
            List.find_opt
              (fun ((_, b) : int * access) ->
                String.equal a.rel b.rel
                && List.length a.vars = List.length b.vars
                && List.exists
                     (fun k ->
                       let va = List.nth a.vars k and vb = List.nth b.vars k in
                       va <> "_" && String.equal va vb && is_unique a.rel [ k ])
                     (List.init (List.length a.vars) Fun.id))
              rest
          in
          match candidate with
          | Some (j, b) -> Some (i, a, j, b)
          | None -> pairs rest)
      in
      match pairs accesses with
      | None -> None
      | Some (i, a, j, b) ->
        (* rename b's vars to a's, drop b; positions where a has "_" adopt
           b's var into a *)
        let renames = ref [] in
        let merged_vars =
          List.map2
            (fun va vb ->
              if va = "_" then vb
              else begin
                if vb <> "_" && not (String.equal va vb) then
                  renames := (vb, va) :: !renames;
                va
              end)
            a.vars b.vars
        in
        let rename_env = !renames in
        let rename v =
          match List.assoc_opt v rename_env with Some v' -> v' | None -> v
        in
        let rec rn_atom = function
          | Access x ->
            Access { x with vars = List.map rename x.vars }
          | OuterAccess (k, x, keys) ->
            OuterAccess
              ( k,
                { x with vars = List.map rename x.vars },
                List.map (fun (p, q) -> (rename p, rename q)) keys )
          | ConstRel (vars, rows) -> ConstRel (List.map rename vars, rows)
          | Cond t -> Cond (rename_term rename_env t)
          | Assign (v, t) -> Assign (rename v, rename_term rename_env t)
          | Exists (n, sub) -> Exists (n, List.map rn_atom sub)
        in
        let body =
          List.filteri (fun k _ -> k <> j) body
          |> List.mapi (fun k atom ->
                 if k = i then Access { a with vars = merged_vars }
                 else rn_atom atom)
        in
        Some (body, rename)
    in
    let rec fixpoint r =
      match try_merge r.body with
      | None -> r
      | Some (body, rename) ->
        (* apply the renaming to the head as well *)
        let head =
          { r.head with
            rel = { r.head.rel with vars = List.map rename r.head.rel.vars };
            group = Option.map (List.map rename) r.head.group;
            sort = List.map (fun (v, d) -> (rename v, d)) r.head.sort }
        in
        fixpoint { head; body }
    in
    fixpoint r
  in
  { rules = List.map rewrite_rule p.rules }

(* ------------------------------------------------------------------ *)
(* O4: rule inlining                                                  *)
(* ------------------------------------------------------------------ *)

(* Inline non-flow-breaker rules with a single consumer into that consumer.
   The sink (last) rule is never inlined away; relations read inside exists
   bodies or defined more than once are left alone. *)
let inline_rules ?(fresh_counter = ref 0) (p : program) : program =
  (* Fresh names are numbered per [optimize] (the counter is threaded
     through both of its inlining runs), so one program always compiles to
     the same TondIR, whatever else runs in the process or on other
     domains. Only this pass makes [__i] names. *)
  let fresh_var base =
    incr fresh_counter;
    Printf.sprintf "%s__i%d" base !fresh_counter
  in
  let rec fixpoint p =
    let n = List.length p.rules in
    let uses = Analysis.use_counts p in
    let defs = Analysis.definition_counts p in
    let in_exists = Analysis.exists_reads p in
    (* relations referenced through outer-join atoms are only replaced as
       whole accesses; never inline into an OuterAccess position *)
    let in_outer : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun r ->
        let rec scan = function
          | OuterAccess (_, a, _) -> Hashtbl.replace in_outer a.rel ()
          | Exists (_, sub) -> List.iter scan sub
          | _ -> ()
        in
        List.iter scan r.body)
      p.rules;
    let inlinable =
      List.filteri
        (fun i r ->
          i < n - 1
          && (not (Analysis.is_flow_breaker r))
          && Hashtbl.find_opt uses (rule_defines r) = Some 1
          && Hashtbl.find_opt defs (rule_defines r) = Some 1
          && not (Hashtbl.mem in_exists (rule_defines r))
          && not (Hashtbl.mem in_outer (rule_defines r))
          (* bodies with ConstRel or Exists inline fine; OuterAccess is a
             flow breaker already *))
        p.rules
    in
    match inlinable with
    | [] -> p
    | victim :: _ ->
      let vrel = rule_defines victim in
      let rules =
        List.filter_map
          (fun r ->
            if r == victim then None
            else if not (List.mem vrel (rule_reads r)) then Some r
            else begin
              (* replace each access to vrel in r's body *)
              let body =
                List.concat_map
                  (fun atom ->
                    match atom with
                    | Access a when String.equal a.rel vrel ->
                      (* rename victim body: head vars -> consumer vars,
                         other vars -> fresh *)
                      let head_vars = victim.head.rel.vars in
                      let env = ref [] in
                      (* An ignored consumer position must still bind a real
                         variable inside the inlined body (it may be used by
                         the victim's own filters). *)
                      List.iter2
                        (fun hv cv ->
                          if hv <> "_" then
                            let cv = if cv = "_" then fresh_var hv else cv in
                            env := (hv, cv) :: !env)
                        head_vars a.vars;
                      let mapping v =
                        if v = "_" then "_"
                        else
                          match List.assoc_opt v !env with
                          | Some v' -> v'
                          | None ->
                            let v' = fresh_var v in
                            env := (v, v') :: !env;
                            v'
                      in
                      let rec rn_atom = function
                        | Access x ->
                          Access { x with vars = List.map mapping x.vars }
                        | OuterAccess (k, x, keys) ->
                          OuterAccess
                            ( k,
                              { x with vars = List.map mapping x.vars },
                              List.map (fun (p, q) -> (mapping p, mapping q)) keys )
                        | ConstRel (vars, rows) ->
                          ConstRel (List.map mapping vars, rows)
                        | Cond t ->
                          Cond
                            (map_term
                               (function
                                 | Var v -> Var (mapping v)
                                 | t -> t)
                               t)
                        | Assign (v, t) ->
                          Assign
                            ( mapping v,
                              map_term
                                (function
                                  | Var v -> Var (mapping v)
                                  | t -> t)
                                t )
                        | Exists (neg, sub) -> Exists (neg, List.map rn_atom sub)
                      in
                      List.map rn_atom victim.body
                    | atom -> [ atom ])
                  r.body
              in
              Some { r with body }
            end)
          p.rules
      in
      fixpoint { rules }
  in
  fixpoint p

(* ------------------------------------------------------------------ *)
(* O4: sibling aggregate merging                                      *)
(* ------------------------------------------------------------------ *)

(* Ungrouped aggregates over one relation [S] that a single consumer reads
   side by side (q14's [promo] and [total]) become one rule that computes
   all of them in one pass, [m(a1, ..., ak) :- S(...), assigns], read once
   by the consumer. Each sibling answers exactly one row, so the product
   the consumer reads equals the merged row. [S] then has one reader and
   inlines into the merged aggregate, so no multi-use CTE is left.

   A sibling qualifies when it is defined once; has no group, sort, limit
   or distinct; its body is one [Access] to [S] binding distinct variables
   followed by defining [Assign]s, at least one of them an aggregate (a
   [Cond] would filter every aggregate after the merge); and its only
   reader is one plain [Access] in the consumer. [S] must be defined at
   most once, so every sibling reads the same version of it. The merged
   rule keeps the first sibling's name and place.

   Grouped siblings are left alone: the consumer equi-joins them on the
   group keys, which drops a NULL-key group that one merged grouping would
   keep, so the rewrite is not equivalent there. *)
let merge_sibling_aggs (p : program) : program =
  let uses = Analysis.use_counts p and defs = Analysis.definition_counts p in
  let count tbl rel = Option.value (Hashtbl.find_opt tbl rel) ~default:0 in
  let by_name = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace by_name (rule_defines r) r) p.rules;
  (* A qualifying sibling: its access to [S], its assignments, its rule. *)
  let sibling rel =
    match Hashtbl.find_opt by_name rel with
    | Some
        ({ head = { group = None; sort = []; limit = None; distinct = false; _ };
           body = Access a :: assigns } as r)
      when count defs rel = 1 && count uses rel = 1 && count defs a.rel <= 1
           && Analysis.body_has_agg assigns ->
      let targets =
        List.filter_map (function Assign (v, _) -> Some v | _ -> None) assigns
      in
      let bound = List.filter (fun v -> v <> "_") a.vars @ targets in
      if
        List.length targets = List.length assigns
        && List.length (List.sort_uniq String.compare bound) = List.length bound
      then Some (a, assigns, r)
      else None
    | _ -> None
  in
  (* One rule from the siblings, in the consumer's order: the access
     positions any sibling binds share one variable; other variables keep
     their names unless an earlier sibling took them. *)
  let merge_rules sibs : rule =
    let used = Hashtbl.create 16 in
    let rec fresh ?(k = 0) v =
      let c = if k = 0 then v else Printf.sprintf "%s__m%d" v k in
      if Hashtbl.mem used c then fresh ~k:(k + 1) v
      else begin
        Hashtbl.add used c ();
        c
      end
    in
    let (s : access), _, first = List.hd sibs in
    let slots = Array.make (List.length s.vars) "_" in
    let parts =
      List.map
        (fun ((a : access), assigns, r) ->
          let env = Hashtbl.create 8 in
          List.iteri
            (fun j v ->
              if v <> "_" then begin
                if slots.(j) = "_" then slots.(j) <- fresh v;
                Hashtbl.replace env v slots.(j)
              end)
            a.vars;
          let name v =
            if v = "_" then v
            else
              match Hashtbl.find_opt env v with
              | Some v' -> v'
              | None ->
                let v' = fresh v in
                Hashtbl.replace env v v';
                v'
          in
          let rename = function
            | Assign (v, t) ->
              let t = map_term (function Var x -> Var (name x) | t -> t) t in
              Assign (name v, t)
            | atom -> atom
          in
          let assigns = List.map rename assigns in
          (assigns, List.map name r.head.rel.vars))
        sibs
    in
    { head =
        { first.head with
          rel = { rel = rule_defines first; vars = List.concat_map snd parts } };
      body =
        Access { s with vars = Array.to_list slots } :: List.concat_map fst parts }
  in
  (* sibling name -> its merged rule (first sibling) or nothing (the rest) *)
  let replaced : (string, rule option) Hashtbl.t = Hashtbl.create 4 in
  let rewrite_consumer (c : rule) : rule =
    let sibs =
      List.filter_map
        (function
          | Access ca -> Option.map (fun sib -> (ca, sib)) (sibling ca.rel)
          | _ -> None)
        c.body
    in
    let source (_, ((a : access), _, _)) = a.rel in
    let groups =
      List.sort_uniq String.compare (List.map source sibs)
      |> List.filter_map (fun s ->
             match List.filter (fun sib -> source sib = s) sibs with
             | _ :: _ :: _ as g -> Some g
             | _ -> None)
    in
    List.fold_left
      (fun (c : rule) group ->
        let merged = merge_rules (List.map snd group) in
        let name = rule_defines merged in
        let names = List.map (fun ((ca : access), _) -> ca.rel) group in
        List.iter (fun n -> Hashtbl.replace replaced n None) names;
        Hashtbl.replace replaced name (Some merged);
        let vars = List.concat_map (fun ((ca : access), _) -> ca.vars) group in
        let body =
          List.filter_map
            (function
              | Access a when String.equal a.rel name ->
                Some (Access { rel = name; vars })
              | Access a when List.mem a.rel names -> None
              | atom -> Some atom)
            c.body
        in
        { c with body })
      c groups
  in
  let rules = List.map rewrite_consumer p.rules in
  { rules =
      List.filter_map
        (fun r ->
          match Hashtbl.find_opt replaced (rule_defines r) with
          | Some merged -> merged
          | None -> Some r)
        rules }

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

exception Optimize_error of { pass : string; msg : string }

(* A pass that raises leaves the program in an unknown state; tag the
   escaping exception with the pass name so the caller can report which
   rewrite failed (and, for [Pytond.run_auto], fall back to the baseline). *)
let guarded pass f p =
  try f p
  with
  | Optimize_error _ as e -> raise e
  | e -> raise (Optimize_error { pass; msg = Printexc.to_string e })

let optimize ?(level = O4) ?(ctx = no_context) (p : program) : program =
  let li = level_to_int level in
  let p = if li >= 1 then guarded "global-dce" global_dce p else p in
  let p = if li >= 2 then guarded "group-agg-elim" (group_agg_elim ctx) p else p in
  let p = if li >= 3 then guarded "self-join-elim" (self_join_elim ctx) p else p in
  let p = if li >= 2 then guarded "global-dce" global_dce p else p in
  let fresh_counter = ref 0 in
  let inline = guarded "inline-rules" (inline_rules ~fresh_counter) in
  let p = if li >= 4 then inline p else p in
  let p =
    if li < 4 then p
    else
      let merged = guarded "merge-sibling-aggs" merge_sibling_aggs p in
      (* a merge leaves the siblings' shared producer with one reader *)
      if List.length merged.rules < List.length p.rules then inline merged
      else p
  in
  let p = if li >= 1 then guarded "global-dce" global_dce p else p in
  p
