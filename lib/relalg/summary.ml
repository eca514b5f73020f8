(* Query summaries: the view of a (sub)plan that the policy evaluator
   (Algorithm 1 of the paper) needs — output attributes with their
   base-column provenance and aggregation status, the conjunction of
   predicates normalized to base columns, and the group-by columns.

   The analysis is deliberately *sound but incomplete*: any derivation it
   cannot track precisely is marked [opaque], which later evaluates to
   "shippable nowhere" for the affected attribute. *)

type base_col = { table : string; column : string }

let base_col_compare a b =
  match String.compare a.table b.table with
  | 0 -> String.compare a.column b.column
  | c -> c

let base_col_equal a b = base_col_compare a b = 0
let pp_base_col ppf { table; column } = Fmt.pf ppf "%s.%s" table column

(* One output column of the (sub)query. [sources] are the base columns it
   derives from; [agg] is the aggregate applied (if any); [group_key]
   marks grouping attributes exposed in the output. *)
type out_ref = {
  name : string;
  sources : base_col list;
  agg : Expr.agg_fn option;
  group_key : bool;
  opaque : bool;
}

type t = {
  tables : (string * string) list;  (* alias -> global table name *)
  outputs : out_ref list;
  pred : Pred.t;  (* over base columns: Attr {rel = table; name = column} *)
  group_cols : base_col list option;  (* Some _ iff aggregation query *)
  accessed : (base_col * Expr.agg_fn option) list;
      (* columns read by predicates: disclosed through filtering even
         when not in the output (cf. §4.1 "accesses only the specified
         cells") *)
  valid : bool;  (* false when the shape is beyond the analysis *)
}

let is_aggregate s = s.group_cols <> None

(* --- aggregate composition (outer fn over a partially aggregated col) --- *)

let compose_agg ~outer ~inner =
  match outer, inner with
  | Expr.Sum, Expr.Sum -> Some Expr.Sum
  | Expr.Sum, Expr.Count -> Some Expr.Count
  | Expr.Min, Expr.Min -> Some Expr.Min
  | Expr.Max, Expr.Max -> Some Expr.Max
  | (Expr.Sum | Expr.Count | Expr.Min | Expr.Max | Expr.Avg), _ -> None

(* --- internal environment: alias column -> out_ref --- *)

type env = out_ref Attr.Map.t

let union_sources refs =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc c -> if List.exists (base_col_equal c) acc then acc else c :: acc)
        acc r.sources)
    [] refs
  |> List.rev

exception Unsupported

(* Resolve a scalar expression against the environment: referenced
   out_refs must all be plain (no aggregation) for the result to be a
   plain derived column. *)
let resolve_scalar (env : env) (e : Expr.scalar) : out_ref list =
  Attr.Set.fold
    (fun a acc ->
      match Attr.Map.find_opt a env with
      | Some r -> r :: acc
      | None -> raise Unsupported)
    (Expr.cols e) []

(* Rewrite a predicate so every column reference denotes a base column
   [Attr {rel = table; name = column}]. Conjuncts whose columns cannot be
   uniquely traced to plain base columns are dropped — weakening the
   predicate, which is the sound direction for the implication test. *)
let normalize_pred (env : env) (p : Pred.t) : Pred.t =
  let rewrite_conjunct c =
    try
      Some
        (Pred.map_cols
           (fun a ->
             match Attr.Map.find_opt a env with
             | Some { sources = [ bc ]; agg = None; opaque = false; _ } ->
               Attr.make ~rel:bc.table ~name:bc.column
             | Some _ | None -> raise Unsupported)
           c)
    with Unsupported -> None
  in
  Pred.conjuncts p |> List.filter_map rewrite_conjunct |> Pred.conj_all

(* Base columns (with their aggregation status) read by predicate [p];
   the boolean is false when some reference cannot be traced. *)
let accessed_of_pred (env : env) (p : Pred.t) : (base_col * Expr.agg_fn option) list * bool =
  Attr.Set.fold
    (fun a (acc, ok) ->
      match Attr.Map.find_opt a env with
      | Some { opaque = false; sources; agg; _ } ->
        (List.map (fun s -> (s, agg)) sources @ acc, ok)
      | Some _ | None -> (acc, false))
    (Pred.cols p) ([], true)

let dedup_accessed xs =
  List.fold_left
    (fun acc ((c, f) as x) ->
      if List.exists (fun (c', f') -> base_col_equal c c' && f = f') acc then acc
      else x :: acc)
    [] xs
  |> List.rev

let scan_env ~(table_cols : string -> string list) ~table ~alias : env * out_ref list =
  let cols = table_cols table in
  let refs =
    List.map
      (fun c ->
        { name = c; sources = [ { table; column = c } ]; agg = None; group_key = false;
          opaque = false })
      cols
  in
  let env =
    List.fold_left2
      (fun m c r -> Attr.Map.add (Attr.make ~rel:alias ~name:c) r m)
      Attr.Map.empty cols refs
  in
  (env, refs)

(* --- one step per operator ---

   Each step computes an operator's summary and environment from its
   children's. [analyze] folds the steps over a plan; the optimizer's
   memo applies one step per new group to its child groups' stored
   results, so it never walks a plan. *)

let scan ~table_cols ~table ~alias : t * env =
  let env, outputs = scan_env ~table_cols ~table ~alias in
  ( { tables = [ (alias, table) ]; outputs; pred = Pred.True; group_cols = None;
      accessed = []; valid = true },
    env )

(* [normalize_pred] drops conjuncts it cannot express over plain base
   columns (e.g. HAVING-like predicates over aggregates), which only
   weakens the predicate — the sound direction for implication. The
   referenced columns are still recorded as accessed. *)
let select p ((s, env) : t * env) : t * env =
  let acc, ok = accessed_of_pred env p in
  ( { s with
      pred = Pred.conj s.pred (normalize_pred env p);
      accessed = dedup_accessed (s.accessed @ acc);
      valid = s.valid && ok },
    env )

let project items ((s, env) : t * env) : t * env =
  let outputs, env' =
    List.fold_left
      (fun (outs, m) (e, n) ->
        let name = n.Attr.name in
        let r =
          try
            let refs = resolve_scalar env e in
            match e, refs with
            | Expr.Col _, [ r ] -> { r with name }
            | _, refs when List.for_all (fun r -> r.agg = None && not r.opaque) refs ->
              { name; sources = union_sources refs; agg = None; group_key = false;
                opaque = false }
            | _ ->
              (* compound expression over aggregated inputs: opaque *)
              { name; sources = union_sources refs; agg = None; group_key = false;
                opaque = true }
          with Unsupported ->
            { name; sources = []; agg = None; group_key = false; opaque = true }
        in
        (r :: outs, Attr.Map.add n r m))
      ([], Attr.Map.empty) items
  in
  ({ s with outputs = List.rev outputs }, env')

let join p ((sl, envl) : t * env) ((sr, envr) : t * env) : t * env =
  (* A join above an aggregate is beyond the SP/SPG analysis. *)
  let valid = sl.valid && sr.valid && (not (is_aggregate sl)) && not (is_aggregate sr) in
  let env = Attr.Map.union (fun _ a _ -> Some a) envl envr in
  let pred = Pred.conj (normalize_pred env p) (Pred.conj sl.pred sr.pred) in
  let acc, ok = accessed_of_pred env p in
  ( { tables = sl.tables @ sr.tables; outputs = sl.outputs @ sr.outputs; pred;
      group_cols = None;
      accessed = dedup_accessed (sl.accessed @ sr.accessed @ acc);
      valid = valid && ok },
    env )

let aggregate ~keys ~aggs ((s, env) : t * env) : t * env =
  if not s.valid then (s, env)
  else
    let key_refs =
      List.map
        (fun k ->
          match Attr.Map.find_opt k env with
          | Some ({ agg = None; opaque = false; sources = [ _ ]; _ } as r) ->
            { r with name = k.Attr.name; group_key = true }
          | Some r -> { r with name = k.Attr.name; group_key = true; opaque = true }
          | None ->
            { name = k.Attr.name; sources = []; agg = None; group_key = true; opaque = true })
        keys
    in
    let inner_group = s.group_cols in
    let agg_refs =
      List.map
        (fun (a : Expr.agg) ->
          try
            let refs = resolve_scalar env a.arg in
            match refs with
            | [] ->
              (* e.g. COUNT( * ) over a constant: no base column involved *)
              { name = a.alias; sources = []; agg = Some a.fn; group_key = false;
                opaque = false }
            | _ when List.for_all (fun r -> r.agg = None && not r.opaque) refs ->
              (* first-level aggregation over plain columns *)
              { name = a.alias; sources = union_sources refs; agg = Some a.fn;
                group_key = false; opaque = false }
            | [ ({ agg = Some inner; opaque = false; _ } as r) ]
              when (match a.arg with Expr.Col _ -> true | _ -> false) -> (
              (* re-aggregation of a partial aggregate *)
              match compose_agg ~outer:a.fn ~inner with
              | Some fn ->
                { name = a.alias; sources = r.sources; agg = Some fn; group_key = false;
                  opaque = false }
              | None ->
                { name = a.alias; sources = r.sources; agg = None; group_key = false;
                  opaque = true })
            | refs ->
              { name = a.alias; sources = union_sources refs; agg = None;
                group_key = false; opaque = true }
          with Unsupported ->
            { name = a.alias; sources = []; agg = None; group_key = false; opaque = true })
        aggs
    in
    let group_cols =
      let resolved =
        List.map
          (fun r -> match r.sources with [ bc ] when not r.opaque -> Some bc | _ -> None)
          key_refs
      in
      if List.for_all Option.is_some resolved then Some (List.filter_map Fun.id resolved)
      else None
    in
    let valid, group_cols =
      match group_cols, inner_group with
      | Some gs, None -> (true, Some gs)
      | Some gs, Some inner_gs ->
        (* re-grouping of an aggregate: sound only when coarsening
           (outer keys were inner keys) *)
        let ok = List.for_all (fun g -> List.exists (base_col_equal g) inner_gs) gs in
        (ok, Some gs)
      | None, _ -> (false, Some [])
    in
    let outputs = key_refs @ agg_refs in
    (* keys stay visible under their original (qualified) attribute;
       aggregate outputs are exposed unqualified under their alias *)
    let env' =
      let m = List.fold_left2 (fun m k r -> Attr.Map.add k r m) Attr.Map.empty keys key_refs in
      List.fold_left (fun m r -> Attr.Map.add (Attr.unqualified r.name) r m) m agg_refs
    in
    ({ tables = s.tables; outputs; pred = s.pred; group_cols; accessed = s.accessed; valid },
      env')

(* Partitions of the same table are union-compatible and share the
   summary shape; combine predicates disjunctively (weakest: drop) and
   accumulate every branch's accessed columns. *)
let union (branches : (t * env) list) : t * env =
  match branches with
  | [] -> raise Unsupported
  | (s, env) :: rest ->
    let rest_summaries = List.map fst rest in
    let all_same =
      List.for_all
        (fun sx -> List.equal (fun a b -> String.equal (snd a) (snd b)) sx.tables s.tables)
        rest_summaries
    in
    let accessed =
      dedup_accessed (List.concat_map (fun sx -> sx.accessed) (s :: rest_summaries))
    in
    ( { s with pred = Pred.True; accessed;
        valid = s.valid && all_same && List.for_all (fun sx -> sx.valid) rest_summaries },
      env )

let rec analyze_env ~table_cols (plan : Plan.t) : t * env =
  match plan with
  | Plan.Scan { table; alias } -> scan ~table_cols ~table ~alias
  | Plan.Select (p, input) -> select p (analyze_env ~table_cols input)
  | Plan.Project (items, input) -> project items (analyze_env ~table_cols input)
  | Plan.Join (p, l, r) ->
    let left = analyze_env ~table_cols l in
    join p left (analyze_env ~table_cols r)
  | Plan.Aggregate { keys; aggs; input } -> aggregate ~keys ~aggs (analyze_env ~table_cols input)
  | Plan.Union xs -> union (List.map (analyze_env ~table_cols) xs)

let analyze ~table_cols plan = fst (analyze_env ~table_cols plan)

(* --- hashing: the compliance-verdict cache key ---

   Covers every field, down to each output's flags and each predicate
   constant. Constants hash with the polymorphic hash, which tells
   [Int 1] from [Float 1.] as the cache's equality ([compare = 0]) does
   and equates [0.] with [-0.] as it does. *)

let mix h x = (h * 65599) + x

(* every byte, eight at a time: a summary holds dozens of short names *)
let hash_string h s =
  let n = String.length s in
  let h = ref (mix h n) and i = ref 0 in
  while !i + 8 <= n do
    h := mix !h (Int64.to_int (String.get_int64_le s !i));
    i := !i + 8
  done;
  for j = !i to n - 1 do
    h := mix !h (Char.code (String.unsafe_get s j))
  done;
  !h
let hash_attr h (a : Attr.t) = hash_string (hash_string h a.rel) a.name
let hash_col h c = hash_string (hash_string h c.table) c.column
let hash_agg h = function None -> mix h 0 | Some f -> mix h (1 + Hashtbl.hash f)

let rec hash_scalar h = function
  | Expr.Col a -> hash_attr (mix h 1) a
  | Expr.Const v -> mix (mix h 2) (Hashtbl.hash v)
  | Expr.Binop (op, a, b) -> hash_scalar (hash_scalar (mix (mix h 3) (Hashtbl.hash op)) a) b

let hash_atom h = function
  | Pred.Cmp (c, a, b) -> hash_scalar (hash_scalar (mix (mix h 5) (Hashtbl.hash c)) a) b
  | Pred.Like (e, pat) -> hash_string (hash_scalar (mix h 7) e) pat
  | Pred.In (e, vs) ->
    List.fold_left (fun h v -> mix h (Hashtbl.hash v)) (hash_scalar (mix h 11) e) vs
  | Pred.Is_null e -> hash_scalar (mix h 13) e
  | Pred.Not_null e -> hash_scalar (mix h 17) e

let rec hash_pred h = function
  | Pred.True -> mix h 19
  | Pred.False -> mix h 23
  | Pred.Atom a -> hash_atom (mix h 29) a
  | Pred.And (l, r) -> hash_pred (hash_pred (mix h 31) l) r
  | Pred.Or (l, r) -> hash_pred (hash_pred (mix h 37) l) r
  | Pred.Not p -> hash_pred (mix h 41) p

let hash_out h r =
  let h = List.fold_left hash_col (hash_string h r.name) r.sources in
  mix (mix (hash_agg h r.agg) (Bool.to_int r.group_key)) (Bool.to_int r.opaque)

let hash s =
  let h = List.fold_left (fun h (a, t) -> hash_string (hash_string h a) t) 0 s.tables in
  let h = List.fold_left hash_out h s.outputs in
  let h = hash_pred h s.pred in
  let h =
    match s.group_cols with
    | None -> mix h 43
    | Some gs -> List.fold_left hash_col (mix h 47) gs
  in
  let h = List.fold_left (fun h (c, f) -> hash_agg (hash_col h c) f) h s.accessed in
  mix h (Bool.to_int s.valid)

let pp ppf s =
  let pp_out ppf r =
    Fmt.pf ppf "%s%s<-{%a}%s" r.name
      (match r.agg with Some f -> ":" ^ Expr.agg_fn_to_string f | None -> "")
      Fmt.(list ~sep:comma pp_base_col)
      r.sources
      (if r.opaque then "!" else if r.group_key then "#" else "")
  in
  Fmt.pf ppf "@[<v>tables: %a@ outputs: %a@ pred: %a@ group: %a@ valid: %b@]"
    Fmt.(list ~sep:comma (pair ~sep:(any "->") string string))
    s.tables
    Fmt.(list ~sep:semi pp_out)
    s.outputs Pred.pp s.pred
    Fmt.(option ~none:(any "-") (list ~sep:comma pp_base_col))
    (match s.group_cols with None -> None | Some g -> Some g)
    s.valid
