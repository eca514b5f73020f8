(* A memo-based top-down optimizer in the style of the Volcano optimizer
   generator (§6.1), extended with the paper's compliance machinery:

   - groups of logically-equivalent expressions, deduplicated by a
     structural key over the m-expression with its children named by
     group id (the equivalence Normalize.canon defines, without building
     or printing a plan per lookup);
   - transformation rules: join commutativity, join associativity and
     eager aggregation pushdown (the rule §6.4 identifies as necessary
     for completeness);
   - annotation rules AR1–AR4 deriving *execution traits* ℰ (where an
     operator may legally run) and *shipping traits* 𝒮 (where its output
     may legally be sent) bottom-up;
   - the compliance-based cost function: an alternative whose execution
     trait is empty has infinite cost, i.e. it is pruned.

   Because the phase-1 cost model ignores data location (§6, two-phase
   optimization), the cost of a plan is independent of its traits; each
   group therefore keeps a small Pareto frontier of (cost, 𝒮)
   alternatives — the analogue of Calcite's trait-bearing equivalence
   nodes whose doubling of the plan space the paper reports in §7.3. *)

open Relalg
module Locset = Catalog.Location.Set

(* Observability: process-wide memo counters (cheap, unconditional) and
   trace events (guarded on [Obs.Trace.enabled], so the optimizer hot
   path pays one load per site when tracing is off). *)
let c_groups = Obs.Metrics.counter "cgqp_optimizer_memo_groups_total"
let c_exprs = Obs.Metrics.counter "cgqp_optimizer_memo_exprs_total"

let c_rule rule =
  Obs.Metrics.counter ~labels:[ ("rule", rule) ] "cgqp_optimizer_rule_firings_total"

let c_rule_commute = c_rule "join_commute"
let c_rule_associate = c_rule "join_associate"
let c_rule_eager_agg = c_rule "eager_aggregation"
let c_rule_union_pushdown = c_rule "union_pushdown"

let c_pruned kind =
  Obs.Metrics.counter ~labels:[ ("kind", kind) ] "cgqp_optimizer_pruned_total"

let c_pruned_group = c_pruned "group"
let c_pruned_entry = c_pruned "entry"
let c_pruned_combo = c_pruned "combo"

type gid = int

type mexpr =
  | E_scan of {
      table : string;
      alias : string;
      partition : int;
      location : Catalog.Location.t;
      fraction : float;
    }
  | E_filter of Pred.t * gid
  | E_project of (Expr.scalar * Attr.t) list * gid
  | E_join of Pred.t * gid * gid
  | E_agg of Attr.t list * Expr.agg list * gid
  | E_union of gid list

type group = {
  id : gid;
  repr : Plan.t;
      (* canonical logical form, built once; it orders join leaves and
         labels the trace. Group identity is the structural key (see
         [key] below), and summaries and estimates derive from the
         children's (see [derive]) *)
  mutable exprs : mexpr list;
  mutable explored : bool;
  mutable entries : entry list option;
  est : Stats.node_est;
  base : Stats.node_est;  (* [est] before partition scaling: parents derive from it *)
  attrs : Attr.Set.t;  (* output columns *)
  summary : Summary.t;
  env : Summary.env;  (* [summary]'s environment: parents derive from it *)
  tables : (string * string) list;  (* alias -> table *)
  partition_tag : int;  (* >= 0 when the whole subtree reads one partition *)
  single_loc : Catalog.Location.t option;
  policy_ships : Locset.t Lazy.t;  (* AR4 contribution for this group *)
  lb : float;  (* static lower bound on any entry's cost *)
  leaves : gid list;  (* sorted join-tree leaf groups; [id] for a non-join *)
  conjuncts : int list;  (* sorted interned join-tree conjuncts; [] for a non-join *)
}

and entry = {
  cost : float;
  exec_trait : Locset.t;  (* ℰ *)
  ship_trait : Locset.t;  (* 𝒮 *)
  order : (Attr.t * bool) list;  (* delivered sort order (attr, desc) *)
  phys : phys;  (* physical algorithm for the operator *)
  mex : mexpr;
  sub : entry list;  (* chosen child entries, in child order *)
}

(* Physical alternative: joins may run as hash (default; preserves the
   probe side's order) or as merge, with sort enforcers on the inputs
   that do not already deliver the join-key order — the Volcano enforcer
   mechanism of the paper's Figure 3. *)
and phys = P_default | P_merge of { sort_left : bool; sort_right : bool }

type mode = Compliant | Traditional

(* Transformation-rule toggles, for the ablation experiments: the
   paper's completeness discussion (§6.4) hinges on which algebraic
   rules the Volcano generator is given. *)
type rules = {
  join_commute : bool;
  join_associate : bool;
  eager_aggregation : bool;
  union_pushdown : bool;
}

let default_rules =
  { join_commute = true; join_associate = true; eager_aggregation = true;
    union_pushdown = true }

type prune_stats = {
  bound : float;  (* the global upper bound U; infinity = never seeded *)
  groups_pruned : int;
  entries_pruned : int;
  combos_pruned : int;
}

(* --- group identity: the structural key --- *)

(* A group is found by a key over one of its m-expressions, children
   named by gid. The key induces the equivalence [Normalize.canon]
   defines: filter conjuncts, aggregate keys and aggregates are sorted
   as canon sorts them, and a join is identified by the multisets of
   its leaf groups and of the conjuncts over its whole join tree — what
   [Normalize.flatten] collects — so commuted and reassociated joins
   share a key. Conjuncts are compared by interned id, scalars with
   [Expr.compare_scalar]; nothing is printed. *)
type key =
  | K_scan of string * string * int  (* table, alias, partition; -1 = all *)
  | K_filter of int list * gid  (* sorted conjunct ids *)
  | K_project of (Expr.scalar * Attr.t) list * gid
  | K_agg of Attr.t list * Expr.agg list * gid  (* sorted as canon sorts *)
  | K_union of gid list  (* sorted *)
  | K_join of gid list * int list  (* sorted leaf gids, sorted conjunct ids *)

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal_item (e1, n1) (e2, n2) = Expr.equal_scalar e1 e2 && Attr.equal n1 n2

  let equal_agg (x : Expr.agg) (y : Expr.agg) =
    x.fn = y.fn && Expr.equal_scalar x.arg y.arg && String.equal x.alias y.alias

  let ints = List.equal Int.equal

  let equal a b =
    match a, b with
    | K_scan (t1, a1, p1), K_scan (t2, a2, p2) ->
      p1 = p2 && String.equal t1 t2 && String.equal a1 a2
    | K_filter (c1, g1), K_filter (c2, g2) -> g1 = g2 && ints c1 c2
    | K_project (i1, g1), K_project (i2, g2) -> g1 = g2 && List.equal equal_item i1 i2
    | K_agg (k1, a1, g1), K_agg (k2, a2, g2) ->
      g1 = g2 && List.equal Attr.equal k1 k2 && List.equal equal_agg a1 a2
    | K_union g1, K_union g2 -> ints g1 g2
    | K_join (l1, c1), K_join (l2, c2) -> ints l1 l2 && ints c1 c2
    | (K_scan _ | K_filter _ | K_project _ | K_agg _ | K_union _ | K_join _), _ -> false

  let mix h x = (h * 31) + x
  let hash_ints = List.fold_left mix

  (* Scalars stay out of the hash: [Expr.compare_scalar] equates
     [Int 1] and [Float 1.], which the polymorphic hash tells apart. *)
  let hash = function
    | K_scan (t, a, p) -> Hashtbl.hash (t, a, p)
    | K_filter (c, g) -> hash_ints (mix 1 g) c
    | K_project (items, g) -> mix (Hashtbl.hash (List.map snd items)) g
    | K_agg (keys, aggs, g) ->
      mix (Hashtbl.hash (keys, List.map (fun (a : Expr.agg) -> a.alias) aggs)) g
    | K_union gs -> hash_ints 5 gs
    | K_join (l, c) -> hash_ints (hash_ints 7 l) c
end)

type t = {
  cat : Catalog.t;
  policies : Policy.Pcatalog.t;
  mode : mode;
  rules : rules;
  eval_stats : Policy.Evaluator.stats option;
  arr : (gid, group) Hashtbl.t;
  by_key : gid Key_tbl.t;
  scans : (string * string, (Summary.t * Summary.env) * Stats.node_est) Hashtbl.t;
      (* (table, alias) -> whole-table scan summary and estimate, built
         once for the scan groups of all partitions and their union *)
  table_cols : string -> string list;
  all_locs : Locset.t;  (* every catalog location *)
  mutable next_id : int;
  prune : bool;  (* branch-and-bound pruning enabled *)
  mutable naive : bool;  (* phase-A bound seeding: original exprs only *)
  mutable bound : float;  (* best known complete-plan cost U *)
  mutable groups_pruned : int;
  mutable entries_pruned : int;
  mutable combos_pruned : int;
}

let create ?(prune = true) ?(rules = default_rules) ?eval_stats
    ~mode ~cat ~policies () =
  let table_cols name = Catalog.table_cols cat name in
  {
    cat;
    policies;
    mode;
    rules;
    eval_stats;
    arr = Hashtbl.create 64;
    by_key = Key_tbl.create 64;
    scans = Hashtbl.create 8;
    table_cols;
    all_locs = Locset.of_list (Catalog.locations cat);
    next_id = 0;
    prune;
    naive = false;
    bound = Float.infinity;
    groups_pruned = 0;
    entries_pruned = 0;
    combos_pruned = 0;
  }

let prune_stats m =
  { bound = m.bound; groups_pruned = m.groups_pruned; entries_pruned = m.entries_pruned;
    combos_pruned = m.combos_pruned }

let group m id = Hashtbl.find m.arr id
let group_count m = m.next_id

(* --- group creation --- *)

(* Exploration-independent lower bound on the cost of any entry of a
   group: every member plan is a tree whose leaves scan each referenced
   base table exactly once (transformation rules preserve the base
   tables), every scan costs its estimated row count, and all other
   operator costs are nonnegative — so the summed scan estimates bound
   any alternative, including ones created by rules that have not fired
   yet. This is what makes branch-and-bound pruning safe to apply
   before a group is explored. *)
let static_lb m ~(tables : (string * string) list) ~(partition : int) : float =
  let scan_rows cnt f = Float.max 1.0 (float_of_int cnt *. f) in
  List.fold_left
    (fun acc (_, t) ->
      match Catalog.find_table m.cat t with
      | None -> acc
      | Some { def; placements } ->
        let cnt = def.Catalog.Table_def.row_count in
        let contribution =
          if partition >= 0 then
            (* single-partition subtree: only that partition's share *)
            match List.nth_opt placements partition with
            | Some pl -> scan_rows cnt pl.Catalog.fraction
            | None -> scan_rows cnt 1.0
          else
            (* partitioned tables read as the union of their partition
               scans; each partition scan is costed separately *)
            List.fold_left
              (fun s (pl : Catalog.placement) -> s +. scan_rows cnt pl.Catalog.fraction)
              0. placements
        in
        acc +. contribution)
    0. tables

(* The scan summary and unscaled estimate of [table] read as [alias]. *)
let scan_base m ~table ~alias =
  match Hashtbl.find_opt m.scans (table, alias) with
  | Some b -> b
  | None ->
    let est = Stats.scan_est m.cat ~table ~alias ~fraction:1.0 in
    let b = (Summary.scan ~table_cols:m.table_cols ~table ~alias, est) in
    Hashtbl.add m.scans (table, alias) b;
    b

(* A new group's summary with its environment, its base tables and its
   unscaled estimate, each from one step over its children's stored
   results. The steps are the ones that [Summary]'s analysis,
   [Plan.base_tables] and [Stats]' estimator fold over [repr], applied
   in the same order to the same arguments, so the results are theirs
   without walking [repr]. The operator's own arguments are read off
   [repr]'s root (canon sorts conjuncts, keys and aggregates, and float
   products follow that order); children are taken in [repr]'s order. *)
let derive m ~key (e : mexpr) (repr : Plan.t) =
  let in_repr_order gids =
    List.stable_sort (fun a b -> Plan.compare a.repr b.repr) (List.map (group m) gids)
  in
  let join p (sl, tl, bl) (c : group) =
    (Summary.join p sl (c.summary, c.env), tl @ c.tables, Stats.join p bl c.base)
  in
  match e, repr with
  | _, Plan.Scan { table; alias } ->
    (* a scan, or the union of a partitioned table's partition scans *)
    let analysis, base = scan_base m ~table ~alias in
    (analysis, [ (alias, table) ], base)
  | E_filter (_, i), Plan.Select (p, _) ->
    let c = group m i in
    (Summary.select p (c.summary, c.env), c.tables, Stats.select c.base p)
  | E_project (_, i), Plan.Project (items, _) ->
    let c = group m i in
    (Summary.project items (c.summary, c.env), c.tables, Stats.project c.base items)
  | E_agg (_, _, i), Plan.Aggregate { keys; aggs; _ } ->
    let c = group m i in
    ( Summary.aggregate ~keys ~aggs (c.summary, c.env),
      c.tables,
      Stats.aggregate ~keys ~aggs c.base )
  | E_union gs, Plan.Union _ ->
    let cs = in_repr_order gs in
    ( Summary.union (List.map (fun c -> (c.summary, c.env)) cs),
      List.concat_map (fun c -> c.tables) cs,
      Stats.union (List.map (fun c -> c.base) cs) )
  | E_join _, Plan.Join (p, _, _) -> (
    (* canon rebuilds a join left-deep over its leaves in repr order,
       with True on the inner joins and every conjunct at the top *)
    let leaves = match key with K_join (leaves, _) -> leaves | _ -> [] in
    match in_repr_order leaves with
    | first :: (_ :: _ as rest) ->
      let rec fold acc = function
        | [] -> acc
        | [ c ] -> join p acc c
        | c :: rest -> fold (join Pred.True acc c) rest
      in
      fold ((first.summary, first.env), first.tables, first.base) rest
    | [] | [ _ ] -> invalid_arg "Memo.derive: a join with fewer than two leaves")
  | (E_scan _ | E_filter _ | E_project _ | E_agg _ | E_union _ | E_join _), _ ->
    invalid_arg "Memo.derive: expression and canonical plan disagree"

let new_group m ~key ~repr ~partition (e : mexpr) : gid =
  let id = m.next_id in
  m.next_id <- id + 1;
  let (summary, env), tables, base = derive m ~key e repr in
  (* A partition-tagged group reads exactly one partition of one table:
     its subquery is local to that partition's site, so AR4 applies
     there and the estimate is scaled by the partition fraction. *)
  let partition_placement =
    if partition < 0 then None
    else
      match tables with
      | [ (_, t) ] -> List.nth_opt (Catalog.placements m.cat t) partition
      | _ -> None
  in
  let single_loc =
    match partition_placement with
    | Some pl -> Some pl.Catalog.location
    | None ->
      let locs =
        List.sort_uniq String.compare
          (List.concat_map
             (fun (_, t) ->
               List.map
                 (fun (p : Catalog.placement) -> p.location)
                 (Catalog.placements m.cat t))
             tables)
      in
      (match locs with [ l ] -> Some l | _ -> None)
  in
  let policy_ships =
    lazy
      (match m.mode with
      | Traditional -> Locset.empty
      | Compliant -> (
        match single_loc with
        | None -> Locset.empty
        | Some _ ->
          Policy.Evaluator.locations_for ?stats:m.eval_stats ~include_home:false
            ~catalog:m.cat ~policies:m.policies summary))
  in
  let est =
    match e, partition_placement with
    | E_scan { table; alias; fraction; _ }, _ -> Stats.scan_est m.cat ~table ~alias ~fraction
    | _, Some pl ->
      (* scale a single-partition wrapper by its fraction *)
      { base with Stats.rows = Float.max 1.0 (base.Stats.rows *. pl.Catalog.fraction) }
    | _, None -> base
  in
  let leaves, conjuncts = match key with K_join (l, c) -> (l, c) | _ -> ([ id ], []) in
  let g =
    { id; repr; exprs = [ e ]; explored = false; entries = None; est; base;
      attrs = Attr.Set.of_list (List.map fst est.Stats.cols); summary; env; tables;
      partition_tag = partition; single_loc; policy_ships;
      lb = static_lb m ~tables ~partition; leaves; conjuncts }
  in
  Hashtbl.replace m.arr id g;
  Key_tbl.replace m.by_key key id;
  Obs.Metrics.inc c_groups;
  Obs.Metrics.inc c_exprs;
  if Obs.Trace.enabled () then
    Obs.Trace.instant "memo.group"
      [
        ("gid", Obs.Json.Num (float_of_int id));
        ("repr", Obs.Json.Str (Plan.to_string repr));
        ("partition", Obs.Json.Num (float_of_int partition));
        ("est_rows", Obs.Json.Num est.Stats.rows);
      ];
  id

(* --- m-expr structural equality (children by gid) --- *)

let mexpr_equal (a : mexpr) (b : mexpr) =
  match a, b with
  | E_scan x, E_scan y ->
    String.equal x.table y.table && String.equal x.alias y.alias && x.partition = y.partition
  | E_filter (p1, g1), E_filter (p2, g2) -> g1 = g2 && Pred.equal p1 p2
  | E_project (i1, g1), E_project (i2, g2) ->
    g1 = g2
    && List.compare
         (fun (e1, n1) (e2, n2) ->
           let c = Expr.compare_scalar e1 e2 in
           if c <> 0 then c else Attr.compare n1 n2)
         i1 i2
       = 0
  | E_join (p1, l1, r1), E_join (p2, l2, r2) -> l1 = l2 && r1 = r2 && Pred.equal p1 p2
  | E_agg (k1, a1, g1), E_agg (k2, a2, g2) ->
    g1 = g2
    && List.compare Attr.compare k1 k2 = 0
    && List.compare
         (fun (x : Expr.agg) (y : Expr.agg) ->
           match Stdlib.compare x.fn y.fn with
           | 0 -> (
             match Expr.compare_scalar x.arg y.arg with
             | 0 -> String.compare x.alias y.alias
             | c -> c)
           | c -> c)
         a1 a2
       = 0
  | E_union g1, E_union g2 -> g1 = g2
  | (E_scan _ | E_filter _ | E_project _ | E_join _ | E_agg _ | E_union _), _ -> false

let add_expr (g : group) (e : mexpr) : bool =
  if List.exists (mexpr_equal e) g.exprs then false
  else begin
    g.exprs <- g.exprs @ [ e ];
    Obs.Metrics.inc c_exprs;
    true
  end

(* --- ingestion --- *)

let repr_of_expr m (e : mexpr) : Plan.t =
  let r id = (group m id).repr in
  match e with
  | E_scan { table; alias; _ } -> Plan.Scan { table; alias }
  | E_filter (p, i) -> Plan.Select (p, r i)
  | E_project (items, i) -> Plan.Project (items, r i)
  | E_join (p, l, r') -> Plan.Join (p, r l, r r')
  | E_agg (keys, aggs, i) -> Plan.Aggregate { keys; aggs; input = r i }
  | E_union gs -> Plan.Union (List.map r gs)

let conjunct_ids p =
  List.sort Int.compare (List.map (fun c -> snd (Pred.intern c)) (Pred.conjuncts p))

let key_of m (e : mexpr) : key =
  match e with
  | E_scan { table; alias; partition; _ } -> K_scan (table, alias, partition)
  | E_filter (p, i) -> K_filter (conjunct_ids p, i)
  | E_project (items, i) -> K_project (items, i)
  | E_agg (keys, aggs, i) ->
    K_agg
      ( List.sort Attr.compare keys,
        List.sort (fun (a : Expr.agg) (b : Expr.agg) -> String.compare a.alias b.alias) aggs,
        i )
  | E_union gs -> K_union (List.sort Int.compare gs)
  | E_join (p, l, r) ->
    let l = group m l and r = group m r in
    let conjuncts = List.merge Int.compare l.conjuncts r.conjuncts in
    K_join
      ( List.merge Int.compare l.leaves r.leaves,
        List.merge Int.compare (conjunct_ids p) conjuncts )

(* Find-or-create the group holding [e]; the expression is added to the
   group's expression list if not already present. Only a new group
   builds its canonical plan. *)
let rec group_of_expr m (e : mexpr) : gid =
  let key = key_of m e in
  match Key_tbl.find_opt m.by_key key with
  | Some id ->
    ignore (add_expr (group m id) e);
    id
  | None ->
    let repr = Normalize.canon (repr_of_expr m e) in
    let partition =
      match e with
      | E_scan s -> s.partition
      | E_filter (_, i) | E_project (_, i) | E_agg (_, _, i) -> (group m i).partition_tag
      | E_join _ | E_union _ -> -1
    in
    new_group m ~key ~repr ~partition e

and ingest m (plan : Plan.t) : gid =
  match plan with
  | Plan.Scan { table; alias } -> (
    match Catalog.placements m.cat table with
    | [ p ] ->
      group_of_expr m
        (E_scan { table; alias; partition = 0; location = p.location; fraction = 1.0 })
    | ps ->
      (* §7.5: a partitioned table reads as the union of its partition
         scans, one per location *)
      let part_gids =
        List.mapi
          (fun i (p : Catalog.placement) ->
            group_of_expr m
              (E_scan
                 { table; alias; partition = i; location = p.location; fraction = p.fraction }))
          ps
      in
      (* register the union group under the plain scan's key, partition
         -1, so joins referencing the table resolve to it *)
      let key = K_scan (table, alias, -1) in
      (match Key_tbl.find_opt m.by_key key with
      | Some id ->
        ignore (add_expr (group m id) (E_union part_gids));
        id
      | None -> new_group m ~key ~repr:plan ~partition:(-1) (E_union part_gids)))
  | Plan.Select (p, i) -> group_of_expr m (E_filter (p, ingest m i))
  | Plan.Project (items, i) -> group_of_expr m (E_project (items, ingest m i))
  | Plan.Join (p, l, r) -> group_of_expr m (E_join (p, ingest m l, ingest m r))
  | Plan.Aggregate { keys; aggs; input } -> group_of_expr m (E_agg (keys, aggs, ingest m input))
  | Plan.Union xs -> group_of_expr m (E_union (List.map (ingest m) xs))

(* --- transformation rules --- *)

let equi_pairs (p : Pred.t) ~(lset : Attr.Set.t) ~(rset : Attr.Set.t) :
    ((Attr.t * Attr.t) list * Pred.t list) option =
  let pairs, residual =
    List.fold_left
      (fun (pairs, residual) c ->
        match c with
        | Pred.Atom (Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b)) ->
          if Attr.Set.mem a lset && Attr.Set.mem b rset then ((a, b) :: pairs, residual)
          else if Attr.Set.mem b lset && Attr.Set.mem a rset then
            ((b, a) :: pairs, residual)
          else (pairs, c :: residual)
        | _ -> (pairs, c :: residual))
      ([], []) (Pred.conjuncts p)
  in
  if pairs = [] then None else Some (List.rev pairs, List.rev residual)

let reagg_fn = function
  | Expr.Sum -> Some Expr.Sum
  | Expr.Count -> Some Expr.Sum  (* a count re-aggregates by summing partial counts *)
  | Expr.Min -> Some Expr.Min
  | Expr.Max -> Some Expr.Max
  | Expr.Avg -> None

(* Eager aggregation (Yan-Larson style): G_{keys,aggs}(L join_p R) ->
   G_{keys,aggs'}(L join_p G_{(keys cap R) u joincols(R), partial}(R)).

   Sound when the left join columns contain a key of a single left base
   table (each partial group matches at most one left row, so partial
   results are never duplicated). Aggregates over R columns are pushed
   and re-aggregated above; aggregates over L columns stay on top, with
   SUMs scaled by the partial COUNT so duplicate sensitivity is
   preserved — this is what lets the Figure 1(b) plan push only the
   Supply aggregate below the join while keeping sum(totprice) exact. *)
let try_eager_agg m ~keys ~aggs ~pred ~gl ~gr : mexpr option =
  let lgroup = group m gl and rgroup = group m gr in
  let lset = lgroup.attrs and rset = rgroup.attrs in
  let qualified_cols e =
    Attr.Set.for_all (fun c -> Attr.is_qualified c) (Expr.cols e)
  in
  match equi_pairs pred ~lset ~rset with
  | None -> None
  | Some (pairs, residual) ->
    if residual <> [] then None
    else
      (* split the aggregates into pushable (over R) and kept (over L) *)
      let classify (a : Expr.agg) =
        let cols = Expr.cols a.arg in
        if Attr.Set.is_empty cols then
          (* COUNT over a constant counts join rows; rewrite to a sum of
             partial group counts *)
          Some (`Push_count a)
        else if Attr.Set.subset cols rset && qualified_cols a.arg then
          if reagg_fn a.fn <> None then Some (`Push a) else None
        else if Attr.Set.subset cols lset then
          match a.fn with
          | Expr.Sum -> Some (`Keep_scaled a)
          | Expr.Min | Expr.Max -> Some (`Keep a)
          | Expr.Count | Expr.Avg -> None
        else None
      in
      let classified = List.map classify aggs in
      if List.exists Option.is_none classified then None
      else
        let classified = List.filter_map Fun.id classified in
        let any_push =
          List.exists (function `Push _ -> true | _ -> false) classified
        in
        if not any_push then None
        else
          let lcols = List.map fst pairs in
          (* all left join columns on one alias, covering that table's key *)
          let laliases =
            List.sort_uniq String.compare (List.map (fun a -> a.Attr.rel) lcols)
          in
          match laliases with
          | [ alias ] -> (
            match List.assoc_opt alias lgroup.tables with
            | None -> None
            | Some table ->
              let def = Catalog.table_def m.cat table in
              let names = List.map (fun a -> a.Attr.name) lcols in
              if not (Catalog.Table_def.is_key def names) then None
              else begin
                let needs_count =
                  List.exists
                    (function `Keep_scaled _ | `Push_count _ -> true | _ -> false)
                    classified
                in
                let cnt_alias = "cnt__p" in
                let rkeys_from_group_keys =
                  List.filter (fun k -> Attr.Set.mem k rset) keys
                in
                let partial_keys =
                  List.sort_uniq Attr.compare (List.map snd pairs @ rkeys_from_group_keys)
                in
                let partial_aggs =
                  List.filter_map
                    (function
                      | `Push (a : Expr.agg) ->
                        Some { a with Expr.alias = a.alias ^ "__p" }
                      | `Push_count _ | `Keep_scaled _ | `Keep _ -> None)
                    classified
                  @
                  if needs_count then
                    [ { Expr.fn = Expr.Count; arg = Expr.Const (Value.Int 1);
                        alias = cnt_alias } ]
                  else []
                in
                let g_pa = group_of_expr m (E_agg (partial_keys, partial_aggs, gr)) in
                let g_join = group_of_expr m (E_join (pred, gl, g_pa)) in
                let cnt_col = Expr.Col (Attr.unqualified cnt_alias) in
                let top_aggs =
                  List.map
                    (function
                      | `Push (a : Expr.agg) ->
                        let fn =
                          match reagg_fn a.fn with Some fn -> fn | None -> assert false
                        in
                        { Expr.fn; arg = Expr.Col (Attr.unqualified (a.alias ^ "__p"));
                          alias = a.alias }
                      | `Push_count (a : Expr.agg) ->
                        { Expr.fn = Expr.Sum; arg = cnt_col; alias = a.alias }
                      | `Keep_scaled (a : Expr.agg) ->
                        { a with Expr.arg = Expr.Binop (Expr.Mul, a.arg, cnt_col) }
                      | `Keep (a : Expr.agg) -> a)
                    classified
                in
                Some (E_agg (keys, top_aggs, g_join))
              end)
          | _ -> None

let rec apply_rules m (_g : group) (e : mexpr) : mexpr list =
  match e with
  | E_join (p, gl, gr) ->
    let commuted = if m.rules.join_commute then [ E_join (p, gr, gl) ] else [] in
    (* associativity: (A ⋈ B) ⋈ C → A ⋈ (B ⋈ C) *)
    if m.rules.join_associate then explore m (group m gl);
    let assoc =
      if not m.rules.join_associate then []
      else
      List.filter_map
        (fun le ->
          match le with
          | E_join (p2, ga, gb) -> (
            let pool = Pred.conjuncts p @ Pred.conjuncts p2 in
            let bset = (group m gb).attrs and cset = (group m gr).attrs in
            let bc = Attr.Set.union bset cset in
            let p_br, p_top =
              List.partition (fun c -> Attr.Set.subset (Pred.cols c) bc) pool
            in
            match p_br with
            | [] -> None (* avoid introducing cartesian products *)
            | _ ->
              let g_bc = group_of_expr m (E_join (Pred.conj_all p_br, gb, gr)) in
              Some (E_join (Pred.conj_all p_top, ga, g_bc)))
          | E_scan _ | E_filter _ | E_project _ | E_agg _ | E_union _ -> None)
        (group m gl).exprs
    in
    Obs.Metrics.inc ~by:(List.length commuted) c_rule_commute;
    Obs.Metrics.inc ~by:(List.length assoc) c_rule_associate;
    commuted @ assoc
  | E_agg (keys, aggs, gi) ->
    (* The aggregate-past-join rewrite is the extra rule the paper's
       optimizer needs for completeness (§6.4, Fig. 5(e)); the
       traditional baseline — Calcite's default rule set "as-is" — does
       not apply it. *)
    if m.mode = Traditional || not m.rules.eager_aggregation then []
    else begin
      explore m (group m gi);
      let fired =
        List.filter_map
          (fun ie ->
            match ie with
            | E_join (p, gl, gr) -> try_eager_agg m ~keys ~aggs ~pred:p ~gl ~gr
            | E_scan _ | E_filter _ | E_project _ | E_agg _ | E_union _ -> None)
          (group m gi).exprs
      in
      Obs.Metrics.inc ~by:(List.length fired) c_rule_eager_agg;
      fired
    end
  | E_filter (p, gi) when m.rules.union_pushdown ->
    (* distribute a filter over a union of partition scans so each
       branch stays a single-partition (single-database) subquery that
       AR4 can evaluate *)
    explore m (group m gi);
    let fired =
      List.filter_map
        (fun ie ->
          match ie with
          | E_union branches ->
            Some (E_union (List.map (fun b -> group_of_expr m (E_filter (p, b))) branches))
          | E_scan _ | E_filter _ | E_project _ | E_join _ | E_agg _ -> None)
        (group m gi).exprs
    in
    Obs.Metrics.inc ~by:(List.length fired) c_rule_union_pushdown;
    fired
  | E_project (items, gi) when m.rules.union_pushdown ->
    explore m (group m gi);
    let fired =
      List.filter_map
        (fun ie ->
          match ie with
          | E_union branches ->
            Some
              (E_union (List.map (fun b -> group_of_expr m (E_project (items, b))) branches))
          | E_scan _ | E_filter _ | E_project _ | E_join _ | E_agg _ -> None)
        (group m gi).exprs
    in
    Obs.Metrics.inc ~by:(List.length fired) c_rule_union_pushdown;
    fired
  | E_scan _ | E_filter _ | E_project _ | E_union _ -> []

and explore m (g : group) : unit =
  if not g.explored then begin
    g.explored <- true;
    let queue = Queue.create () in
    List.iter (fun e -> Queue.add e queue) g.exprs;
    while not (Queue.is_empty queue) do
      let e = Queue.pop queue in
      List.iter
        (fun ne -> if add_expr g ne then Queue.add ne queue)
        (apply_rules m g e)
    done
  end

(* --- annotation & costing (phase 1) --- *)

let op_cost m (g : group) (e : mexpr) : float =
  let rows id = (group m id).est.Stats.rows in
  let out = g.est.Stats.rows in
  match e with
  | E_scan _ -> out
  | E_filter (_, i) -> rows i
  | E_project (_, i) -> rows i
  | E_join (p, l, r) ->
    let lr = rows l and rr = rows r in
    let lset = (group m l).attrs and rset = (group m r).attrs in
    (match equi_pairs p ~lset ~rset with
    | Some _ -> lr +. (2. *. rr) +. out (* hash join: build side costs double *)
    | None -> (lr *. rr) +. out (* nested loops *))
  | E_agg (_, _, i) -> rows i +. out
  | E_union gs -> List.fold_left (fun acc i -> acc +. rows i) 0. gs

let sort_cost rows = rows *. Float.log2 (Float.max 2. rows)

(* [order_covers a b]: an input ordered by [a] can serve any consumer
   that needs [b] (b is a prefix of a). *)
let rec order_covers (a : (Attr.t * bool) list) (b : (Attr.t * bool) list) =
  match a, b with
  | _, [] -> true
  | [], _ :: _ -> false
  | (x, dx) :: a', (y, dy) :: b' -> Attr.equal x y && dx = dy && order_covers a' b'

(* Sort order delivered by a clustered scan: the primary key,
   ascending. *)
let scan_order m ~table ~alias =
  let def = Catalog.table_def m.cat table in
  if def.Catalog.Table_def.clustered then
    List.map (fun k -> (Attr.make ~rel:alias ~name:k, false)) def.Catalog.Table_def.key
  else []

(* Order surviving a projection: prefix of the order whose columns are
   still present (as plain column items), renamed to their output
   attributes. *)
let project_order items order =
  let rec go = function
    | [] -> []
    | (a, desc) :: rest -> (
      match
        List.find_opt
          (fun (e, _) -> match e with Expr.Col c -> Attr.equal c a | _ -> false)
          items
      with
      | Some (_, n) -> (n, desc) :: go rest
      | None -> [])
  in
  go order

(* Most alternatives a group's frontier keeps. *)
let max_frontier = 8

(* Pareto frontier on (cost, ship_trait): an entry survives unless some
   other entry is no more expensive and ships at least as widely. *)
let pareto (entries : entry list) : entry list =
  let sorted = List.sort (fun a b -> Float.compare a.cost b.cost) entries in
  let kept =
    List.fold_left
      (fun kept e ->
        if
          List.exists
            (fun k ->
              k.cost <= e.cost
              && Locset.subset e.ship_trait k.ship_trait
              && order_covers k.order e.order)
            kept
        then kept
        else e :: kept)
      [] sorted
  in
  let kept = List.rev kept in
  if List.length kept <= max_frontier then kept
  else
    (* keep the cheapest alternatives, but never drop the widest 𝒮 *)
    let widest =
      List.fold_left
        (fun best e ->
          match best with
          | None -> Some e
          | Some b ->
            if Locset.cardinal e.ship_trait > Locset.cardinal b.ship_trait then Some e
            else best)
        None kept
    in
    let head = List.filteri (fun i _ -> i < max_frontier - 1) kept in
    match widest with
    | Some w when not (List.memq w head) -> head @ [ w ]
    | _ -> List.filteri (fun i _ -> i < max_frontier) kept

(* Execution trait of one scan: the sites holding a readable copy of
   the partition. Without an attached replica set this is the primary
   placement alone — the pre-replica behavior. With one, a replica is
   eligible iff its site is up, its copy is fresh (no scheduled
   [replica-lag]), its jurisdiction pin (if any) names its own site, and
   — compliance first — every policy verdict that certified the primary
   holds at the replica's site: the site must be in the group's AR4
   policy-ship set (the primary itself always qualifies). The cheapest
   eligible site then wins in the site selector's ordinary α+β·b DP; no
   replica-specific cost logic exists downstream. If filtering leaves
   nothing, we fall back to the primary so an attached catalog degrades
   exactly like an unattached one (same rejection and failover paths —
   the transparency contract, docs/REPLICA.md). *)
let scan_exec m (g : group) ~table ~partition ~location =
  match Catalog.replicas m.cat ~table ~partition with
  | [] -> Locset.singleton location
  | rs ->
    let net = Catalog.network m.cat in
    let faults = Catalog.Network.faults net in
    let eligible (r : Catalog.replica) =
      Catalog.Network.site_up net r.site
      && (not (Catalog.Network.Fault.replica_stale faults ~table ~site:r.site))
      && (match r.pin with None -> true | Some p -> String.equal p r.site)
      && (String.equal r.site location
         || m.mode = Traditional
         || Locset.mem r.site (Lazy.force g.policy_ships))
    in
    (match
       List.filter_map (fun r -> if eligible r then Some r.Catalog.site else None) rs
     with
    | [] -> Locset.singleton location
    | sites -> Locset.of_list sites)

let rec entries_of m (g : group) : entry list =
  match g.entries with
  | Some es -> es
  | None ->
    (* Branch-and-bound: a group whose static lower bound already
       exceeds the best known complete-plan cost cannot contribute to
       the final plan — skip its exploration and annotation outright. *)
    if (not m.naive) && m.prune && g.lb > m.bound then begin
      m.groups_pruned <- m.groups_pruned + 1;
      Obs.Metrics.inc c_pruned_group;
      if Obs.Trace.enabled () then
        Obs.Trace.instant "memo.prune"
          [
            ("kind", Obs.Json.Str "group");
            ("gid", Obs.Json.Num (float_of_int g.id));
            ("lb", Obs.Json.Num g.lb);
            ("bound", Obs.Json.Num m.bound);
          ];
      g.entries <- Some [];
      []
    end
    else begin
      if not m.naive then explore m g;
      (* guard against accidental cycles *)
      g.entries <- Some [];
      (* During bound seeding only the originally ingested expression
         is costed (no rule firing): a cheap complete plan whose cost
         upper-bounds the real optimum. *)
      let exprs = if m.naive then [ List.hd g.exprs ] else g.exprs in
      let candidates = List.concat_map (entry_candidates m g) exprs in
      let candidates =
        if (not m.naive) && m.prune && m.bound < Float.infinity then begin
          let n0 = List.length candidates in
          let kept = List.filter (fun e -> e.cost <= m.bound) candidates in
          let dropped = n0 - List.length kept in
          m.entries_pruned <- m.entries_pruned + dropped;
          Obs.Metrics.inc ~by:dropped c_pruned_entry;
          if dropped > 0 && Obs.Trace.enabled () then
            Obs.Trace.instant "memo.prune"
              [
                ("kind", Obs.Json.Str "entry");
                ("gid", Obs.Json.Num (float_of_int g.id));
                ("dropped", Obs.Json.Num (float_of_int dropped));
                ("bound", Obs.Json.Num m.bound);
              ];
          kept
        end
        else candidates
      in
      let result = pareto candidates in
      g.entries <- Some result;
      result
    end

and entry_candidates m (g : group) (e : mexpr) : entry list =
  let all = m.all_locs in
  let finish ?(phys = P_default) ~cost ~exec ~order ~sub () =
    match m.mode with
    | Traditional ->
      (* scans keep their replica-filtered site set; everything else may
         execute anywhere *)
      let exec' = match e with E_scan _ -> exec | _ -> all in
      [ { cost; exec_trait = exec'; ship_trait = all; order; phys; mex = e; sub } ]
    | Compliant ->
      if Locset.is_empty exec then [] (* compliance cost function: infinite *)
      else
        let ship = Locset.union exec (Lazy.force g.policy_ships) in
        [ { cost; exec_trait = exec; ship_trait = ship; order; phys; mex = e; sub } ]
  in
  let cost0 = op_cost m g e in
  match e with
  | E_scan { table; alias; partition; location; _ } ->
    finish ~cost:cost0
      ~exec:(scan_exec m g ~table ~partition ~location)
      ~order:(scan_order m ~table ~alias) ~sub:[] ()
  | E_filter (_, i) ->
    List.concat_map
      (fun ce ->
        finish ~cost:(cost0 +. ce.cost) ~exec:ce.ship_trait ~order:ce.order ~sub:[ ce ] ())
      (entries_of m (group m i))
  | E_project (items, i) ->
    List.concat_map
      (fun ce ->
        finish ~cost:(cost0 +. ce.cost) ~exec:ce.ship_trait
          ~order:(project_order items ce.order) ~sub:[ ce ] ())
      (entries_of m (group m i))
  | E_agg (_, _, i) ->
    (* hash aggregation destroys any input order *)
    List.concat_map
      (fun ce ->
        finish ~cost:(cost0 +. ce.cost) ~exec:ce.ship_trait ~order:[] ~sub:[ ce ] ())
      (entries_of m (group m i))
  | E_join (p, l, r) ->
    let les = entries_of m (group m l) and res = entries_of m (group m r) in
    let lset = (group m l).attrs and rset = (group m r).attrs in
    let lr = (group m l).est.Stats.rows and rr = (group m r).est.Stats.rows in
    let out = g.est.Stats.rows in
    let pairs = equi_pairs p ~lset ~rset in
    List.concat_map
      (fun le ->
        List.concat_map
          (fun re ->
            (* child costs alone already exceed the bound: every
               physical alternative of this combo is dead *)
            if m.prune && le.cost +. re.cost > m.bound then begin
              m.combos_pruned <- m.combos_pruned + 1;
              Obs.Metrics.inc c_pruned_combo;
              []
            end
            else
            let exec = Locset.inter le.ship_trait re.ship_trait in
            (* default physical join (hash when equi keys exist, nested
               loops otherwise); a hash join streams the probe (left)
               side, so its order survives *)
            let default =
              finish
                ~cost:(cost0 +. le.cost +. re.cost)
                ~exec
                ~order:(match pairs with Some _ -> le.order | None -> [])
                ~sub:[ le; re ] ()
            in
            (* merge join alternative, with sort enforcers where an
               input does not already deliver the key order *)
            let merge =
              match pairs with
              | Some (kps, _) when kps <> [] ->
                let lorder = List.map (fun (a, _) -> (a, false)) kps in
                let rorder = List.map (fun (_, b) -> (b, false)) kps in
                let sort_left = not (order_covers le.order lorder) in
                let sort_right = not (order_covers re.order rorder) in
                let cost =
                  le.cost +. re.cost +. lr +. rr +. out
                  +. (if sort_left then sort_cost lr else 0.)
                  +. if sort_right then sort_cost rr else 0.
                in
                finish ~phys:(P_merge { sort_left; sort_right }) ~cost ~exec
                  ~order:lorder ~sub:[ le; re ] ()
              | _ -> []
            in
            default @ merge)
          res)
        les
  | E_union gs ->
    (* keep the combination space small: up to 3 entries per input *)
    let per_child =
      List.map (fun i -> List.filteri (fun k _ -> k < 3) (entries_of m (group m i))) gs
    in
    let rec combos = function
      | [] -> [ [] ]
      | es :: rest ->
        let tails = combos rest in
        List.concat_map (fun e -> List.map (fun t -> e :: t) tails) es
    in
    List.concat_map
      (fun sub ->
        let exec =
          List.fold_left (fun acc (ce : entry) -> Locset.inter acc ce.ship_trait) all sub
        in
        let cost = List.fold_left (fun acc ce -> acc +. ce.cost) cost0 sub in
        finish ~cost ~exec ~order:[] ~sub ())
      (combos per_child)

(* --- phase-1 result: the annotated plan --- *)

type anode = {
  uid : int;
  shape : Exec.Pplan.node;
  children : anode list;
  exec : Locset.t;
  rows : float;
  width : float;
}

let rec pp_anode ?(indent = 0) ppf (n : anode) =
  Fmt.pf ppf "%s%s  E=%a (%.0f rows)@." (String.make indent ' ')
    (Exec.Pplan.node_label n.shape) Locset.pp n.exec n.rows;
  List.iter (pp_anode ~indent:(indent + 2) ppf) n.children

let extract ?(required_order = []) m (root_gid : gid) : (anode * float) option =
  let g = group m root_gid in
  (* pick the cheapest entry once the root's required sort order (the
     "desired physical properties" of the §6.2 optimization goal) is
     priced in: entries not delivering it pay a final sort *)
  let final_cost (e : entry) =
    e.cost
    +. if order_covers e.order required_order then 0. else sort_cost g.est.Stats.rows
  in
  (* Branch-and-bound, phase A: cost the plan as ingested (no rule
     firing) to obtain a complete compliant plan whose cost U bounds
     the optimum; phase B then skips groups, candidates and join
     combos that provably exceed U. When the naive plan is rejected,
     U stays infinite and phase B runs unpruned. *)
  if m.prune && m.bound = Float.infinity then begin
    m.naive <- true;
    (match entries_of m g with
    | [] -> ()
    | es ->
      m.bound <- List.fold_left (fun acc e -> Float.min acc (final_cost e)) Float.infinity es);
    m.naive <- false;
    if Obs.Trace.enabled () then
      Obs.Trace.instant "memo.bound_seeded" [ ("bound", Obs.Json.Num m.bound) ];
    (* forget the naive frontiers; phase B recomputes them in full *)
    Hashtbl.iter (fun _ gr -> gr.entries <- None) m.arr
  end;
  match entries_of m g with
  | [] -> None
  | es ->
    let best =
      List.fold_left
        (fun a b -> if final_cost b < final_cost a then b else a)
        (List.hd es) es
    in
    let uid = ref 0 in
    let fresh () =
      incr uid;
      !uid
    in
    let sorted_child keys (child : anode) : anode =
      { uid = fresh (); shape = Exec.Pplan.Sort keys; children = [ child ];
        exec = child.exec; rows = child.rows; width = child.width }
    in
    let rec build (gr : group) (e : entry) : anode =
      let id = fresh () in
      let child_groups =
        match e.mex with
        | E_scan _ -> []
        | E_filter (_, i) | E_project (_, i) | E_agg (_, _, i) -> [ i ]
        | E_join (_, l, r) -> [ l; r ]
        | E_union gs -> gs
      in
      let children = List.map2 (fun cg ce -> build (group m cg) ce) child_groups e.sub in
      let shape, children =
        match e.mex with
        | E_scan { table; alias; partition; _ } ->
          (Exec.Pplan.Table_scan { table; alias; partition }, children)
        | E_filter (p, _) -> (Exec.Pplan.Filter p, children)
        | E_project (items, _) -> (Exec.Pplan.Project items, children)
        | E_join (p, l, r) -> (
          let lset = (group m l).attrs and rset = (group m r).attrs in
          match equi_pairs p ~lset ~rset, e.phys with
          | Some (pairs, residual), P_merge { sort_left; sort_right } ->
            let lkeys = List.map (fun (a, _) -> (a, false)) pairs in
            let rkeys = List.map (fun (_, b) -> (b, false)) pairs in
            let children =
              match children with
              | [ lc; rc ] ->
                [ (if sort_left then sorted_child lkeys lc else lc);
                  (if sort_right then sorted_child rkeys rc else rc) ]
              | cs -> cs
            in
            ( Exec.Pplan.Merge_join { keys = pairs; residual = Pred.conj_all residual },
              children )
          | Some (pairs, residual), P_default ->
            ( Exec.Pplan.Hash_join { keys = pairs; residual = Pred.conj_all residual },
              children )
          | None, _ -> (Exec.Pplan.Nl_join p, children))
        | E_agg (keys, aggs, _) -> (Exec.Pplan.Hash_agg { keys; aggs }, children)
        | E_union _ -> (Exec.Pplan.Union_all, children)
      in
      { uid = id; shape; children; exec = e.exec_trait; rows = gr.est.Stats.rows;
        width = Stats.width_of gr.est }
    in
    let root = build g best in
    let root =
      if required_order = [] || order_covers best.order required_order then root
      else
        { uid = fresh (); shape = Exec.Pplan.Sort required_order; children = [ root ];
          exec = root.exec; rows = root.rows; width = root.width }
    in
    Some (root, final_cost best)
