(* Cardinality and width estimation for logical plans, driven by catalog
   statistics. Standard System-R style selectivities; the absolute
   numbers only matter relative to one another, exactly as in the
   paper's cost model (§6, "cost functions are based on input
   cardinalities"). *)

open Relalg

type col_info = { distinct : float; width : float; lo : float option; hi : float option }

type key = { key_cols : Attr.t list; key_rows : float }

type node_est = {
  rows : float;
  cols : (Attr.t * col_info) list;
  keys : key list;
}

let default_col = { distinct = 1000.; width = 8.; lo = None; hi = None }

let width_of est =
  List.fold_left (fun acc (_, c) -> acc +. c.width) 0. est.cols

let find_col est a =
  match List.find_opt (fun (b, _) -> Attr.equal a b) est.cols with
  | Some (_, c) -> c
  | None -> (
    (* fall back to a unique bare-name match (post-projection refs) *)
    match
      List.filter (fun ((b : Attr.t), _) -> String.equal a.Attr.name b.Attr.name) est.cols
    with
    | [ (_, c) ] -> c
    | _ -> default_col)

let numeric_of_value v = Value.to_float v

(* Selectivity of one atom. *)
let rec selectivity est (p : Pred.t) : float =
  match p with
  | Pred.True -> 1.0
  | Pred.False -> 0.0
  | Pred.And (l, r) -> selectivity est l *. selectivity est r
  | Pred.Or (l, r) ->
    let a = selectivity est l and b = selectivity est r in
    Float.min 1.0 (a +. b -. (a *. b))
  | Pred.Not q -> Float.max 0.0 (1.0 -. selectivity est q)
  | Pred.Atom atom -> atom_selectivity est atom

and atom_selectivity est = function
  | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) ->
    1.0 /. Float.max (find_col est a).distinct (find_col est b).distinct
  | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Const _)
  | Pred.Cmp (Pred.Eq, Expr.Const _, Expr.Col a) ->
    1.0 /. Float.max 1.0 (find_col est a).distinct
  | Pred.Cmp (Pred.Ne, _, _) -> 0.9
  | Pred.Cmp ((Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge) as c, Expr.Col a, Expr.Const v)
  | Pred.Cmp ((Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge) as c, Expr.Const v, Expr.Col a) -> (
    (* interpolate within [lo, hi] when known *)
    let info = find_col est a in
    match info.lo, info.hi, numeric_of_value v with
    | Some lo, Some hi, Some x when hi > lo ->
      let frac_below = Float.max 0.0 (Float.min 1.0 ((x -. lo) /. (hi -. lo))) in
      let s =
        match c with
        | Pred.Lt | Pred.Le -> frac_below
        | Pred.Gt | Pred.Ge -> 1.0 -. frac_below
        | Pred.Eq | Pred.Ne -> 0.3
      in
      Float.max 0.005 s
    | _ -> 0.33)
  | Pred.Cmp ((Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge), _, _) -> 0.33
  | Pred.Cmp (Pred.Eq, _, _) -> 0.05
  | Pred.Like (_, _) -> 0.15
  | Pred.In (Expr.Col a, vs) ->
    Float.min 1.0 (float_of_int (List.length vs) /. Float.max 1.0 (find_col est a).distinct)
  | Pred.In (_, vs) -> Float.min 1.0 (0.05 *. float_of_int (List.length vs))
  | Pred.Is_null _ -> 0.02
  | Pred.Not_null _ -> 0.98

(* Column info of a scalar expression. *)
let scalar_info est = function
  | Expr.Col a -> find_col est a
  | Expr.Const v ->
    { distinct = 1.; width = float_of_int (Value.byte_width v); lo = None; hi = None }
  | Expr.Binop (_, _, _) as e ->
    let cols = Attr.Set.elements (Expr.cols e) in
    let distinct =
      List.fold_left (fun acc a -> Float.max acc (find_col est a).distinct) 1. cols
    in
    { distinct; width = 8.; lo = None; hi = None }

let clamp_distinct rows c = { c with distinct = Float.min c.distinct rows }

(* --- one step per operator: [estimate] folds them over a plan; the
   memo applies one per new group to its child groups' stored
   (unscaled) estimates --- *)

let scan_est cat ~table ~alias ~fraction : node_est =
  let def = Catalog.table_def cat table in
  let table_rows = Float.max 1.0 (float_of_int def.Catalog.Table_def.row_count) in
  let rows = Float.max 1.0 (float_of_int def.Catalog.Table_def.row_count *. fraction) in
  let cols =
    List.map
      (fun (c : Catalog.Table_def.column) ->
        let s = c.stat in
        ( Attr.make ~rel:alias ~name:c.cname,
          clamp_distinct rows
            { distinct = float_of_int s.distinct; width = float_of_int s.width;
              lo = s.lo; hi = s.hi } ))
      def.Catalog.Table_def.columns
  in
  (* a partition's key values are some of the whole table's *)
  let keys =
    match def.Catalog.Table_def.key with
    | [] -> []
    | names ->
      [ { key_cols = List.map (fun name -> Attr.make ~rel:alias ~name) names;
          key_rows = table_rows } ]
  in
  { rows; cols; keys }

let select e p =
  let rows = Float.max 1.0 (e.rows *. selectivity e p) in
  { rows; cols = List.map (fun (a, c) -> (a, clamp_distinct rows c)) e.cols; keys = e.keys }

let project e items =
  (* a key survives when each of its columns is output as a bare
     column reference, under the item's name *)
  let renamed a =
    List.find_map
      (fun (ex, n) -> match ex with Expr.Col b when Attr.equal a b -> Some n | _ -> None)
      items
  in
  let keep k =
    let cols = List.filter_map renamed k.key_cols in
    if List.compare_lengths cols k.key_cols = 0 then Some { k with key_cols = cols } else None
  in
  { rows = e.rows;
    cols = List.map (fun (ex, n) -> (n, clamp_distinct e.rows (scalar_info e ex))) items;
    keys = List.filter_map keep e.keys }

(* Composite keys. Independence multiplies one [1/distinct] factor per
   equality, which is wrong when several equalities between two
   aliases cover a key of one of them (lineitem's [(partkey, suppkey)]
   against partsupp's key): each row of the other side then matches at
   most one key value, not a product of per-column chances. Such
   equalities are one predicate on the combined columns, whose
   distinct count on either side is [min(key_rows, product of the
   columns' distinct counts)] — a key's values number at most its
   [key_rows], and the other side's values are taken to be among them.
   Equalities are grouped by their exact alias pair, so equalities
   between different pairs are never merged; of a group, only those
   on a covered key's columns are merged, and only when there are two
   or more (a single equality is one predicate already). Returns each
   merged group's divisor and the conjuncts left: [([], p)] when
   nothing is merged. *)
let key_divisors cross p =
  let conjuncts = Pred.conjuncts p in
  (* [(c, x, y)]: conjunct [c] is [x = y], [x]'s alias before [y]'s *)
  let eqs =
    List.filter_map
      (fun c ->
        match c with
        | Pred.Atom (Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b)) ->
          let o = String.compare a.Attr.rel b.Attr.rel in
          if o < 0 then Some (c, a, b) else if o > 0 then Some (c, b, a) else None
        | _ -> None)
      conjuncts
  in
  let xs group = List.sort_uniq Attr.compare (List.map (fun (_, x, _) -> x) group)
  and ys group = List.sort_uniq Attr.compare (List.map (fun (_, _, y) -> y) group) in
  let mem a cols = List.exists (Attr.equal a) cols in
  let merge group =
    let covers cols k = List.for_all (fun a -> mem a cols) k.key_cols in
    let covered = List.filter (fun k -> covers (xs group) k || covers (ys group) k) cross.keys in
    let on_key (_, x, y) = List.exists (fun k -> mem x k.key_cols || mem y k.key_cols) covered in
    match List.filter on_key group with
    | _ :: _ :: _ as merged ->
      let key_rows = List.fold_left (fun acc k -> Float.max acc k.key_rows) 0. covered in
      let distinct cols =
        Float.min key_rows
          (List.fold_left (fun acc a -> acc *. (find_col cross a).distinct) 1. cols)
      in
      Some
        ( Float.max (distinct (xs merged)) (distinct (ys merged)),
          List.map (fun (c, _, _) -> c) merged )
    | _ -> None
  in
  let rels (_, (x : Attr.t), (y : Attr.t)) = (x.rel, y.rel) in
  let fired =
    List.filter_map
      (fun pair -> merge (List.filter (fun e -> rels e = pair) eqs))
      (List.sort_uniq compare (List.map rels eqs))
  in
  match List.concat_map snd fired with
  | [] -> ([], p)
  | merged ->
    let rest = List.filter (fun c -> not (List.memq c merged)) conjuncts in
    (List.map fst fired, Pred.conj_all rest)

let join p el er =
  let cross = { rows = el.rows *. er.rows; cols = el.cols @ er.cols; keys = el.keys @ er.keys } in
  let divisors, rest = key_divisors cross p in
  let rows =
    Float.max 1.0 (List.fold_left ( /. ) (cross.rows *. selectivity cross rest) divisors)
  in
  { rows; cols = List.map (fun (a, c) -> (a, clamp_distinct rows c)) cross.cols; keys = cross.keys }

let aggregate ~keys ~(aggs : Expr.agg list) e =
  let group_count =
    if keys = [] then 1.0
    else
      List.fold_left (fun acc k -> acc *. (find_col e k).distinct) 1.0 keys
      |> Float.min (e.rows /. 2.0)
      |> Float.max 1.0
  in
  let key_cols = List.map (fun k -> (k, clamp_distinct group_count (find_col e k))) keys in
  let agg_cols =
    List.map
      (fun (a : Expr.agg) ->
        (Attr.unqualified a.alias, { distinct = group_count; width = 8.; lo = None; hi = None }))
      aggs
  in
  { rows = group_count; cols = key_cols @ agg_cols;
    keys = (if keys = [] then [] else [ { key_cols = keys; key_rows = group_count } ]) }

let union es =
  let rows = List.fold_left (fun acc e -> acc +. e.rows) 0.0 es in
  let cols = match es with [] -> [] | e :: _ -> e.cols in
  { rows; cols = List.map (fun (a, c) -> (a, clamp_distinct rows c)) cols; keys = [] }

let rec estimate (cat : Catalog.t) (plan : Plan.t) : node_est =
  match plan with
  | Plan.Scan { table; alias } -> scan_est cat ~table ~alias ~fraction:1.0
  | Plan.Select (p, i) -> select (estimate cat i) p
  | Plan.Project (items, i) -> project (estimate cat i) items
  | Plan.Join (p, l, r) ->
    let el = estimate cat l in
    join p el (estimate cat r)
  | Plan.Aggregate { keys; aggs; input } -> aggregate ~keys ~aggs (estimate cat input)
  | Plan.Union xs -> union (List.map (estimate cat) xs)
