(* Optimizer tests: memo exploration, annotation traits, Theorem 1
   (the compliance-based optimizer never emits a non-compliant plan),
   the site-selector DP against brute force, and plan extraction. *)

open Relalg
module Locset = Catalog.Location.Set

let cat = Tpch.Schema.catalog ()
let cra = Tpch.Policies.catalog_of cat Tpch.Policies.CRA
let t_set = Tpch.Policies.catalog_of cat Tpch.Policies.T

let optimize ?(mode = Optimizer.Memo.Compliant) ~policies sql =
  Optimizer.Planner.optimize_sql ~mode ~cat ~policies sql

let planned = function
  | Optimizer.Planner.Planned p -> p
  | Optimizer.Planner.Rejected r -> Alcotest.failf "unexpectedly rejected: %s" r

(* --- basic end-to-end planning --- *)

let test_all_queries_compliant () =
  List.iter
    (fun set ->
      let policies = Tpch.Policies.catalog_of cat set in
      List.iter
        (fun (name, sql) ->
          let p = planned (optimize ~policies sql) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s compliant" (Tpch.Policies.set_name_to_string set) name)
            []
            (List.map
               (fun v -> Fmt.str "%a" Optimizer.Checker.pp_violation v)
               p.Optimizer.Planner.violations))
        Tpch.Queries.all)
    Tpch.Policies.all_sets

let test_traditional_q2_non_compliant () =
  let p = planned (optimize ~mode:Optimizer.Memo.Traditional ~policies:t_set Tpch.Queries.q2) in
  Alcotest.(check bool) "Q2 traditional violates" true
    (p.Optimizer.Planner.violations <> [])

let test_rejection () =
  (* no policies at all: a cross-border join is impossible *)
  let empty = Policy.Pcatalog.empty in
  match
    optimize ~policies:empty
      "SELECT c.name FROM customer c, lineitem l WHERE c.custkey = l.orderkey"
  with
  | Optimizer.Planner.Rejected _ -> ()
  | Optimizer.Planner.Planned _ -> Alcotest.fail "must reject without policies"

let test_single_site_needs_no_policy () =
  (* customer and orders are co-located at L1: legal with no policies *)
  let empty = Policy.Pcatalog.empty in
  let p =
    planned
      (optimize ~policies:empty
         "SELECT c.name, o.totalprice FROM customer c, orders o WHERE c.custkey = o.custkey")
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> Fmt.str "%a" Optimizer.Checker.pp_violation v)
       p.Optimizer.Planner.violations);
  (* every operator must run at L1 *)
  let rec locs (pl : Exec.Pplan.t) =
    pl.Exec.Pplan.loc :: List.concat_map locs pl.Exec.Pplan.children
  in
  Alcotest.(check (list string)) "all at L1" [ "L1" ]
    (List.sort_uniq String.compare (locs (planned (optimize ~policies:empty
      "SELECT c.name, o.totalprice FROM customer c, orders o WHERE c.custkey = o.custkey"))
      .Optimizer.Planner.plan))

let test_q3_pushes_aggregate_below_ship () =
  let p = planned (optimize ~policies:cra Tpch.Queries.q3) in
  (* find a HashAgg strictly below a Ship L4->L1 *)
  let rec has_agg_below_ship (pl : Exec.Pplan.t) =
    (match pl.Exec.Pplan.node with
    | Exec.Pplan.Ship { from_loc = "L4"; to_loc = "L1" } -> (
      match pl.Exec.Pplan.children with
      | [ { Exec.Pplan.node = Exec.Pplan.Hash_agg _; _ } ] -> true
      | _ -> false)
    | _ -> false)
    || List.exists has_agg_below_ship pl.Exec.Pplan.children
  in
  Alcotest.(check bool) "Fig 5(e) shape" true (has_agg_below_ship p.Optimizer.Planner.plan)

let test_traditional_does_not_push_aggregate () =
  let p = planned (optimize ~mode:Optimizer.Memo.Traditional ~policies:cra Tpch.Queries.q3) in
  let rec agg_count (pl : Exec.Pplan.t) =
    (match pl.Exec.Pplan.node with Exec.Pplan.Hash_agg _ -> 1 | _ -> 0)
    + List.fold_left (fun a c -> a + agg_count c) 0 pl.Exec.Pplan.children
  in
  Alcotest.(check int) "single aggregate (Fig 5(d))" 1 (agg_count p.Optimizer.Planner.plan)

let test_same_plan_when_traditional_compliant () =
  (* §7.4: identical plans whenever the cost-based plan is compliant and
     no compliant-only rules fire (Q5 under C involves no aggregates
     pushdown opportunity exploited differently) *)
  let c_set = Tpch.Policies.catalog_of cat Tpch.Policies.C in
  let t = planned (optimize ~mode:Optimizer.Memo.Traditional ~policies:c_set Tpch.Queries.q3) in
  let c = planned (optimize ~policies:c_set Tpch.Queries.q3) in
  Alcotest.(check bool) "traditional compliant" true (t.Optimizer.Planner.violations = []);
  Alcotest.(check (float 1e-6)) "same ship cost" t.Optimizer.Planner.ship_cost
    c.Optimizer.Planner.ship_cost

(* --- memo internals --- *)

let plan_of_sql ?(cat = cat) sql =
  let table_cols t =
    Option.map (fun e -> Catalog.Table_def.col_names e.Catalog.def) (Catalog.find_table cat t)
  in
  Optimizer.Normalize.normalize ~table_cols:(Catalog.table_cols cat)
    (Sqlfront.Binder.plan_of_sql ~table_cols sql)

let memo_create () = Optimizer.Memo.create ~mode:Optimizer.Memo.Compliant ~cat ~policies:cra ()

(* The first group reachable from [gid] (through first children) that
   holds an expression matching [is_kind]. *)
let rec find_group m is_kind gid =
  let g = Optimizer.Memo.group m gid in
  if List.exists is_kind g.Optimizer.Memo.exprs then gid
  else
    match g.Optimizer.Memo.exprs with
    | ( Optimizer.Memo.E_filter (_, i)
      | Optimizer.Memo.E_project (_, i)
      | Optimizer.Memo.E_agg (_, _, i)
      | Optimizer.Memo.E_join (_, i, _)
      | Optimizer.Memo.E_union (i :: _) )
      :: _ ->
      find_group m is_kind i
    | _ -> Alcotest.failf "no matching group below %d" gid

let is_join = function Optimizer.Memo.E_join _ -> true | _ -> false
let is_filter = function Optimizer.Memo.E_filter _ -> true | _ -> false

let test_memo_dedup () =
  let m = memo_create () in
  let ingest sql = Optimizer.Memo.ingest m (plan_of_sql sql) in
  let g1 = ingest "SELECT c.name FROM customer c, orders o WHERE c.custkey = o.custkey" in
  let n1 = Optimizer.Memo.group_count m in
  let g2 = ingest "SELECT c.name FROM orders o, customer c WHERE c.custkey = o.custkey" in
  Alcotest.(check int) "swapped FROM order: same group" g1 g2;
  Alcotest.(check int) "swapped FROM order: no new group" n1 (Optimizer.Memo.group_count m);
  (* the predicate's orientation is part of the join's identity *)
  let g3 = ingest "SELECT c.name FROM customer c, orders o WHERE o.custkey = c.custkey" in
  Alcotest.(check bool) "flipped = : different join group" true
    (find_group m is_join g1 <> find_group m is_join g3)

let test_memo_float_constants () =
  (* constants equal to four decimals, the precision floats print with,
     are still different predicates *)
  let m = memo_create () in
  let ingest sql = Optimizer.Memo.ingest m (plan_of_sql sql) in
  let g1 = ingest "SELECT l.orderkey FROM lineitem l WHERE l.discount < 0.050001" in
  let g2 = ingest "SELECT l.orderkey FROM lineitem l WHERE l.discount < 0.050002" in
  Alcotest.(check bool) "different groups" true (g1 <> g2);
  List.iter
    (fun g ->
      let f = Optimizer.Memo.group m (find_group m is_filter g) in
      Alcotest.(check int) "one filter expression" 1 (List.length f.Optimizer.Memo.exprs))
    [ g1; g2 ]

let test_exploration_grows_plan_space () =
  let count mode =
    let p = planned (optimize ~mode ~policies:cra Tpch.Queries.q5) in
    p.Optimizer.Planner.groups
  in
  let trad = count Optimizer.Memo.Traditional in
  let comp = count Optimizer.Memo.Compliant in
  (* the compliant optimizer explores at least as much (extra eager-agg
     alternatives), cf. §7.3's plan-space growth *)
  Alcotest.(check bool) "plan space grows" true (comp >= trad)

(* --- plan golden --- *)

(* Every extended TPC-H query under each policy set, in both modes: a
   digest of the placed plan, its phase-1 cost and the memo size, or
   REJECTED. A change to how the memo registers groups must leave each
   line as it is. *)
let plan_golden =
  [
    ("Q2/T/compliant", "219f94f362c0 54858277 57");
    ("Q2/T/traditional", "dead4adf6ba6 54858277 57");
    ("Q2/C/compliant", "219f94f362c0 54858277 57");
    ("Q2/C/traditional", "dead4adf6ba6 54858277 57");
    ("Q2/CR/compliant", "219f94f362c0 54858277 57");
    ("Q2/CR/traditional", "dead4adf6ba6 54858277 57");
    ("Q2/CR+A/compliant", "219f94f362c0 54858277 57");
    ("Q2/CR+A/traditional", "dead4adf6ba6 54858277 57");
    ("Q3/T/compliant", "ee51a782bcda 281957197 21");
    ("Q3/T/traditional", "ee51a782bcda 281957197 14");
    ("Q3/C/compliant", "ee51a782bcda 281957197 21");
    ("Q3/C/traditional", "ee51a782bcda 281957197 14");
    ("Q3/CR/compliant", "e8509d5aafd4 281957197 21");
    ("Q3/CR/traditional", "ee51a782bcda 281957197 14");
    ("Q3/CR+A/compliant", "d99616412221 310062388 21");
    ("Q3/CR+A/traditional", "ee51a782bcda 281957197 14");
    ("Q5/T/compliant", "ae34afe84e9f 268035547 130");
    ("Q5/T/traditional", "ae34afe84e9f 268035547 40");
    ("Q5/C/compliant", "ae34afe84e9f 268035547 130");
    ("Q5/C/traditional", "ae34afe84e9f 268035547 40");
    ("Q5/CR/compliant", "ae34afe84e9f 268035547 130");
    ("Q5/CR/traditional", "ae34afe84e9f 268035547 40");
    ("Q5/CR+A/compliant", "ae34afe84e9f 268035547 130");
    ("Q5/CR+A/traditional", "ae34afe84e9f 268035547 40");
    ("Q8/T/compliant", "8c05e0b24d4b 243685291 388");
    ("Q8/T/traditional", "0c31f4d4d928 243883550 59");
    ("Q8/C/compliant", "8c05e0b24d4b 243685291 388");
    ("Q8/C/traditional", "0c31f4d4d928 243883550 59");
    ("Q8/CR/compliant", "8c05e0b24d4b 243685291 388");
    ("Q8/CR/traditional", "0c31f4d4d928 243883550 59");
    ("Q8/CR+A/compliant", "716117a723f2 243685291 388");
    ("Q8/CR+A/traditional", "0c31f4d4d928 243883550 59");
    ("Q9/T/compliant", "eaa6e33e947c 318400250 88");
    ("Q9/T/traditional", "a08310411c5a 336200150 41");
    ("Q9/C/compliant", "eaa6e33e947c 318400250 88");
    ("Q9/C/traditional", "a08310411c5a 336200150 41");
    ("Q9/CR/compliant", "eaa6e33e947c 318400250 88");
    ("Q9/CR/traditional", "a08310411c5a 336200150 41");
    ("Q9/CR+A/compliant", "7919fd007ddc 318400250 88");
    ("Q9/CR+A/traditional", "a08310411c5a 336200150 41");
    ("Q10/T/compliant", "fbc6280476e9 276739473 34");
    ("Q10/T/traditional", "d4229564b2a9 277435222 18");
    ("Q10/C/compliant", "fbc6280476e9 276739473 34");
    ("Q10/C/traditional", "d4229564b2a9 277435222 18");
    ("Q10/CR/compliant", "9a15c2a426bf 276739473 34");
    ("Q10/CR/traditional", "d4229564b2a9 277435222 18");
    ("Q10/CR+A/compliant", "d9655729c953 297855431 34");
    ("Q10/CR+A/traditional", "d4229564b2a9 277435222 18");
    ("Q1/T/compliant", "94ce28e745c9 237861398 5");
    ("Q1/T/traditional", "94ce28e745c9 237861398 5");
    ("Q1/C/compliant", "94ce28e745c9 237861398 5");
    ("Q1/C/traditional", "94ce28e745c9 237861398 5");
    ("Q1/CR/compliant", "94ce28e745c9 237861398 5");
    ("Q1/CR/traditional", "94ce28e745c9 237861398 5");
    ("Q1/CR+A/compliant", "94ce28e745c9 237861398 5");
    ("Q1/CR+A/traditional", "94ce28e745c9 237861398 5");
    ("Q6/T/compliant", "a965178cba76 183038835 5");
    ("Q6/T/traditional", "a965178cba76 183038835 5");
    ("Q6/C/compliant", "a965178cba76 183038835 5");
    ("Q6/C/traditional", "a965178cba76 183038835 5");
    ("Q6/CR/compliant", "a965178cba76 183038835 5");
    ("Q6/CR/traditional", "a965178cba76 183038835 5");
    ("Q6/CR+A/compliant", "a965178cba76 183038835 5");
    ("Q6/CR+A/traditional", "a965178cba76 183038835 5");
    ("Q7/T/compliant", "85e6e14397aa 261303224 90");
    ("Q7/T/traditional", "85e6e14397aa 261303224 40");
    ("Q7/C/compliant", "85e6e14397aa 261303224 90");
    ("Q7/C/traditional", "85e6e14397aa 261303224 40");
    ("Q7/CR/compliant", "85e6e14397aa 261303224 90");
    ("Q7/CR/traditional", "85e6e14397aa 261303224 40");
    ("Q7/CR+A/compliant", "85e6e14397aa 261303224 90");
    ("Q7/CR+A/traditional", "85e6e14397aa 261303224 40");
    ("Q11/T/compliant", "ba543df7d88f 25272077 19");
    ("Q11/T/traditional", "ba543df7d88f 25272077 12");
    ("Q11/C/compliant", "ba543df7d88f 25272077 19");
    ("Q11/C/traditional", "ba543df7d88f 25272077 12");
    ("Q11/CR/compliant", "ba543df7d88f 25272077 19");
    ("Q11/CR/traditional", "ba543df7d88f 25272077 12");
    ("Q11/CR+A/compliant", "ba543df7d88f 25272077 19");
    ("Q11/CR+A/traditional", "ba543df7d88f 25272077 12");
    ("Q12/T/compliant", "eb5649e8cd06 226714251 8");
    ("Q12/T/traditional", "eb5649e8cd06 226714251 8");
    ("Q12/C/compliant", "63b056ffacbc 226714251 8");
    ("Q12/C/traditional", "eb5649e8cd06 226714251 8");
    ("Q12/CR/compliant", "63b056ffacbc 226714251 8");
    ("Q12/CR/traditional", "eb5649e8cd06 226714251 8");
    ("Q12/CR+A/compliant", "63b056ffacbc 226714251 8");
    ("Q12/CR+A/traditional", "eb5649e8cd06 226714251 8");
    ("Q19/T/compliant", "99d8ae6a7fdd 188854300 7");
    ("Q19/T/traditional", "99d8ae6a7fdd 188854300 7");
    ("Q19/C/compliant", "99d8ae6a7fdd 188854300 7");
    ("Q19/C/traditional", "99d8ae6a7fdd 188854300 7");
    ("Q19/CR/compliant", "99d8ae6a7fdd 188854300 7");
    ("Q19/CR/traditional", "99d8ae6a7fdd 188854300 7");
    ("Q19/CR+A/compliant", "99d8ae6a7fdd 188854300 7");
    ("Q19/CR+A/traditional", "99d8ae6a7fdd 188854300 7");
  ]

let test_plan_golden () =
  let lookup = Hashtbl.create 128 in
  List.iter (fun (label, v) -> Hashtbl.replace lookup label v) plan_golden;
  List.iter
    (fun (name, sql) ->
      List.iter
        (fun set ->
          let policies = Tpch.Policies.catalog_of cat set in
          List.iter
            (fun (mname, mode) ->
              let label =
                Printf.sprintf "%s/%s/%s" name (Tpch.Policies.set_name_to_string set) mname
              in
              let actual =
                match optimize ~mode ~policies sql with
                | Optimizer.Planner.Rejected _ -> "REJECTED"
                | Optimizer.Planner.Planned p ->
                  Printf.sprintf "%s %.0f %d"
                    (String.sub
                       (Digest.to_hex (Digest.string (Exec.Pplan.to_string p.plan)))
                       0 12)
                    p.phase1_cost p.groups
              in
              Alcotest.(check (option string)) label (Hashtbl.find_opt lookup label)
                (Some actual))
            [ ("compliant", Optimizer.Memo.Compliant);
              ("traditional", Optimizer.Memo.Traditional) ])
        Tpch.Policies.all_sets)
    Tpch.Queries.all_extended

(* --- group identity against the printed canonical plan --- *)

(* The key groups were once registered under: the partition tag and the
   printed canonical plan. Kept here only as an oracle. *)
let printed_key partition repr = Printf.sprintf "%d|%s" partition (Plan.to_string repr)

(* The canonical form and partition tag of one m-expression, rebuilt
   from its child groups' representatives. *)
let printed_key_of_expr m (e : Optimizer.Memo.mexpr) =
  let g id = Optimizer.Memo.group m id in
  let r id = (g id).Optimizer.Memo.repr in
  let plan, partition =
    match e with
    | Optimizer.Memo.E_scan { table; alias; partition; _ } ->
      (Plan.Scan { table; alias }, partition)
    | Optimizer.Memo.E_filter (p, i) -> (Plan.Select (p, r i), (g i).partition_tag)
    | Optimizer.Memo.E_project (items, i) -> (Plan.Project (items, r i), (g i).partition_tag)
    | Optimizer.Memo.E_agg (keys, aggs, i) ->
      (Plan.Aggregate { keys; aggs; input = r i }, (g i).partition_tag)
    | Optimizer.Memo.E_join (p, l, r') -> (Plan.Join (p, r l, r r'), -1)
    | Optimizer.Memo.E_union gs -> (Plan.Union (List.map r gs), -1)
  in
  printed_key partition (Optimizer.Normalize.canon plan)

(* Expressions that rules add to a group without a lookup, and whose
   canonical form differs from the group's: a union of partitions (a
   partitioned scan, or a filter or projection distributed over one)
   and eager aggregation's re-aggregation over partial results (its
   arguments read the [__p] columns of the partial aggregate). *)
let rewritten (g : Optimizer.Memo.group) (e : Optimizer.Memo.mexpr) =
  match e, g.repr with
  | Optimizer.Memo.E_union _, Plan.Union _ -> false
  | Optimizer.Memo.E_union _, _ -> true
  | Optimizer.Memo.E_agg (_, aggs, _), _ ->
    List.exists
      (fun (a : Expr.agg) ->
        Attr.Set.exists (fun c -> String.ends_with ~suffix:"__p" c.Attr.name) (Expr.cols a.arg))
      aggs
  | _ -> false

let adhoc_cat =
  Tpch.Schema.catalog ~partition_tables:[ "customer"; "orders" ] ~partition_count:3 ()

let adhoc_cra = Tpch.Policies.catalog_of adhoc_cat Tpch.Policies.CRA

let groups_match_printed_keys ~cat ~policies sql =
  let m =
    Optimizer.Memo.create ~prune:false ~mode:Optimizer.Memo.Compliant ~cat ~policies ()
  in
  ignore (Optimizer.Memo.extract m (Optimizer.Memo.ingest m (plan_of_sql ~cat sql)));
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun gid ->
      let g = Optimizer.Memo.group m gid in
      let key = printed_key g.partition_tag g.repr in
      let fresh = not (Hashtbl.mem seen key) in
      Hashtbl.replace seen key ();
      fresh
      && List.for_all
           (fun e -> rewritten g e || String.equal (printed_key_of_expr m e) key)
           g.exprs)
    (List.init (Optimizer.Memo.group_count m) Fun.id)

let prop_group_identity =
  QCheck.Test.make ~name:"memo groups are the printed canonical plans' classes" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      List.for_all
        (fun sql ->
          groups_match_printed_keys ~cat ~policies:cra sql
          && groups_match_printed_keys ~cat:adhoc_cat ~policies:adhoc_cra sql)
        (Tpch.Workload.gen_queries ~seed ~n:2 ()))

(* --- derived summaries and estimates against the walked ones --- *)

(* A group derives its summary and estimate from its child groups'
   stored results. The oracle walks the group's canonical plan, as
   groups once did: [Summary.analyze] and [Stats.estimate], the latter
   scaled by the partition fraction for a partition-tagged group, or a
   partition scan's own estimate. Floats must agree bit for bit. *)
let walked_est ~cat (g : Optimizer.Memo.group) =
  match g.exprs with
  | Optimizer.Memo.E_scan { table; alias; fraction; _ } :: _ ->
    Optimizer.Stats.scan_est cat ~table ~alias ~fraction
  | _ ->
    let base = Optimizer.Stats.estimate cat g.repr in
    let frac =
      match Plan.base_tables g.repr with
      | [ (_, t) ] when g.partition_tag >= 0 -> (
        match List.nth_opt (Catalog.placements cat t) g.partition_tag with
        | Some pl -> pl.Catalog.fraction
        | None -> 1.0)
      | _ -> 1.0
    in
    if g.partition_tag < 0 then base
    else { base with rows = Float.max 1.0 (base.rows *. frac) }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_est (a : Optimizer.Stats.node_est) (b : Optimizer.Stats.node_est) =
  same_bits a.rows b.rows
  && List.equal
       (fun (x, (c : Optimizer.Stats.col_info)) (y, (d : Optimizer.Stats.col_info)) ->
         Attr.equal x y && same_bits c.distinct d.distinct && same_bits c.width d.width
         && Option.equal same_bits c.lo d.lo && Option.equal same_bits c.hi d.hi)
       a.cols b.cols
  && List.equal
       (fun (k : Optimizer.Stats.key) (l : Optimizer.Stats.key) ->
         List.equal Attr.equal k.key_cols l.key_cols && same_bits k.key_rows l.key_rows)
       a.keys b.keys

(* groups checked that scale a partition's share, and union groups *)
let scaled_groups = ref 0
let union_groups = ref 0

let check_derived ~label ~mode ~cat ~policies sql =
  let m = Optimizer.Memo.create ~mode ~cat ~policies () in
  ignore (Optimizer.Memo.extract m (Optimizer.Memo.ingest m (plan_of_sql ~cat sql)));
  let table_cols = Catalog.table_cols cat in
  for gid = 0 to Optimizer.Memo.group_count m - 1 do
    let g = Optimizer.Memo.group m gid in
    (match g.exprs with
    | Optimizer.Memo.E_union _ :: _ -> incr union_groups
    | Optimizer.Memo.E_scan _ :: _ -> ()
    | _ -> if not (same_bits g.est.rows g.base.rows) then incr scaled_groups);
    if g.summary <> Summary.analyze ~table_cols g.repr then
      Alcotest.failf "%s: group %d's summary differs from the walked one" label gid;
    if not (same_est g.est (walked_est ~cat g)) then
      Alcotest.failf "%s: group %d's estimate differs from the walked one" label gid;
    if g.tables <> Plan.base_tables g.repr then
      Alcotest.failf "%s: group %d's base tables differ from the walked ones" label gid
  done

let test_derived_matches_walked () =
  List.iter
    (fun (name, sql) ->
      List.iter
        (fun set ->
          let policies = Tpch.Policies.catalog_of cat set in
          List.iter
            (fun (mname, mode) ->
              let label =
                Printf.sprintf "%s/%s/%s" name (Tpch.Policies.set_name_to_string set) mname
              in
              check_derived ~label ~mode ~cat ~policies sql)
            [ ("compliant", Optimizer.Memo.Compliant);
              ("traditional", Optimizer.Memo.Traditional) ])
        Tpch.Policies.all_sets)
    Tpch.Queries.all_extended;
  (* partition scans, partition-tagged wrappers and union groups *)
  List.iteri
    (fun i sql ->
      check_derived ~label:(Printf.sprintf "adhoc %d" i) ~mode:Optimizer.Memo.Compliant
        ~cat:adhoc_cat ~policies:adhoc_cra sql)
    (Tpch.Workload.gen_queries ~seed:2027 ~n:200 ());
  Alcotest.(check bool) "partition-tagged wrappers checked" true (!scaled_groups > 0);
  Alcotest.(check bool) "union groups checked" true (!union_groups > 0)

(* --- Theorem 1 as a property --- *)

let prop_theorem_1 =
  QCheck.Test.make ~name:"theorem 1: compliant optimizer never emits violations" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Storage.Prng.create ~seed in
      let sql = List.hd (Tpch.Workload.gen_queries ~seed ~n:1 ()) in
      (* random, possibly very restrictive policy set: no backbone *)
      let n_expr = 2 + Storage.Prng.int g 10 in
      let template = Storage.Prng.pick g Tpch.Policies.all_sets in
      let texts =
        Tpch.Workload.gen_expressions ~seed:(seed + 1) ~template ~n:n_expr ()
        (* drop some backbone expressions to provoke rejections *)
        |> List.filteri (fun i _ -> i mod 3 <> 0)
      in
      let policies = Policy.Pcatalog.of_texts cat texts in
      match optimize ~policies sql with
      | Optimizer.Planner.Planned p -> p.Optimizer.Planner.violations = []
      | Optimizer.Planner.Rejected _ -> true (* rejecting is always sound *))

(* --- site selector: DP equals brute force --- *)

let gen_anode seed =
  let g = Storage.Prng.create ~seed in
  let locations = [ "L1"; "L2"; "L3"; "L4"; "L5" ] in
  let uid = ref 0 in
  let rec build depth =
    incr uid;
    let my_uid = !uid in
    let exec =
      Locset.of_list (Storage.Prng.pick_k g (1 + Storage.Prng.int g 3) locations)
    in
    let children =
      if depth = 0 then []
      else List.init (1 + Storage.Prng.int g 2) (fun _ -> build (depth - 1))
    in
    let exec = if children = [] then Locset.singleton (Storage.Prng.pick g locations) else exec in
    {
      Optimizer.Memo.uid = my_uid;
      shape = Exec.Pplan.Union_all;
      children;
      exec;
      rows = float_of_int (1 + Storage.Prng.int g 1000);
      width = float_of_int (8 + Storage.Prng.int g 64);
    }
  in
  build (1 + Storage.Prng.int g 2)

let prop_site_selector_optimal =
  QCheck.Test.make ~name:"site-selector DP matches brute force" ~count:120
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let network = Catalog.network cat in
      let anode = gen_anode seed in
      let dp = Optimizer.Site_selector.select ~network anode in
      let bf = Optimizer.Site_selector.brute_force ~network anode in
      match dp, bf with
      | Some { cost; _ }, Some expect -> Float.abs (cost -. expect) < 1e-6
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let test_response_time_objective () =
  (* the critical-path objective never exceeds the total-cost value of
     its own plan, and still yields a compliant placement *)
  let total = planned (optimize ~policies:cra Tpch.Queries.q5) in
  let resp =
    match
      Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Compliant
        ~objective:`Response_time ~cat ~policies:cra Tpch.Queries.q5
    with
    | Optimizer.Planner.Planned p -> p
    | Optimizer.Planner.Rejected r -> Alcotest.failf "rejected: %s" r
  in
  Alcotest.(check bool) "critical path <= total" true
    (resp.Optimizer.Planner.ship_cost <= total.Optimizer.Planner.ship_cost +. 1e-6);
  Alcotest.(check (list string)) "still compliant" []
    (List.map (fun v -> Fmt.str "%a" Optimizer.Checker.pp_violation v)
       resp.Optimizer.Planner.violations)

let rec plan_has pred (pl : Exec.Pplan.t) =
  pred pl.Exec.Pplan.node || List.exists (plan_has pred) pl.Exec.Pplan.children

let test_merge_join_on_clustered_keys () =
  (* partsupp and part are both clustered on partkey: a sort-free merge
     join beats the hash join under the cost model *)
  let p =
    planned
      (optimize ~policies:t_set
         "SELECT ps.partkey, p.retailprice FROM partsupp ps, part p \
          WHERE ps.partkey = p.partkey")
  in
  Alcotest.(check bool) "merge join chosen" true
    (plan_has
       (function Exec.Pplan.Merge_join _ -> true | _ -> false)
       p.Optimizer.Planner.plan);
  Alcotest.(check bool) "no sorts needed" false
    (plan_has (function Exec.Pplan.Sort _ -> true | _ -> false) p.Optimizer.Planner.plan)

let test_order_by_enforcer () =
  (* an ORDER BY satisfied by the plan's natural order adds no Sort; an
     unsatisfied one adds exactly one root enforcer *)
  let satisfied =
    planned
      (Optimizer.Planner.optimize_sql ~cat ~policies:t_set
         ~required_order:[ (Attr.make ~rel:"ps" ~name:"partkey", false) ]
         "SELECT ps.partkey, p.retailprice FROM partsupp ps, part p \
          WHERE ps.partkey = p.partkey")
  in
  Alcotest.(check bool) "no sort when satisfied" false
    (plan_has
       (function Exec.Pplan.Sort _ -> true | _ -> false)
       satisfied.Optimizer.Planner.plan);
  let unsatisfied =
    planned
      (Optimizer.Planner.optimize_sql ~cat ~policies:t_set
         ~required_order:[ (Attr.make ~rel:"p" ~name:"retailprice", true) ]
         "SELECT ps.partkey, p.retailprice FROM partsupp ps, part p \
          WHERE ps.partkey = p.partkey")
  in
  Alcotest.(check bool) "sort added" true
    (plan_has
       (function Exec.Pplan.Sort _ -> true | _ -> false)
       unsatisfied.Optimizer.Planner.plan)

(* --- checker --- *)

let test_checker_flags_bad_ship () =
  (* hand-build a plan shipping raw lineitem pricing data to L1 under CR+A *)
  let mk ?(loc = "L4") node children =
    { Exec.Pplan.node; loc; children; est = { Exec.Pplan.est_rows = 1.; est_width = 8. } }
  in
  let scan =
    mk (Exec.Pplan.Table_scan { table = "lineitem"; alias = "l"; partition = 0 }) []
  in
  let project =
    mk
      (Exec.Pplan.Project
         [ (Expr.Col (Attr.make ~rel:"l" ~name:"extendedprice"),
            Attr.make ~rel:"l" ~name:"extendedprice") ])
      [ scan ]
  in
  let shipped =
    mk ~loc:"L1" (Exec.Pplan.Ship { from_loc = "L4"; to_loc = "L1" }) [ project ]
  in
  let violations = Optimizer.Checker.certify ~cat ~policies:cra shipped in
  Alcotest.(check int) "one violation" 1 (List.length violations);
  (* the same ship to L5 is fine *)
  let ok = mk ~loc:"L5" (Exec.Pplan.Ship { from_loc = "L4"; to_loc = "L5" }) [ project ] in
  Alcotest.(check int) "no violation to L5" 0
    (List.length (Optimizer.Checker.certify ~cat ~policies:cra ok))

let test_stats_sanity () =
  let est = Optimizer.Stats.estimate cat (Plan.Scan { table = "lineitem"; alias = "l" }) in
  Alcotest.(check bool) "row count" true (est.Optimizer.Stats.rows > 1e6);
  let filtered =
    Optimizer.Stats.estimate cat
      (Plan.Select
         ( Pred.Atom
             (Pred.Cmp
                ( Pred.Eq,
                  Expr.Col (Attr.make ~rel:"l" ~name:"orderkey"),
                  Expr.Const (Value.Int 5) )),
           Plan.Scan { table = "lineitem"; alias = "l" } ))
  in
  Alcotest.(check bool) "selection reduces" true
    (filtered.Optimizer.Stats.rows < est.Optimizer.Stats.rows);
  let agg =
    Optimizer.Stats.estimate cat
      (Plan.Aggregate
         {
           keys = [ Attr.make ~rel:"l" ~name:"returnflag" ];
           aggs = [];
           input = Plan.Scan { table = "lineitem"; alias = "l" };
         })
  in
  Alcotest.(check bool) "few groups" true (agg.Optimizer.Stats.rows <= 3.5)

(* --- unique keys and composite-key joins --- *)

let col rel name = Attr.make ~rel ~name
let scan table alias = Plan.Scan { table; alias }
let eq a b = Pred.Atom (Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b))

let key_names (e : Optimizer.Stats.node_est) =
  List.map
    (fun (k : Optimizer.Stats.key) -> String.concat "," (List.map Attr.to_string k.key_cols))
    e.keys

let test_key_derivation () =
  let est = Optimizer.Stats.estimate cat in
  let ps = est (scan "partsupp" "ps") in
  Alcotest.(check (list string)) "scan: catalog key" [ "ps.partkey,ps.suppkey" ] (key_names ps);
  Alcotest.(check (float 0.)) "scan: key rows are the table's" ps.rows
    (List.hd ps.keys).Optimizer.Stats.key_rows;
  let cols names = List.map (fun n -> (Expr.Col (col "ps" n), col "ps" n)) names in
  Alcotest.(check (list string)) "projection keeping the key columns"
    [ "ps.partkey,ps.suppkey" ]
    (key_names (est (Plan.Project (cols [ "suppkey"; "supplycost"; "partkey" ], scan "partsupp" "ps"))));
  Alcotest.(check (list string)) "projection renaming a key column" [ "ps.partkey,x.s" ]
    (key_names
       (est
          (Plan.Project
             ( (Expr.Col (col "ps" "suppkey"), col "x" "s") :: cols [ "partkey" ],
               scan "partsupp" "ps" ))));
  Alcotest.(check (list string)) "projection dropping ps.suppkey" []
    (key_names (est (Plan.Project (cols [ "partkey"; "supplycost" ], scan "partsupp" "ps"))));
  let cheap =
    Pred.Atom
      (Pred.Cmp (Pred.Lt, Expr.Col (col "ps" "supplycost"), Expr.Const (Value.Float 100.)))
  in
  let filtered = est (Plan.Select (cheap, scan "partsupp" "ps")) in
  Alcotest.(check (list string)) "filter" [ "ps.partkey,ps.suppkey" ] (key_names filtered);
  Alcotest.(check (float 0.)) "filter: key rows stay the table's" ps.rows
    (List.hd filtered.keys).Optimizer.Stats.key_rows;
  let oc =
    est (Plan.Join (eq (col "o" "custkey") (col "c" "custkey"), scan "orders" "o", scan "customer" "c"))
  in
  Alcotest.(check bool) "join on custkey keeps orders' key" true
    (List.mem "o.orderkey" (key_names oc));
  let agg =
    est
      (Plan.Aggregate
         { keys = [ col "l" "returnflag"; col "l" "linestatus" ]; aggs = [];
           input = scan "lineitem" "l" })
  in
  Alcotest.(check (list string)) "aggregate: its group keys" [ "l.returnflag,l.linestatus" ]
    (key_names agg);
  Alcotest.(check (float 0.)) "aggregate: key rows are the groups" agg.rows
    (List.hd agg.keys).Optimizer.Stats.key_rows;
  Alcotest.(check (list string)) "union keeps no key" []
    (key_names (est (Plan.Union [ scan "partsupp" "ps"; scan "partsupp" "ps" ])))

let test_composite_key_join () =
  let est = Optimizer.Stats.estimate cat in
  let lineitem = (est (scan "lineitem" "l")).rows in
  let on_key =
    Pred.conj_all
      [ eq (col "l" "partkey") (col "ps" "partkey"); eq (col "ps" "suppkey") (col "l" "suppkey") ]
  in
  List.iter
    (fun (label, plan) ->
      let rows = (est plan).rows in
      if rows < lineitem then
        Alcotest.failf "%s: %.0f rows, lineitem has %.0f" label rows lineitem)
    [ ("lineitem on the left", Plan.Join (on_key, scan "lineitem" "l", scan "partsupp" "ps"));
      ("partsupp on the left", Plan.Join (on_key, scan "partsupp" "ps", scan "lineitem" "l"));
      ( "partsupp in a cross product",
        Plan.Join
          ( on_key,
            Plan.Join (Pred.True, scan "partsupp" "ps", scan "nation" "n"),
            scan "lineitem" "l" ) );
    ];
  (* l-ps and l-ps2 are two alias pairs: ps.partkey and ps2.suppkey
     name partsupp's key columns but cover no key of one alias, so each
     equality keeps its own factor *)
  let split =
    Pred.conj_all
      [ eq (col "l" "partkey") (col "ps" "partkey"); eq (col "l" "suppkey") (col "ps2" "suppkey") ]
  in
  let l = est (scan "lineitem" "l")
  and pp = est (Plan.Join (Pred.True, scan "partsupp" "ps", scan "partsupp" "ps2")) in
  let cross = Optimizer.Stats.join Pred.True l pp in
  let independent = Float.max 1.0 (cross.rows *. Optimizer.Stats.selectivity cross split) in
  Alcotest.(check bool) "pairs not merged" true
    (same_bits independent (Optimizer.Stats.join split l pp).rows);
  (* a third l-ps equality on no key column keeps its own factor on
     top of the merged key equalities *)
  let ps = est (scan "partsupp" "ps") in
  let qty = eq (col "l" "quantity") (col "ps" "availqty") in
  let three =
    Pred.conj_all
      [ eq (col "l" "partkey") (col "ps" "partkey"); qty;
        eq (col "ps" "suppkey") (col "l" "suppkey") ]
  in
  let cross = Optimizer.Stats.join Pred.True l ps in
  let expected =
    (Optimizer.Stats.join on_key l ps).rows *. Optimizer.Stats.selectivity cross qty
  in
  List.iter
    (fun (label, rows) ->
      if Float.abs (rows -. expected) > 1e-9 *. expected then
        Alcotest.failf "%s: %.1f rows, expected %.1f" label rows expected)
    [ ("three equalities, lineitem on the left", (Optimizer.Stats.join three l ps).rows);
      ("three equalities, partsupp on the left", (Optimizer.Stats.join three ps l).rows) ];
  Alcotest.(check bool) "non-key equality is selective" true (expected < lineitem)

let () =
  Alcotest.run "optimizer"
    [
      ( "planning",
        [
          Alcotest.test_case "all queries compliant" `Slow test_all_queries_compliant;
          Alcotest.test_case "traditional Q2 NC" `Quick test_traditional_q2_non_compliant;
          Alcotest.test_case "rejection" `Quick test_rejection;
          Alcotest.test_case "single site" `Quick test_single_site_needs_no_policy;
          Alcotest.test_case "Q3 pushdown" `Quick test_q3_pushes_aggregate_below_ship;
          Alcotest.test_case "trad no pushdown" `Quick test_traditional_does_not_push_aggregate;
          Alcotest.test_case "same plan when compliant" `Quick
            test_same_plan_when_traditional_compliant;
          Alcotest.test_case "response-time objective" `Quick
            test_response_time_objective;
          Alcotest.test_case "merge join on clustered keys" `Quick
            test_merge_join_on_clustered_keys;
          Alcotest.test_case "order-by enforcer" `Quick test_order_by_enforcer;
        ] );
      ( "memo",
        [
          Alcotest.test_case "dedup" `Quick test_memo_dedup;
          Alcotest.test_case "float constants" `Quick test_memo_float_constants;
          Alcotest.test_case "plan golden" `Quick test_plan_golden;
          Alcotest.test_case "derived = walked summaries and estimates" `Quick
            test_derived_matches_walked;
          Alcotest.test_case "plan space" `Quick test_exploration_grows_plan_space;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "key derivation" `Quick test_key_derivation;
          Alcotest.test_case "composite-key join" `Quick test_composite_key_join;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_theorem_1;
          QCheck_alcotest.to_alcotest prop_group_identity;
          QCheck_alcotest.to_alcotest prop_site_selector_optimal;
          Alcotest.test_case "checker flags" `Quick test_checker_flags_bad_ship;
        ] );
    ]
