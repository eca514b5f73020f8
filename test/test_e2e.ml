(* End-to-end tests: full sessions over generated TPC-H data.

   The central invariant is semantics preservation (§3.2): for every
   query, the compliant plan must return exactly the rows the
   traditional cost-only plan returns — masking and aggregation pushdown
   may change *where* things run, never *what* the query computes. *)

open Relalg

let cat = Tpch.Schema.catalog ()
let data = Tpch.Datagen.generate ~sf:0.003 ()
let db = Tpch.Datagen.load ~cat data

let session policies_texts =
  let s = Cgqp.create ~catalog:cat () in
  Cgqp.add_policies s policies_texts;
  Cgqp.attach_database s db;
  s

let sorted_rows rel =
  Storage.Relation.rows rel |> Array.to_list
  |> List.map Array.to_list
  |> List.sort (List.compare Value.compare)

(* Round floats so plans with different evaluation orders compare
   equal. *)
let canon_rows rows =
  List.map
    (List.map (fun v ->
         match v with
         | Value.Float f -> Value.Float (Float.round (f *. 1e4) /. 1e4)
         | _ -> v))
    rows

let run_mode s mode sql =
  Cgqp.set_mode s mode;
  match Cgqp.run s sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "execution failed: %s" (Cgqp.error_to_string e)

let test_semantics_preserved () =
  List.iter
    (fun (set, queries) ->
      let s = session (Tpch.Policies.texts set) in
      List.iter
        (fun (name, sql) ->
          let trad = run_mode s Optimizer.Memo.Traditional sql in
          let comp = run_mode s Optimizer.Memo.Compliant sql in
          let label =
            Printf.sprintf "%s under %s" name (Tpch.Policies.set_name_to_string set)
          in
          Alcotest.(check int) (label ^ ": cardinality")
            (Storage.Relation.cardinality trad.Cgqp.relation)
            (Storage.Relation.cardinality comp.Cgqp.relation);
          Alcotest.(check bool) (label ^ ": identical rows") true
            (canon_rows (sorted_rows trad.Cgqp.relation)
            = canon_rows (sorted_rows comp.Cgqp.relation)))
        queries)
    [ (Tpch.Policies.T, Tpch.Queries.all_extended); (Tpch.Policies.CRA, Tpch.Queries.all) ]

(* Independent oracle: evaluate the (normalized) logical plan directly
   on one site, bypassing the memo, traits and site selection entirely.
   Equi-joins use local hash rendering so the oracle stays tractable;
   everything else is evaluated literally. *)
let rec naive_physical ~table_cols (plan : Plan.t) : Exec.Pplan.t =
  let mk node children =
    { Exec.Pplan.node; loc = "oracle"; children;
      est = { Exec.Pplan.est_rows = 0.; est_width = 0. } }
  in
  match plan with
  | Plan.Scan { table; alias } ->
    mk (Exec.Pplan.Table_scan { table; alias; partition = 0 }) []
  | Plan.Select (p, i) -> mk (Exec.Pplan.Filter p) [ naive_physical ~table_cols i ]
  | Plan.Project (items, i) ->
    mk (Exec.Pplan.Project items) [ naive_physical ~table_cols i ]
  | Plan.Join (p, l, r) ->
    let attr_set pl =
      List.fold_left
        (fun s a -> Attr.Set.add a s)
        Attr.Set.empty
        (Plan.output_cols ~table_cols pl)
    in
    let lset = attr_set l and rset = attr_set r in
    let pairs, residual =
      List.fold_left
        (fun (pairs, residual) c ->
          match c with
          | Pred.Atom (Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b))
            when Attr.Set.mem a lset && Attr.Set.mem b rset ->
            ((a, b) :: pairs, residual)
          | Pred.Atom (Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b))
            when Attr.Set.mem b lset && Attr.Set.mem a rset ->
            ((b, a) :: pairs, residual)
          | c -> (pairs, c :: residual))
        ([], []) (Pred.conjuncts p)
    in
    let node =
      if pairs = [] then Exec.Pplan.Nl_join p
      else Exec.Pplan.Hash_join { keys = pairs; residual = Pred.conj_all residual }
    in
    mk node [ naive_physical ~table_cols l; naive_physical ~table_cols r ]
  | Plan.Aggregate { keys; aggs; input } ->
    mk (Exec.Pplan.Hash_agg { keys; aggs }) [ naive_physical ~table_cols input ]
  | Plan.Union xs -> mk Exec.Pplan.Union_all (List.map (naive_physical ~table_cols) xs)

let test_against_naive_oracle () =
  let s = session Tpch.Policies.set_t in
  let oracle_net = Catalog.Network.uniform ~locations:[ "oracle" ] ~alpha:0. ~beta:0. in
  let table_cols = Catalog.table_cols cat in
  List.iter
    (fun (name, sql) ->
      let optimized = run_mode s Optimizer.Memo.Compliant sql in
      let lplan =
        match Cgqp.plan_of_sql s sql with
        | Ok p -> p
        | Error e -> Alcotest.failf "bind failed: %s" (Cgqp.error_to_string e)
      in
      (* pushdown only, so joins get their equi conditions; no memo *)
      let pushed = Optimizer.Normalize.pushdown ~table_cols lplan in
      let naive =
        (Exec.Interp.run ~network:oracle_net ~db ~table_cols
           (naive_physical ~table_cols pushed))
          .Exec.Interp.relation
      in
      Alcotest.(check bool) (name ^ " matches the naive oracle") true
        (canon_rows (sorted_rows naive)
        = canon_rows (sorted_rows optimized.Cgqp.relation)))
    Tpch.Queries.all_extended

(* --- property: random small plans agree with the naive oracle ---

   A qcheck generator for SPJG plans over the TPC-H schema: a join
   chain along foreign keys, a random conjunction/disjunction of
   range atoms, then either a projection or a group-by. Each plan is
   optimized (caches and branch-and-bound at their defaults) and
   executed; the result must match the naive one-site interpretation
   of the same logical plan. This fuzzes exactly the machinery the
   hot-path work touches: interned predicates, the verdict cache and
   the pruned memo. *)

(* join chains: scans, equi-join pairs linking scan i+1 into the
   accumulated tree, and the integer columns usable in filters *)
let chains =
  [
    ([ ("nation", "n") ], [], [ ("n", "nationkey"); ("n", "regionkey") ]);
    ( [ ("region", "r"); ("nation", "n") ],
      [ (("r", "regionkey"), ("n", "regionkey")) ],
      [ ("r", "regionkey"); ("n", "nationkey") ] );
    ( [ ("nation", "n"); ("customer", "c") ],
      [ (("n", "nationkey"), ("c", "nationkey")) ],
      [ ("n", "regionkey"); ("c", "custkey") ] );
    ( [ ("customer", "c"); ("orders", "o") ],
      [ (("c", "custkey"), ("o", "custkey")) ],
      [ ("c", "nationkey"); ("o", "orderkey") ] );
    ( [ ("orders", "o"); ("lineitem", "l") ],
      [ (("o", "orderkey"), ("l", "orderkey")) ],
      [ ("o", "custkey"); ("l", "quantity"); ("l", "suppkey") ] );
    ( [ ("nation", "n"); ("supplier", "s") ],
      [ (("n", "nationkey"), ("s", "nationkey")) ],
      [ ("n", "regionkey"); ("s", "suppkey") ] );
    ( [ ("region", "r"); ("nation", "n"); ("customer", "c") ],
      [ (("r", "regionkey"), ("n", "regionkey")); (("n", "nationkey"), ("c", "nationkey")) ],
      [ ("r", "regionkey"); ("c", "custkey"); ("c", "nationkey") ] );
    ( [ ("customer", "c"); ("orders", "o"); ("lineitem", "l") ],
      [ (("c", "custkey"), ("o", "custkey")); (("o", "orderkey"), ("l", "orderkey")) ],
      [ ("c", "nationkey"); ("o", "orderkey"); ("l", "quantity") ] );
  ]

let qattr (rel, name) = Attr.make ~rel ~name
let qcol rc = Expr.Col (qattr rc)

let gen_plan =
  let open QCheck.Gen in
  let* scans, joins, cols = oneofl chains in
  let base =
    match scans with
    | [] -> assert false
    | (table, alias) :: rest ->
      List.fold_left2
        (fun acc (table, alias) (a, b) ->
          Plan.Join
            ( Pred.Atom (Pred.Cmp (Pred.Eq, qcol a, qcol b)),
              acc,
              Plan.Scan { table; alias } ))
        (Plan.Scan { table; alias })
        rest joins
  in
  let gen_atom =
    let* rc = oneofl cols in
    let* c = oneofl [ Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge; Pred.Ne ] in
    let* v = int_range 0 300 in
    return (Pred.Atom (Pred.Cmp (c, qcol rc, Expr.Const (Value.Int v))))
  in
  let* filtered =
    frequency
      [
        (1, return base);
        (2, map (fun p -> Plan.Select (p, base)) gen_atom);
        ( 1,
          map2 (fun p q -> Plan.Select (Pred.And (p, q), base)) gen_atom gen_atom );
        ( 1,
          map2 (fun p q -> Plan.Select (Pred.Or (p, q), base)) gen_atom gen_atom );
      ]
  in
  frequency
    [
      ( 2,
        (* projection of a random nonempty column subset *)
        let* n = int_range 1 (List.length cols) in
        let sub = List.filteri (fun i _ -> i < n) cols in
        return (Plan.Project (List.map (fun rc -> (qcol rc, qattr rc)) sub, filtered)) );
      ( 2,
        (* group one column by another *)
        let* key = oneofl cols in
        let* arg = oneofl cols in
        let* fn = oneofl [ Expr.Sum; Expr.Count; Expr.Min; Expr.Max ] in
        return
          (Plan.Aggregate
             {
               keys = [ qattr key ];
               aggs = [ { Expr.fn; arg = qcol arg; alias = "v" } ];
               input = filtered;
             }) );
    ]

let prop_random_plan_equivalence =
  let policies = Policy.Pcatalog.of_texts cat Tpch.Policies.unrestricted in
  let table_cols = Catalog.table_cols cat in
  let oracle_net = Catalog.Network.uniform ~locations:[ "oracle" ] ~alpha:0. ~beta:0. in
  QCheck.Test.make ~name:"random plans: optimized = naive oracle" ~count:80
    (QCheck.make gen_plan)
    (fun lplan ->
      let optimized =
        match Optimizer.Planner.optimize ~cat ~policies lplan with
        | Optimizer.Planner.Planned p ->
          (Exec.Interp.run ~network:(Catalog.network cat) ~db ~table_cols
             p.Optimizer.Planner.plan)
            .Exec.Interp.relation
        | Optimizer.Planner.Rejected r ->
          QCheck.Test.fail_reportf "unrestricted plan rejected: %s" r
      in
      let pushed = Optimizer.Normalize.pushdown ~table_cols lplan in
      let naive =
        (Exec.Interp.run ~network:oracle_net ~db ~table_cols
           (naive_physical ~table_cols pushed))
          .Exec.Interp.relation
      in
      canon_rows (sorted_rows optimized) = canon_rows (sorted_rows naive))

let test_carco_example_values () =
  (* hand-checkable CarCo-style instance: 2 customers, 3 orders, 4
     supply lines *)
  let open Catalog.Table_def in
  let coli c = column c Value.Tint in
  let cols c = column c Value.Tstr in
  let cat =
    Catalog.make
      ~network:(Catalog.Network.uniform ~locations:[ "n"; "e"; "a" ] ~alpha:1. ~beta:1e-6)
      [
        ( make ~name:"customer" ~key:[ "custkey" ] ~row_count:2 ()
            ~columns:[ coli "custkey"; cols "name"; coli "acctbal" ],
          [ { Catalog.db = "dn"; location = "n"; fraction = 1.0 } ] );
        ( make ~name:"orders" ~key:[ "ordkey" ] ~row_count:3 ()
            ~columns:[ coli "custkey"; coli "ordkey"; coli "totprice" ],
          [ { Catalog.db = "de"; location = "e"; fraction = 1.0 } ] );
        ( make ~name:"supply" ~key:[ "ordkey"; "quantity" ] ~row_count:4 ()
            ~columns:[ coli "ordkey"; coli "quantity" ],
          [ { Catalog.db = "da"; location = "a"; fraction = 1.0 } ] );
      ]
  in
  let db = Storage.Database.create () in
  let add name rows =
    let schema = List.map (fun c -> Attr.make ~rel:name ~name:c) (Catalog.table_cols cat name) in
    Storage.Database.add db ~table:name
      (Storage.Relation.make ~schema ~rows:(Array.of_list rows))
  in
  let i n = Value.Int n and s v = Value.Str v in
  add "customer" [ [| i 1; s "ann"; i 100 |]; [| i 2; s "bob"; i 200 |] ];
  add "orders" [ [| i 1; i 10; i 5 |]; [| i 1; i 11; i 7 |]; [| i 2; i 12; i 11 |] ];
  add "supply"
    [ [| i 10; i 2 |]; [| i 10; i 3 |]; [| i 11; i 4 |]; [| i 12; i 5 |] ];
  let sess = Cgqp.create ~catalog:cat () in
  Cgqp.add_policies sess
    [
      "ship custkey, name from customer to e, a";
      "ship custkey, ordkey from orders to *";
      "ship totprice from orders to e";
      "ship quantity as aggregates sum from supply to e group by ordkey";
    ];
  Cgqp.attach_database sess db;
  let r =
    match
      Cgqp.run sess
        "SELECT c.name, SUM(o.totprice) AS p, SUM(s.quantity) AS q \
         FROM customer c, orders o, supply s \
         WHERE c.custkey = o.custkey AND o.ordkey = s.ordkey GROUP BY c.name"
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "run failed: %s" (Cgqp.error_to_string e)
  in
  (* expected (duplicate-sensitive!):
     ann: order 10 (price 5, 2 lines), order 11 (price 7, 1 line)
          p = 5*2 + 7*1 = 17, q = 2+3+4 = 9
     bob: order 12 (price 11, 1 line): p = 11, q = 5 *)
  let rows = sorted_rows r.Cgqp.relation in
  Alcotest.(check bool) "ann row" true
    (List.mem [ Value.Str "ann"; Value.Int 17; Value.Int 9 ] rows);
  Alcotest.(check bool) "bob row" true
    (List.mem [ Value.Str "bob"; Value.Int 11; Value.Int 5 ] rows);
  (* and the plan must not move raw supply or raw totprice illegally *)
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> Fmt.str "%a" Optimizer.Checker.pp_violation v)
       r.Cgqp.planned.Optimizer.Planner.violations)

let test_partitioned_execution () =
  let pcat =
    Tpch.Schema.catalog ~partition_tables:[ "customer"; "orders" ] ~partition_count:3 ()
  in
  let pdb = Tpch.Datagen.load ~cat:pcat data in
  let psess = Cgqp.create ~catalog:pcat () in
  Cgqp.add_policies psess
    (Tpch.Workload.gen_expressions ~seed:11 ~template:Tpch.Policies.CRA ~n:10 ());
  Cgqp.attach_database psess pdb;
  let r = run_mode psess Optimizer.Memo.Compliant Tpch.Queries.q3 in
  (* the same query over the unpartitioned database must agree *)
  let s = session Tpch.Policies.set_cra in
  let r0 = run_mode s Optimizer.Memo.Compliant Tpch.Queries.q3 in
  Alcotest.(check int) "same cardinality"
    (Storage.Relation.cardinality r0.Cgqp.relation)
    (Storage.Relation.cardinality r.Cgqp.relation);
  Alcotest.(check bool) "same rows" true
    (canon_rows (sorted_rows r0.Cgqp.relation) = canon_rows (sorted_rows r.Cgqp.relation))

let test_error_paths () =
  let s = session Tpch.Policies.set_cra in
  (match Cgqp.run s "SELECT FROM nothing" with
  | Error (`Parse _) -> ()
  | _ -> Alcotest.fail "parse error expected");
  (match Cgqp.run s "SELECT nosuchcol FROM customer" with
  | Error (`Bind _) -> ()
  | _ -> Alcotest.fail "bind error expected");
  (match Cgqp.run s "SELECT x.y FROM nosuchtable x" with
  | Error (`Bind _) -> ()
  | _ -> Alcotest.fail "unknown table expected");
  (* policies that cannot be parsed *)
  (match Cgqp.add_policies s [ "ship nothing sensible" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "bad policy must be rejected")

let test_rejection_path () =
  let s = Cgqp.create ~catalog:cat () in
  Cgqp.attach_database s db;
  (* no policies: cross-site queries are rejected at planning time *)
  match Cgqp.run s Tpch.Queries.q3 with
  | Error (`Rejected _) -> ()
  | Ok _ -> Alcotest.fail "must reject cross-site query without policies"
  | Error e -> Alcotest.failf "wrong error: %s" (Cgqp.error_to_string e)

let test_is_legal () =
  let s = session Tpch.Policies.set_cra in
  Alcotest.(check bool) "q3 legal" true (Cgqp.is_legal s Tpch.Queries.q3);
  let s0 = Cgqp.create ~catalog:cat () in
  Alcotest.(check bool) "cross-site without policies illegal" false
    (Cgqp.is_legal s0 Tpch.Queries.q3)

let test_order_by_and_limit () =
  let s = session Tpch.Policies.set_cra in
  let r =
    match
      Cgqp.run s
        "SELECT c.custkey, c.acctbal FROM customer c, nation n \
         WHERE c.nationkey = n.nationkey ORDER BY c.acctbal DESC LIMIT 5"
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "run failed: %s" (Cgqp.error_to_string e)
  in
  Alcotest.(check int) "limited" 5 (Storage.Relation.cardinality r.Cgqp.relation);
  let look = Storage.Relation.lookup_of_schema (Storage.Relation.schema r.Cgqp.relation) in
  let vals =
    Array.to_list (Storage.Relation.rows r.Cgqp.relation)
    |> List.map (fun row -> look (Attr.unqualified "acctbal") row)
  in
  let rec descending = function
    | a :: (b :: _ as rest) -> Value.compare a b >= 0 && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (descending vals)

let test_having () =
  let s = session Tpch.Policies.set_cra in
  let with_having =
    run_mode s Optimizer.Memo.Compliant
      "SELECT c.mktsegment, SUM(c.acctbal) AS total FROM customer c \
       GROUP BY c.mktsegment HAVING total > 0"
  in
  let without =
    run_mode s Optimizer.Memo.Compliant
      "SELECT c.mktsegment, SUM(c.acctbal) AS total FROM customer c \
       GROUP BY c.mktsegment"
  in
  Alcotest.(check bool) "having filters groups" true
    (Storage.Relation.cardinality with_having.Cgqp.relation
    <= Storage.Relation.cardinality without.Cgqp.relation);
  (* every surviving group satisfies the predicate *)
  let look =
    Storage.Relation.lookup_of_schema (Storage.Relation.schema with_having.Cgqp.relation)
  in
  Array.iter
    (fun row ->
      match look (Attr.unqualified "total") row with
      | Value.Float f -> Alcotest.(check bool) "positive" true (f > 0.)
      | Value.Int i -> Alcotest.(check bool) "positive" true (i > 0)
      | v -> Alcotest.failf "unexpected total %s" (Value.to_string v))
    (Storage.Relation.rows with_having.Cgqp.relation)

let test_shipped_bytes_accounted () =
  let s = session Tpch.Policies.set_cra in
  let r = run_mode s Optimizer.Memo.Compliant Tpch.Queries.q5 in
  Alcotest.(check bool) "some bytes shipped" true (r.Cgqp.shipped_bytes > 0);
  Alcotest.(check bool) "cost positive" true (r.Cgqp.ship_cost_ms > 0.)

let () =
  Alcotest.run "e2e"
    [
      ( "semantics",
        [
          Alcotest.test_case "compliant = traditional results" `Slow test_semantics_preserved;
          Alcotest.test_case "carco hand-checked" `Quick test_carco_example_values;
          Alcotest.test_case "naive oracle agreement" `Slow test_against_naive_oracle;
          QCheck_alcotest.to_alcotest prop_random_plan_equivalence;
          Alcotest.test_case "partitioned execution" `Quick test_partitioned_execution;
        ] );
      ( "api",
        [
          Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "rejection" `Quick test_rejection_path;
          Alcotest.test_case "is_legal" `Quick test_is_legal;
          Alcotest.test_case "ship accounting" `Quick test_shipped_bytes_accounted;
          Alcotest.test_case "order by / limit" `Quick test_order_by_and_limit;
          Alcotest.test_case "having" `Quick test_having;
        ] );
    ]
