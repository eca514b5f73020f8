(* Policy evaluator tests, centred on the paper's Table 1 worked example
   and the §3.1/§2 running example (CarCo). *)

open Relalg
module Locset = Catalog.Location.Set

let locset = Alcotest.testable Locset.pp Locset.equal

(* --- Table 1 fixture: relation T(A,...,G) at location l0 --- *)

let t1_catalog () =
  let open Catalog.Table_def in
  let col c = column c Relalg.Value.Tint in
  let t =
    make ~name:"t"
      ~columns:[ col "a"; col "b"; col "c"; col "d"; col "e"; col "f"; col "g" ]
      ~key:[ "a" ] ~row_count:1000 ()
  in
  let network =
    Catalog.Network.uniform ~locations:[ "l0"; "l1"; "l2"; "l3"; "l4" ] ~alpha:100.
      ~beta:1e-5
  in
  Catalog.make ~network
    [ (t, [ { Catalog.db = "db-t"; location = "l0"; fraction = 1.0 } ]) ]

let t1_policies cat =
  Policy.Pcatalog.of_texts cat
    [
      "ship a, b, c from t to l2, l3";
      "ship a, b from t to l1, l2, l3, l4";
      "ship a, d from t to l1, l3 where b > 10";
      "ship f, g as aggregates sum, avg from t to l1, l2 group by e, c";
    ]

let table_cols_of cat name =
  match Catalog.find_table cat name with
  | Some e -> Catalog.Table_def.col_names e.Catalog.def
  | None -> Alcotest.failf "unknown table %s" name

let summarize cat plan =
  Summary.analyze ~table_cols:(table_cols_of cat) plan

let eval ?stats cat pols plan =
  Policy.Evaluator.locations_for ?stats ~catalog:cat ~policies:pols (summarize cat plan)

let attr name = Attr.make ~rel:"t" ~name
let col name = Expr.Col (attr name)

(* q1 = Project_{A,C,D}(Select_{B>15}(T)) *)
let q1 =
  Plan.Project
    ( [ (col "a", attr "a"); (col "c", attr "c"); (col "d", attr "d") ],
      Plan.Select
        ( Pred.Atom (Pred.Cmp (Pred.Gt, col "b", Expr.Const (Value.Int 15))),
          Plan.Scan { table = "t"; alias = "t" } ) )

(* q2 = Gamma_{C; sum(F*(1-G))}(T) *)
let q2 =
  Plan.Aggregate
    {
      keys = [ attr "c" ];
      aggs =
        [
          {
            Expr.fn = Expr.Sum;
            arg =
              Expr.Binop
                ( Expr.Mul,
                  col "f",
                  Expr.Binop (Expr.Sub, Expr.Const (Value.Int 1), col "g") );
            alias = "s";
          };
        ];
      input = Plan.Scan { table = "t"; alias = "t" };
    }

let test_table1_q1 () =
  let cat = t1_catalog () in
  let pols = t1_policies cat in
  (* {l3} from the policies plus the table's home location l0 *)
  Alcotest.check locset "A(q1) = {l0,l3}" (Locset.of_list [ "l0"; "l3" ]) (eval cat pols q1)

let test_table1_q2 () =
  (* The running text of §5 concludes "of query q2 to locations l1 and
     l2" (the {l1,l2,l3} in the preprint's Table 1 footer is a typo:
     L_F = L_G = {l1,l2} so the intersection cannot contain l3). *)
  let cat = t1_catalog () in
  let pols = t1_policies cat in
  Alcotest.check locset "A(q2) = {l0,l1,l2}" (Locset.of_list [ "l0"; "l1"; "l2" ])
    (eval cat pols q2)

let test_table1_intermediate () =
  (* Column-wise locations after each expression, as in Table 1:
     a query projecting only A must be shippable to l1..l4. *)
  let cat = t1_catalog () in
  let pols = t1_policies cat in
  let proj cols =
    Plan.Project (List.map (fun c -> (col c, attr c)) cols, Plan.Scan { table = "t"; alias = "t" })
  in
  Alcotest.check locset "A only" (Locset.of_list [ "l0"; "l1"; "l2"; "l3"; "l4" ])
    (eval cat pols (proj [ "a" ]));
  Alcotest.check locset "C only" (Locset.of_list [ "l0"; "l2"; "l3" ])
    (eval cat pols (proj [ "c" ]));
  (* D is only covered by e3, whose predicate b > 10 is not implied by
     an unfiltered scan: only the home location remains. *)
  Alcotest.check locset "D unfiltered" (Locset.of_list [ "l0" ]) (eval cat pols (proj [ "d" ]));
  let filtered =
    Plan.Project
      ( [ (col "d", attr "d") ],
        Plan.Select
          ( Pred.Atom (Pred.Cmp (Pred.Eq, col "b", Expr.Const (Value.Int 11))),
            Plan.Scan { table = "t"; alias = "t" } ) )
  in
  Alcotest.check locset "D with b=11" (Locset.of_list [ "l0"; "l1"; "l3" ])
    (eval cat pols filtered)

let test_group_subset_check () =
  (* Aggregating F grouped by a non-sanctioned key must fail; grouping
     by a subset of G_e (including the empty set) must pass. *)
  let cat = t1_catalog () in
  let pols = t1_policies cat in
  let agg keys =
    Plan.Aggregate
      {
        keys = List.map attr keys;
        aggs = [ { Expr.fn = Expr.Sum; arg = col "f"; alias = "s" } ];
        input = Plan.Scan { table = "t"; alias = "t" };
      }
  in
  Alcotest.check locset "group by e" (Locset.of_list [ "l0"; "l1"; "l2" ])
    (eval cat pols (agg [ "e" ]));
  Alcotest.check locset "group by nothing" (Locset.of_list [ "l0"; "l1"; "l2" ])
    (eval cat pols (agg []));
  Alcotest.check locset "group by d (not allowed)" (Locset.of_list [ "l0" ])
    (eval cat pols (agg [ "d" ]))

let test_aggregate_fn_check () =
  (* MIN is not in F_e of e4. *)
  let cat = t1_catalog () in
  let pols = t1_policies cat in
  let plan =
    Plan.Aggregate
      {
        keys = [];
        aggs = [ { Expr.fn = Expr.Min; arg = col "f"; alias = "m" } ];
        input = Plan.Scan { table = "t"; alias = "t" };
      }
  in
  Alcotest.check locset "min(f) not sanctioned" (Locset.of_list [ "l0" ]) (eval cat pols plan)

let test_raw_column_of_agg_expr () =
  (* Example 2 of the paper: a plain projection of an
     aggregates-only column can be shipped nowhere. *)
  let cat = t1_catalog () in
  let pols = t1_policies cat in
  let plan =
    Plan.Project ([ (col "f", attr "f") ], Plan.Scan { table = "t"; alias = "t" })
  in
  Alcotest.check locset "raw f stays home" (Locset.of_list [ "l0" ]) (eval cat pols plan)

let test_eta_counter () =
  let cat = t1_catalog () in
  let pols = t1_policies cat in
  let stats = Policy.Evaluator.fresh_stats () in
  let _ = eval ~stats cat pols q1 in
  (* e1, e2, e3 share ship attributes with q1 and their implications
     hold (e3's b>10 is implied by b>15); e4 shares no ship attribute
     with q1's outputs. *)
  Alcotest.(check int) "eta for q1" 3 stats.Policy.Evaluator.eta

(* --- CarCo running example (§2) --- *)

let carco_catalog () =
  let open Catalog.Table_def in
  let coli c = column c Relalg.Value.Tint in
  let cols c = column c Relalg.Value.Tstr in
  let customer =
    make ~name:"customer"
      ~columns:[ coli "custkey"; cols "name"; coli "acctbal"; cols "mktseg"; cols "region" ]
      ~key:[ "custkey" ] ~row_count:10_000 ()
  in
  let orders =
    make ~name:"orders"
      ~columns:[ coli "custkey"; coli "ordkey"; coli "totprice" ]
      ~key:[ "ordkey" ] ~row_count:100_000 ()
  in
  let supply =
    make ~name:"supply"
      ~columns:[ coli "ordkey"; coli "quantity"; coli "extprice" ]
      ~key:[ "ordkey"; "extprice" ] ~row_count:400_000 ()
  in
  let network = Catalog.Network.uniform ~locations:[ "n"; "e"; "a" ] ~alpha:100. ~beta:1e-5 in
  Catalog.make ~network
    [
      (customer, [ { Catalog.db = "dn"; location = "n"; fraction = 1.0 } ]);
      (orders, [ { Catalog.db = "de"; location = "e"; fraction = 1.0 } ]);
      (supply, [ { Catalog.db = "da"; location = "a"; fraction = 1.0 } ]);
    ]

let carco_policies cat =
  Policy.Pcatalog.of_texts cat
    [
      (* P_N: customer data leaves North America only without acctbal *)
      "ship custkey, name, mktseg, region from customer to e, a";
      (* P_E: orders may go to Asia only aggregated; ordkey/custkey may
         go anywhere, totprice must not reach North America raw *)
      "ship custkey, ordkey from orders to n, a, e";
      "ship totprice from orders to e";
      "ship totprice as aggregates sum from orders to e, a group by custkey, ordkey";
      (* P_A: supply ships to Europe only aggregated *)
      "ship quantity, extprice as aggregates sum from supply to e group by ordkey";
    ]

let test_carco_masked_customer () =
  let cat = carco_catalog () in
  let pols = carco_policies cat in
  let c name = Expr.Col (Attr.make ~rel:"c" ~name) in
  let masked =
    Plan.Project
      ( [ (c "custkey", Attr.make ~rel:"c" ~name:"custkey");
          (c "name", Attr.make ~rel:"c" ~name:"name") ],
        Plan.Scan { table = "customer"; alias = "c" } )
  in
  Alcotest.check locset "Pi_{c,n}(C) -> {n,a,e}" (Locset.of_list [ "n"; "a"; "e" ])
    (Policy.Evaluator.locations_for ~catalog:cat ~policies:pols
       (Summary.analyze ~table_cols:(table_cols_of cat) masked));
  let raw = Plan.Scan { table = "customer"; alias = "c" } in
  Alcotest.check locset "raw C stays home" (Locset.of_list [ "n" ])
    (Policy.Evaluator.locations_for ~catalog:cat ~policies:pols
       (Summary.analyze ~table_cols:(table_cols_of cat) raw))

let test_carco_supply_aggregate () =
  let cat = carco_catalog () in
  let pols = carco_policies cat in
  let s name = Expr.Col (Attr.make ~rel:"s" ~name) in
  let agg =
    Plan.Aggregate
      {
        keys = [ Attr.make ~rel:"s" ~name:"ordkey" ];
        aggs = [ { Expr.fn = Expr.Sum; arg = s "quantity"; alias = "sum_q" } ];
        input = Plan.Scan { table = "supply"; alias = "s" };
      }
  in
  Alcotest.check locset "Gamma(o, sum(q))(S) -> {e,a}" (Locset.of_list [ "e"; "a" ])
    (Policy.Evaluator.locations_for ~catalog:cat ~policies:pols
       (Summary.analyze ~table_cols:(table_cols_of cat) agg))

let test_evaluator_no_policies () =
  let cat = t1_catalog () in
  let pols = Policy.Pcatalog.empty in
  Alcotest.check locset "no policies -> home only" (Locset.of_list [ "l0" ])
    (eval cat pols q1)

(* --- expression binding --- *)

let test_expression_binding () =
  let cat = Tpch.Schema.catalog () in
  let e = Policy.Expression.parse cat "ship * from db-5.nation to *" in
  Alcotest.(check int) "star expands" 4 (List.length e.Policy.Expression.ship_cols);
  Alcotest.(check int) "all locations" 5
    (Catalog.Location.Set.cardinal e.Policy.Expression.to_locs);
  (* alias-qualified predicate columns are normalized to the table *)
  let e2 =
    Policy.Expression.parse cat
      "ship partkey, size from db-3.part p to L1 where p.size > 40"
  in
  Alcotest.(check bool) "pred over base table" true
    (Attr.Set.mem
       (Attr.make ~rel:"part" ~name:"size")
       (Pred.cols e2.Policy.Expression.pred))

let test_expression_binding_errors () =
  let cat = Tpch.Schema.catalog () in
  let expect_fail text =
    match Policy.Expression.parse cat text with
    | exception Policy.Expression.Bind_error _ -> ()
    | _ -> Alcotest.failf "expected bind error for %S" text
  in
  expect_fail "ship foo from db-5.nation to *";
  expect_fail "ship name from db-5.nosuch to *";
  expect_fail "ship name from db-9.nation to *";
  expect_fail "ship name from db-5.nation to Mars";
  expect_fail "ship name from db-5.nation to * where other.name = 'x'";
  expect_fail "ship name as aggregates sum from db-5.nation to * group by nosuchcol"

let test_partitioned_home_excluded () =
  (* for partitioned tables the evaluator must not grant blanket "home"
     locations: data at one partition is not at the others *)
  let cat =
    Tpch.Schema.catalog ~partition_tables:[ "customer" ] ~partition_count:3 ()
  in
  let pols = Policy.Pcatalog.empty in
  let plan = Plan.Scan { table = "customer"; alias = "c" } in
  let s =
    Summary.analyze ~table_cols:(Catalog.table_cols cat) plan
  in
  Alcotest.check locset "no home for partitioned table" Locset.empty
    (Policy.Evaluator.locations_for ~catalog:cat ~policies:pols s)

(* property: adding policy expressions never shrinks the evaluator's
   location set (grants are monotone) *)
let prop_evaluator_monotone =
  QCheck.Test.make ~name:"A is monotone in the policy set" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Storage.Prng.create ~seed in
      let cat = t1_catalog () in
      let base_texts =
        Storage.Prng.pick_k g
          (1 + Storage.Prng.int g 3)
          [
            "ship a, b, c from t to l2, l3";
            "ship a, b from t to l1, l2, l3, l4";
            "ship a, d from t to l1, l3 where b > 10";
            "ship f, g as aggregates sum, avg from t to l1, l2 group by e, c";
            "ship c, d from t to l4";
            "ship e from t to l1 where a < 100";
          ]
      in
      let extra = "ship a, b, c, d, e, f, g from t to l4" in
      let small = Policy.Pcatalog.of_texts cat base_texts in
      let large = Policy.Pcatalog.of_texts cat (base_texts @ [ extra ]) in
      let query =
        let cols = Storage.Prng.pick_k g (1 + Storage.Prng.int g 3) [ "a"; "b"; "c"; "d" ] in
        Plan.Project
          (List.map (fun c -> (col c, attr c)) cols, Plan.Scan { table = "t"; alias = "t" })
      in
      Locset.subset (eval cat small query) (eval cat large query))

(* property: interning policy expressions is semantically invisible —
   equal/compare are preserved and equal expressions share one node *)
let prop_expression_interning =
  QCheck.Test.make ~name:"Expression.intern preserves equal/compare" ~count:200
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Storage.Prng.create ~seed in
      let cat = t1_catalog () in
      let texts =
        Storage.Prng.pick_k g
          (1 + Storage.Prng.int g 4)
          [
            "ship a, b, c from t to l2, l3";
            "ship a, b from t to l1, l2, l3, l4";
            "ship a, d from t to l1, l3 where b > 10";
            "ship f, g as aggregates sum, avg from t to l1, l2 group by e, c";
            "ship c, d from t to l4";
            "ship e from t to l1 where a < 100";
          ]
      in
      List.for_all
        (fun text ->
          let e = Policy.Expression.parse cat text in
          let e' = Policy.Expression.intern e in
          Policy.Expression.equal e e'
          && Policy.Expression.compare e e' = 0
          && Policy.Expression.hash e' = Policy.Expression.hash e
          (* re-parsing yields a structurally equal but physically
             distinct value; interning must unify them *)
          && Policy.Expression.intern (Policy.Expression.parse cat text) == e')
        texts)

(* property: the compliance-verdict cache is transparent — cached and
   uncached evaluation agree on the location set and the η counter *)
let prop_evaluator_cache_transparent =
  QCheck.Test.make ~name:"cached locations_for = uncached" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Storage.Prng.create ~seed in
      let cat = t1_catalog () in
      let pols =
        Policy.Pcatalog.of_texts cat
          (Storage.Prng.pick_k g
             (1 + Storage.Prng.int g 4)
             [
               "ship a, b, c from t to l2, l3";
               "ship a, b from t to l1, l2, l3, l4";
               "ship a, d from t to l1, l3 where b > 10";
               "ship f, g as aggregates sum, avg from t to l1, l2 group by e, c";
               "ship c, d from t to l4";
             ])
      in
      let query =
        let cols = Storage.Prng.pick_k g (1 + Storage.Prng.int g 4) [ "a"; "b"; "c"; "d"; "e" ] in
        Plan.Project
          (List.map (fun c -> (col c, attr c)) cols, Plan.Scan { table = "t"; alias = "t" })
      in
      let s = summarize cat query in
      Policy.Evaluator.set_cache_enabled true;
      let stats_miss = Policy.Evaluator.fresh_stats () in
      let cached =
        Policy.Evaluator.locations_for ~stats:stats_miss ~catalog:cat ~policies:pols s
      in
      (* second call: guaranteed cache hit, must replay the same stats *)
      let stats_hit = Policy.Evaluator.fresh_stats () in
      let hit =
        Policy.Evaluator.locations_for ~stats:stats_hit ~catalog:cat ~policies:pols s
      in
      let stats_raw = Policy.Evaluator.fresh_stats () in
      let uncached =
        Policy.Evaluator.locations_for_uncached ~stats:stats_raw ~catalog:cat
          ~policies:pols s
      in
      Locset.equal cached uncached && Locset.equal hit uncached
      && stats_miss.Policy.Evaluator.eta = stats_raw.Policy.Evaluator.eta
      && stats_hit.Policy.Evaluator.eta = stats_raw.Policy.Evaluator.eta)

(* The verdict cache keys on the whole summary. Separately built,
   structurally equal summaries share a slot; two summaries that differ
   only past the polymorphic hash's first ten meaningful words, in the
   last output's [opaque] flag or in an [Int 1] vs [Float 1.] constant
   ([Pred.equal] equates the two), take separate slots. *)
let test_verdict_cache_key () =
  let cat = t1_catalog () in
  let pols = t1_policies cat in
  let lookup s = ignore (Policy.Evaluator.locations_for ~catalog:cat ~policies:pols s) in
  let counts label expect =
    Alcotest.(check (pair int int)) label expect (Policy.Evaluator.cache_stats ())
  in
  Policy.Evaluator.set_cache_enabled true;
  Policy.Evaluator.reset_cache ();
  let s = summarize cat q1 and s' = summarize cat q1 in
  Alcotest.(check bool) "built separately" false (s == s');
  lookup s;
  counts "first lookup misses" (0, 1);
  lookup s';
  counts "equal summary hits" (1, 1);
  let separate label a b =
    Alcotest.(check int)
      (label ^ ": polymorphic hash agrees")
      (Hashtbl.hash a) (Hashtbl.hash b);
    Alcotest.(check bool) (label ^ ": Summary.hash differs") true
      (Summary.hash a <> Summary.hash b);
    Policy.Evaluator.reset_cache ();
    lookup a;
    lookup b;
    counts (label ^ ": both miss") (0, 2);
    lookup a;
    lookup b;
    counts (label ^ ": both hit") (2, 2)
  in
  let flip_last_opaque (s : Summary.t) =
    match List.rev s.outputs with
    | last :: rest ->
      { s with outputs = List.rev ({ last with Summary.opaque = not last.opaque } :: rest) }
    | [] -> Alcotest.fail "q1 has outputs"
  in
  separate "opaque flag" s (flip_last_opaque s);
  let b_is v =
    summarize cat
      (Plan.Project
         ( [ (col "a", attr "a"); (col "c", attr "c") ],
           Plan.Select
             ( Pred.Atom (Pred.Cmp (Pred.Eq, col "b", Expr.Const v)),
               Plan.Scan { table = "t"; alias = "t" } ) ))
  in
  separate "Int 1 vs Float 1." (b_is (Value.Int 1)) (b_is (Value.Float 1.))

(* The implication cache keys on the two predicates' intern ids:
   separately built equal predicates share a slot. *)
let test_implication_cache_key () =
  let p () = Pred.Atom (Pred.Cmp (Pred.Gt, col "b", Expr.Const (Value.Int 15))) in
  let q = Pred.Atom (Pred.Cmp (Pred.Gt, col "b", Expr.Const (Value.Int 10))) in
  Policy.Implication.set_cache_enabled true;
  Policy.Implication.reset_cache ();
  Alcotest.(check bool) "b > 15 implies b > 10" true (Policy.Implication.implies (p ()) q);
  Alcotest.(check bool) "again" true (Policy.Implication.implies (p ()) q);
  Alcotest.(check bool) "converse fails" false (Policy.Implication.implies q (p ()));
  Alcotest.(check (pair int int)) "hits, misses" (1, 2) (Policy.Implication.cache_stats ())

let () =
  Alcotest.run "policy"
    [
      ( "table1",
        [
          Alcotest.test_case "q1 locations" `Quick test_table1_q1;
          Alcotest.test_case "q2 locations" `Quick test_table1_q2;
          Alcotest.test_case "columnwise" `Quick test_table1_intermediate;
          Alcotest.test_case "group subset" `Quick test_group_subset_check;
          Alcotest.test_case "aggregate fn" `Quick test_aggregate_fn_check;
          Alcotest.test_case "raw agg-only column" `Quick test_raw_column_of_agg_expr;
          Alcotest.test_case "eta counter" `Quick test_eta_counter;
        ] );
      ( "carco",
        [
          Alcotest.test_case "masked customer" `Quick test_carco_masked_customer;
          Alcotest.test_case "supply aggregate" `Quick test_carco_supply_aggregate;
          Alcotest.test_case "conservative default" `Quick test_evaluator_no_policies;
          QCheck_alcotest.to_alcotest prop_evaluator_monotone;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "binding" `Quick test_expression_binding;
          Alcotest.test_case "binding errors" `Quick test_expression_binding_errors;
          Alcotest.test_case "partitioned home" `Quick test_partitioned_home_excluded;
          QCheck_alcotest.to_alcotest prop_expression_interning;
          QCheck_alcotest.to_alcotest prop_evaluator_cache_transparent;
        ] );
      ( "caches",
        [
          Alcotest.test_case "verdict cache key" `Quick test_verdict_cache_key;
          Alcotest.test_case "implication cache key" `Quick test_implication_cache_key;
        ] );
    ]
