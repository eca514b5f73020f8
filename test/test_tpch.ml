(* TPC-H substrate tests: schema/catalog shape, deterministic data
   generation with referential integrity, query parsing, and the
   workload generators. *)

open Relalg

let cat = Tpch.Schema.catalog ()

let test_distribution_matches_table2 () =
  List.iter
    (fun (table, db, loc) ->
      match Catalog.placements cat table with
      | [ p ] ->
        Alcotest.(check string) (table ^ " db") db p.Catalog.db;
        Alcotest.(check string) (table ^ " loc") loc p.Catalog.location
      | _ -> Alcotest.failf "%s should have one placement" table)
    Tpch.Schema.distribution

let tiny = Tpch.Datagen.generate ~sf:0.002 ()

(* A generated table is typed columns in schema order: its row count is
   a column's length (not [Array.length], which counts columns), and a
   cell reads through [Column.get]. *)
let card (cols : Storage.Column.t array) = Storage.Column.length cols.(0)

let iter_rows cols f =
  for i = 0 to card cols - 1 do
    f (fun j -> Storage.Column.get cols.(j) i)
  done

let test_datagen_shapes () =
  Alcotest.(check int) "regions" 5 (card tiny.Tpch.Datagen.region);
  Alcotest.(check int) "nations" 25 (card tiny.Tpch.Datagen.nation);
  Alcotest.(check bool) "lineitems per order 1..7" true
    (let n_ord = card tiny.Tpch.Datagen.orders in
     let n_li = card tiny.Tpch.Datagen.lineitem in
     n_li >= n_ord && n_li <= 7 * n_ord);
  Alcotest.(check int) "partsupp = 4x part" (4 * card tiny.Tpch.Datagen.part)
    (card tiny.Tpch.Datagen.partsupp)

let test_datagen_deterministic () =
  let values cols = Array.map Storage.Column.to_values cols in
  let a = Tpch.Datagen.generate ~seed:5 ~sf:0.002 () in
  let b = Tpch.Datagen.generate ~seed:5 ~sf:0.002 () in
  Alcotest.(check bool) "same data" true
    (values a.Tpch.Datagen.orders = values b.Tpch.Datagen.orders);
  let c = Tpch.Datagen.generate ~seed:6 ~sf:0.002 () in
  Alcotest.(check bool) "different seeds differ" true
    (values c.Tpch.Datagen.orders <> values a.Tpch.Datagen.orders)

let test_referential_integrity () =
  let n_cust = card tiny.Tpch.Datagen.customer in
  let n_part = card tiny.Tpch.Datagen.part in
  let n_supp = card tiny.Tpch.Datagen.supplier in
  let n_ord = card tiny.Tpch.Datagen.orders in
  iter_rows tiny.Tpch.Datagen.orders (fun row ->
      match row 1 with
      | Value.Int ck ->
        if ck < 1 || ck > n_cust then Alcotest.failf "orders.custkey %d out of range" ck
      | _ -> Alcotest.fail "orders.custkey not an int");
  iter_rows tiny.Tpch.Datagen.lineitem (fun row ->
      (match row 0 with
      | Value.Int ok ->
        if ok < 1 || ok > n_ord then Alcotest.failf "lineitem.orderkey %d" ok
      | _ -> Alcotest.fail "orderkey");
      (match row 1 with
      | Value.Int pk -> if pk < 1 || pk > n_part then Alcotest.failf "lineitem.partkey %d" pk
      | _ -> Alcotest.fail "partkey");
      match row 2 with
      | Value.Int sk -> if sk < 1 || sk > n_supp then Alcotest.failf "lineitem.suppkey %d" sk
      | _ -> Alcotest.fail "suppkey");
  iter_rows tiny.Tpch.Datagen.supplier (fun row ->
      match row 2 with
      | Value.Int nk -> if nk < 0 || nk > 24 then Alcotest.failf "nation.regionkey? %d" nk
      | _ -> ())

let test_dates_in_range () =
  let lo = Option.get (Value.date_of_string "1992-01-01") in
  let hi = Option.get (Value.date_of_string "1998-12-31") in
  iter_rows tiny.Tpch.Datagen.orders (fun row ->
      match row 4 with
      | Value.Date d ->
        if d < lo || d > hi then
          Alcotest.failf "orderdate out of range: %s" (Value.date_to_string d)
      | _ -> Alcotest.fail "orderdate not a date")

let test_load_partitions () =
  let pcat =
    Tpch.Schema.catalog ~partition_tables:[ "customer" ] ~partition_count:3 ()
  in
  let db = Tpch.Datagen.load ~cat:pcat tiny in
  let total =
    List.fold_left
      (fun acc i ->
        match Storage.Database.find db ~table:"customer" ~partition:i () with
        | Some r -> acc + Storage.Relation.cardinality r
        | None -> Alcotest.failf "missing partition %d" i)
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check int) "partitions cover the table" (card tiny.Tpch.Datagen.customer) total

(* --- pinned generated data ---

   Every stored table and partition at seed 7 in three setups: the MD5
   of its CSV, each column's variant (i/f/s/d/b typed, v boxed; "?" =
   has a NULL bitmap) and its byte size. A change to the generator, the
   column builders or the round-robin split that moves one value, one
   variant or one byte fails here. *)

let variant (c : Storage.Column.t) =
  (match c.Storage.Column.data with
  | Ints _ -> "i" | Floats _ -> "f" | Strs _ -> "s" | Dates _ -> "d" | Bools _ -> "b"
  | Values _ -> "v")
  ^ if Storage.Column.has_nulls c then "?" else ""

let pinned_setups =
  [
    ( "sf 0.002, one site per table", 0.002, Tpch.Schema.catalog (),
      [
        ("customer", 0, "4fc130c973c3a4f951279f6fee1fcbd4", "issisfss", 27176);
        ("lineitem", 0, "8c4c64f47666798755e118e4d85fa4bf", "iiiiifffssdddsss", 1383091);
        ("nation", 0, "22415eddf09432878f9013e7e4713627", "isis", 802);
        ("orders", 0, "d93a4dded3044531bdc1a3b238e4e519", "iisfdssis", 232377);
        ("part", 0, "267fb0d7c6b0fd56c4ddcaf33825929f", "issssisfs", 44905);
        ("partsupp", 0, "e38547e96888c59cb8de650e0d606f22", "iiifs", 60800);
        ("region", 0, "27e893a5a10e194effcb5879a8b1363f", "iss", 119);
        ("supplier", 0, "44e8d9f1f46b51b641a43befd683c71b", "issisfs", 1531);
      ] );
    ( "sf 0.0003, customer/orders/supplier over 5 sites", 0.0003,
      Tpch.Schema.catalog ~partition_tables:[ "customer"; "orders"; "supplier" ]
        ~partition_count:5 (),
      [
        ("customer", 0, "6b2fe81c7e79e7391d08200ce4482903", "issisfss", 806);
        ("customer", 1, "f3f72d84d051ee112babc7c58bfaa032", "issisfss", 810);
        ("customer", 2, "1f194a623a3fd182cb6c2beb594041b2", "issisfss", 809);
        ("customer", 3, "9c64e9107e1cf26551a90f52471f9572", "issisfss", 809);
        ("customer", 4, "7530e019a5680fdac1cd15da017114ff", "issisfss", 719);
        ("lineitem", 0, "94464035f9c270d66ff3fb3ffacfee50", "iiiiifffssdddsss", 217337);
        ("nation", 0, "22415eddf09432878f9013e7e4713627", "isis", 802);
        ("orders", 0, "52117d20f01172bc1b28d588889677e6", "iisfdssis", 6996);
        ("orders", 1, "12ce7b0fc1c77569d1f8c32adb7ecb6b", "iisfdssis", 6940);
        ("orders", 2, "383bcbe38a7cdf03e8402b327b47f185", "iisfdssis", 6997);
        ("orders", 3, "320db28df39ef6dc018d2010e006256c", "iisfdssis", 7028);
        ("orders", 4, "9a5dad28e9bc6af8f14bfdda80821659", "iisfdssis", 6872);
        ("part", 0, "25aa70cd4c0561ef57a79211cfa80fb4", "issssisfs", 6597);
        ("partsupp", 0, "081c30a9773238201674064fc39590e9", "iiifs", 8968);
        ("region", 0, "27e893a5a10e194effcb5879a8b1363f", "iss", 119);
        ("supplier", 0, "32f38f1655c3cce9a953c3ec85aac532", "issisfs", 76);
        ("supplier", 1, "66461c83ca7d56d15eb2aa5c2ee0447b", "issisfs", 76);
        ("supplier", 2, "950abd0ce7ab8415ef2a520db76c650d", "issisfs", 76);
        ("supplier", 3, "0855f8ff28e91cf00b1340f2886f4bbf", "issisfs", 76);
        ("supplier", 4, "44e50ed424250affc15d748a169e2e04", "issisfs", 76);
      ] );
    ( "sf 0.02, customer/orders over 3 sites", 0.02,
      Tpch.Schema.catalog ~partition_tables:[ "customer"; "orders" ] ~partition_count:3 (),
      [
        ("customer", 0, "a077b825ba044e5a40b1a573e6845863", "issisfss", 91586);
        ("customer", 1, "a7c6262f692a240afc9bdef6db267fe0", "issisfss", 91625);
        ("customer", 2, "6b3738f6213cf1821ff034c7b10b4c31", "issisfss", 91626);
        ("lineitem", 0, "6fce1e61b016346c90feb8cf241335bf", "iiiiifffssdddsss", 13916177);
        ("nation", 0, "22415eddf09432878f9013e7e4713627", "isis", 802);
        ("orders", 0, "9ec0cf4e25cc3f173083df194997057f", "iisfdssis", 774611);
        ("orders", 1, "003fe36adb3c198aaeff0f0663913462", "iisfdssis", 774243);
        ("orders", 2, "34bac2cda7e9567e52f2b255e726a53b", "iisfdssis", 774007);
        ("part", 0, "fdc7f5cd9641c79eaf3d42c973e93b46", "issssisfs", 449342);
        ("partsupp", 0, "5613df71270792f38543b05aee0f6df6", "iiifs", 608000);
        ("region", 0, "27e893a5a10e194effcb5879a8b1363f", "iss", 119);
        ("supplier", 0, "08a0e6d857f6044f6baba6e5f3c12733", "issisfs", 15492);
      ] );
  ]

let test_pinned_data () =
  List.iter
    (fun (setup, sf, cat, expect) ->
      let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~seed:7 ~sf ()) in
      Alcotest.(check (list (pair string int)))
        (setup ^ ": stored tables")
        (List.map (fun (t, p, _, _, _) -> (t, p)) expect)
        (Storage.Database.tables db);
      List.iter
        (fun (table, partition, digest, variants, bytes) ->
          let r = Storage.Database.find_exn db ~table ~partition () in
          let label = Printf.sprintf "%s: %s[%d]" setup table partition in
          Alcotest.(check string) (label ^ " csv digest") digest
            (Digest.to_hex (Digest.string (Storage.Relation.to_csv r)));
          Alcotest.(check string) (label ^ " variants") variants
            (String.concat "" (Array.to_list (Array.map variant (Storage.Relation.cols r))));
          Alcotest.(check int) (label ^ " byte size") bytes (Storage.Relation.byte_size r))
        expect)
    pinned_setups

let table_cols t =
  Option.map (fun e -> Catalog.Table_def.col_names e.Catalog.def) (Catalog.find_table cat t)

let test_queries_parse_and_bind () =
  List.iter
    (fun (name, sql) ->
      match Sqlfront.Binder.plan_of_sql ~table_cols sql with
      | plan ->
        Alcotest.(check bool) (name ^ " has joins") true (Plan.join_count plan >= 2)
      | exception e -> Alcotest.failf "%s failed: %s" name (Printexc.to_string e))
    Tpch.Queries.all

let test_extended_queries_parse_and_plan () =
  let pols = Tpch.Policies.catalog_of cat Tpch.Policies.CRA in
  List.iter
    (fun (name, sql) ->
      match Optimizer.Planner.optimize_sql ~cat ~policies:pols sql with
      | Optimizer.Planner.Planned p ->
        Alcotest.(check bool) (name ^ " compliant") true
          (p.Optimizer.Planner.violations = [])
      | Optimizer.Planner.Rejected r -> Alcotest.failf "%s rejected: %s" name r)
    Tpch.Queries.extended;
  Alcotest.(check int) "twelve queries total" 12 (List.length Tpch.Queries.all_extended)

let test_single_site_queries_ship_nothing () =
  (* Q1 and Q6 touch only lineitem: their plans must contain no SHIP *)
  let pols = Tpch.Policies.catalog_of cat Tpch.Policies.CRA in
  List.iter
    (fun name ->
      match Optimizer.Planner.optimize_sql ~cat ~policies:pols (Tpch.Queries.by_name name) with
      | Optimizer.Planner.Planned p ->
        Alcotest.(check int) (name ^ " no ships") 0
          (List.length (Exec.Pplan.ships p.Optimizer.Planner.plan))
      | Optimizer.Planner.Rejected r -> Alcotest.failf "%s rejected: %s" name r)
    [ "Q1"; "Q6" ]

let test_query_join_complexity () =
  let joins name = Plan.join_count (Sqlfront.Binder.plan_of_sql ~table_cols (Tpch.Queries.by_name name)) in
  (* the paper's complexity buckets: Q3/Q10 low, Q5/Q9 medium, Q2/Q8 high *)
  Alcotest.(check int) "Q3" 2 (joins "Q3");
  Alcotest.(check int) "Q10" 3 (joins "Q10");
  Alcotest.(check int) "Q5" 5 (joins "Q5");
  Alcotest.(check int) "Q9" 5 (joins "Q9");
  Alcotest.(check int) "Q8" 7 (joins "Q8");
  Alcotest.(check int) "Q2" 8 (joins "Q2")

let test_policy_sets_parse () =
  List.iter
    (fun set ->
      let pc = Tpch.Policies.catalog_of cat set in
      Alcotest.(check bool)
        (Tpch.Policies.set_name_to_string set ^ " non-empty")
        true
        (Policy.Pcatalog.size pc >= 8))
    Tpch.Policies.all_sets;
  Alcotest.(check int) "T has 8" 8 (List.length Tpch.Policies.set_t);
  Alcotest.(check int) "C has 10" 10 (List.length Tpch.Policies.set_c);
  Alcotest.(check int) "CR has 10" 10 (List.length Tpch.Policies.set_cr)

let test_workload_queries_valid () =
  let queries = Tpch.Workload.gen_queries ~seed:99 ~n:100 () in
  Alcotest.(check int) "100 queries" 100 (List.length queries);
  List.iter
    (fun sql ->
      match Sqlfront.Binder.plan_of_sql ~table_cols sql with
      | plan ->
        (* every ad-hoc query must span >= 2 locations (§7.1) *)
        let locs =
          Plan.base_tables plan
          |> List.map (fun (_, t) -> Catalog.home_location cat t)
          |> List.sort_uniq String.compare
        in
        Alcotest.(check bool) "spans locations" true (List.length locs >= 2)
      | exception e -> Alcotest.failf "generated query invalid: %s\n%s" (Printexc.to_string e) sql)
    queries

let test_workload_aggregate_share () =
  let queries = Tpch.Workload.gen_queries ~seed:7 ~n:200 () in
  let n_agg =
    List.length
      (List.filter
         (fun q ->
           let ast = Sqlfront.Parser.query q in
           Sqlfront.Ast.is_aggregate_query ast)
         queries)
  in
  (* ~30% aggregation queries (§7.1) *)
  Alcotest.(check bool) "aggregate share ~30%" true (n_agg > 30 && n_agg < 90)

let test_generated_expressions_parse () =
  List.iter
    (fun template ->
      let texts = Tpch.Workload.gen_expressions ~seed:3 ~template ~n:50 () in
      Alcotest.(check int) "50 expressions" 50 (List.length texts);
      List.iter
        (fun t ->
          match Policy.Expression.parse cat t with
          | _ -> ()
          | exception e ->
            Alcotest.failf "bad expression %S: %s" t (Printexc.to_string e))
        texts)
    Tpch.Policies.all_sets

let test_generated_cra_has_aggregates () =
  let texts = Tpch.Workload.gen_expressions ~seed:3 ~template:Tpch.Policies.CRA ~n:60 () in
  let n_agg =
    List.length
      (List.filter
         (fun t -> Policy.Expression.is_aggregate (Policy.Expression.parse cat t))
         texts)
  in
  Alcotest.(check bool) "some aggregate expressions" true (n_agg > 5)

let () =
  Alcotest.run "tpch"
    [
      ( "schema",
        [
          Alcotest.test_case "table 2 distribution" `Quick test_distribution_matches_table2;
          Alcotest.test_case "policy sets parse" `Quick test_policy_sets_parse;
        ] );
      ( "datagen",
        [
          Alcotest.test_case "shapes" `Quick test_datagen_shapes;
          Alcotest.test_case "deterministic" `Quick test_datagen_deterministic;
          Alcotest.test_case "referential integrity" `Quick test_referential_integrity;
          Alcotest.test_case "dates in range" `Quick test_dates_in_range;
          Alcotest.test_case "partitioned load" `Quick test_load_partitions;
          Alcotest.test_case "pinned data at seed 7" `Quick test_pinned_data;
        ] );
      ( "queries",
        [
          Alcotest.test_case "parse and bind" `Quick test_queries_parse_and_bind;
          Alcotest.test_case "join complexity" `Quick test_query_join_complexity;
          Alcotest.test_case "extended workload" `Quick test_extended_queries_parse_and_plan;
          Alcotest.test_case "single-site ship nothing" `Quick
            test_single_site_queries_ship_nothing;
        ] );
      ( "workload",
        [
          Alcotest.test_case "queries valid" `Quick test_workload_queries_valid;
          Alcotest.test_case "aggregate share" `Quick test_workload_aggregate_share;
          Alcotest.test_case "expressions parse" `Quick test_generated_expressions_parse;
          Alcotest.test_case "cra aggregates" `Quick test_generated_cra_has_aggregates;
        ] );
    ]
