open Relalg
module P = Sqlfront.Parser
module Ast = Sqlfront.Ast

let test_lexer_basics () =
  let toks = Sqlfront.Lexer.tokenize "SELECT a, b FROM t WHERE x >= 1.5" in
  Alcotest.(check int) "token count" 11 (List.length toks);
  (match toks with
  | Sqlfront.Lexer.Ident "select" :: _ -> ()
  | _ -> Alcotest.fail "keywords are lowercased")

let test_lexer_db_dash () =
  (* database names like db-5 lex as one identifier *)
  match Sqlfront.Lexer.tokenize "db-5.nation" with
  | [ Ident "db-5"; Dot; Ident "nation"; Eof ] -> ()
  | ts ->
    Alcotest.failf "unexpected tokens: %s"
      (String.concat " " (List.map Sqlfront.Lexer.token_to_string ts))

let test_lexer_arith_minus () =
  (* 1-discount: minus after a number is an operator *)
  match Sqlfront.Lexer.tokenize "(1-discount)" with
  | [ Lparen; Int_lit 1; Minus; Ident "discount"; Rparen; Eof ] -> ()
  | _ -> Alcotest.fail "minus after digit should be an operator"

let test_lexer_string_escape () =
  match Sqlfront.Lexer.tokenize "'it''s'" with
  | [ String_lit "it's"; Eof ] -> ()
  | _ -> Alcotest.fail "doubled quote escape"

let test_parse_simple_query () =
  let q = P.query "SELECT c.name, c.custkey FROM customer AS c WHERE c.acctbal > 100" in
  Alcotest.(check int) "two items" 2 (List.length q.Ast.select);
  Alcotest.(check int) "one table" 1 (List.length q.Ast.from);
  Alcotest.(check bool) "has where" true (q.Ast.where <> Pred.True);
  Alcotest.(check bool) "not aggregate" false (Ast.is_aggregate_query q)

let test_parse_join_query () =
  let q =
    P.query
      "SELECT c.name, SUM(o.totprice) FROM customer c, orders o \
       WHERE c.custkey = o.custkey GROUP BY c.name"
  in
  Alcotest.(check int) "two tables" 2 (List.length q.Ast.from);
  Alcotest.(check bool) "aggregate" true (Ast.is_aggregate_query q);
  Alcotest.(check int) "one group key" 1 (List.length q.Ast.group_by)

let test_parse_expressions () =
  let q = P.query "SELECT sum(extendedprice * (1 - discount)) AS rev FROM lineitem" in
  match q.Ast.select with
  | [ Ast.Agg_item (Expr.Sum, Expr.Binop (Expr.Mul, _, _), Some "rev") ] -> ()
  | _ -> Alcotest.fail "aggregate over arithmetic expression"

let test_parse_count_star () =
  let q = P.query "SELECT count(*) FROM t" in
  match q.Ast.select with
  | [ Ast.Agg_item (Expr.Count, Expr.Const (Value.Int 1), None) ] -> ()
  | _ -> Alcotest.fail "count(*)"

let test_parse_predicates () =
  let q =
    P.query
      "SELECT a FROM t WHERE (size > 40 OR type LIKE '%COPPER%') AND d BETWEEN 1 AND 5 \
       AND r IN ('x','y') AND n IS NOT NULL"
  in
  Alcotest.(check int) "conjunct count" 5 (List.length (Pred.conjuncts q.Ast.where))

let test_parse_date_literal () =
  let q = P.query "SELECT a FROM t WHERE shipdate >= '1994-01-01'" in
  match Pred.conjuncts q.Ast.where with
  | [ Pred.Atom (Pred.Cmp (Pred.Ge, _, Expr.Const (Value.Date _))) ] -> ()
  | _ -> Alcotest.fail "ISO string should become a date"

let test_parse_order_limit () =
  let q =
    P.query "SELECT a, b FROM t WHERE a > 1 ORDER BY a DESC, b LIMIT 10"
  in
  (match q.Ast.order_by with
  | [ (a1, true); (a2, false) ] ->
    Alcotest.(check string) "first key" "a" a1.Attr.name;
    Alcotest.(check string) "second key" "b" a2.Attr.name
  | _ -> Alcotest.fail "order by keys");
  Alcotest.(check (option int)) "limit" (Some 10) q.Ast.limit;
  let q2 = P.query "SELECT a FROM t" in
  Alcotest.(check (option int)) "no limit" None q2.Ast.limit;
  Alcotest.(check int) "no order" 0 (List.length q2.Ast.order_by)

let test_parse_having () =
  let q =
    P.query
      "SELECT mktsegment, sum(acctbal) AS total FROM customer \
       GROUP BY mktsegment HAVING total > 100"
  in
  Alcotest.(check bool) "having parsed" true (q.Ast.having <> Pred.True);
  (match P.query "SELECT a FROM t" with
  | q2 -> Alcotest.(check bool) "default true" true (q2.Ast.having = Pred.True));
  (* HAVING without grouping is rejected at bind time *)
  match
    Sqlfront.Binder.plan_of_sql
      ~table_cols:(fun _ -> Some [ "a" ])
      "SELECT a FROM t HAVING a > 1"
  with
  | exception Sqlfront.Binder.Error _ -> ()
  | _ -> Alcotest.fail "HAVING without aggregation must fail"

let test_parse_errors () =
  let expect_fail sql =
    match P.query sql with
    | exception P.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" sql
  in
  expect_fail "SELECT FROM t";
  expect_fail "SELECT a";
  expect_fail "SELECT a FROM t WHERE";
  expect_fail "SELECT a FROM t GROUP BY";
  expect_fail "SELECT a FROM t extra garbage )";
  (* an integer literal past [max_int] is a syntax error, not a Failure *)
  let out_of_range parse text ~offset =
    match parse text with
    | exception P.Error m ->
      Alcotest.(check string) text
        (Printf.sprintf "integer literal out of range at offset %d" offset)
        m
    | _ -> Alcotest.failf "expected parse error for %S" text
  in
  out_of_range P.query "SELECT a FROM t WHERE t.a = 99999999999999999999" ~offset:28;
  out_of_range P.query "SELECT a FROM t LIMIT 99999999999999999999" ~offset:22;
  out_of_range P.policy "ship a from t to * where t.a > 99999999999999999999" ~offset:31

let test_parse_policy_basic () =
  let p = P.policy "ship custkey, name from Customer C to Asia, Europe" in
  Alcotest.(check bool) "cols" true (p.Ast.ship_attrs = Ast.Attr_list [ "custkey"; "name" ]);
  Alcotest.(check bool) "alias" true (p.Ast.p_alias = Some "c");
  Alcotest.(check bool) "basic" true (p.Ast.aggregates = []);
  match p.Ast.to_locs with
  | Ast.Loc_list [ "asia"; "europe" ] -> ()
  | _ -> Alcotest.fail "locations"

let test_parse_policy_aggregate () =
  let p =
    P.policy
      "ship acctbal as aggregates sum, avg from Customer to * group by mktseg, region"
  in
  Alcotest.(check bool) "agg fns" true (p.Ast.aggregates = [ Expr.Sum; Expr.Avg ]);
  Alcotest.(check bool) "all locs" true (p.Ast.to_locs = Ast.All_locs);
  Alcotest.(check bool) "group" true (p.Ast.p_group_by = [ "mktseg"; "region" ])

let test_parse_policy_db_qualified () =
  let p =
    P.policy
      "ship partkey, mfgr, size, type, name from db-3.part to L4 \
       where size > 40 OR type LIKE '%COPPER%'"
  in
  Alcotest.(check bool) "db" true (p.Ast.p_db = Some "db-3");
  Alcotest.(check string) "table" "part" p.Ast.p_table;
  Alcotest.(check bool) "where" true (p.Ast.p_where <> Pred.True)

let test_parse_policy_star () =
  let p = P.policy "ship * from db-5.nation to *" in
  Alcotest.(check bool) "all attrs" true (p.Ast.ship_attrs = Ast.All_attrs);
  Alcotest.(check bool) "all locs" true (p.Ast.to_locs = Ast.All_locs)

(* --- binder tests --- *)

let table_cols = function
  | "customer" -> Some [ "custkey"; "name"; "acctbal"; "mktseg"; "region" ]
  | "orders" -> Some [ "custkey"; "ordkey"; "totprice" ]
  | "supply" -> Some [ "ordkey"; "quantity"; "extprice" ]
  | _ -> None

let test_bind_simple () =
  let plan =
    Sqlfront.Binder.plan_of_sql ~table_cols "SELECT name FROM customer WHERE acctbal > 10"
  in
  match plan with
  | Plan.Project ([ (Expr.Col a, _) ], Plan.Select (_, Plan.Scan _)) ->
    Alcotest.(check string) "qualified" "customer" a.Attr.rel
  | _ -> Alcotest.failf "unexpected plan %s" (Plan.to_string plan)

let test_bind_ambiguous () =
  match
    Sqlfront.Binder.plan_of_sql ~table_cols "SELECT custkey FROM customer, orders"
  with
  | exception Sqlfront.Binder.Error _ -> ()
  | _ -> Alcotest.fail "custkey is ambiguous"

let test_bind_unknown_column () =
  match Sqlfront.Binder.plan_of_sql ~table_cols "SELECT nosuch FROM customer" with
  | exception Sqlfront.Binder.Error _ -> ()
  | _ -> Alcotest.fail "unknown column must fail"

let test_bind_unknown_table () =
  match Sqlfront.Binder.plan_of_sql ~table_cols "SELECT a FROM nothere" with
  | exception Sqlfront.Binder.Error _ -> ()
  | _ -> Alcotest.fail "unknown table must fail"

let test_bind_aggregate_shape () =
  let plan =
    Sqlfront.Binder.plan_of_sql ~table_cols
      "SELECT c.name, SUM(o.totprice), SUM(s.quantity) FROM customer c, orders o, supply s \
       WHERE c.custkey = o.custkey AND o.ordkey = s.ordkey GROUP BY c.name"
  in
  match plan with
  | Plan.Project (items, Plan.Aggregate { keys; aggs; input = Plan.Select (_, _) }) ->
    Alcotest.(check int) "three outputs" 3 (List.length items);
    Alcotest.(check int) "one key" 1 (List.length keys);
    Alcotest.(check int) "two aggs" 2 (List.length aggs)
  | _ -> Alcotest.failf "unexpected plan %s" (Plan.to_string plan)

let test_bind_scalar_not_grouped () =
  match
    Sqlfront.Binder.plan_of_sql ~table_cols
      "SELECT name, sum(acctbal) FROM customer GROUP BY mktseg"
  with
  | exception Sqlfront.Binder.Error _ -> ()
  | _ -> Alcotest.fail "name is not in group by"

let () =
  Alcotest.run "parser"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "db dash" `Quick test_lexer_db_dash;
          Alcotest.test_case "arith minus" `Quick test_lexer_arith_minus;
          Alcotest.test_case "string escape" `Quick test_lexer_string_escape;
        ] );
      ( "query",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple_query;
          Alcotest.test_case "join+group" `Quick test_parse_join_query;
          Alcotest.test_case "expressions" `Quick test_parse_expressions;
          Alcotest.test_case "count star" `Quick test_parse_count_star;
          Alcotest.test_case "predicates" `Quick test_parse_predicates;
          Alcotest.test_case "date literal" `Quick test_parse_date_literal;
          Alcotest.test_case "order/limit" `Quick test_parse_order_limit;
          Alcotest.test_case "having" `Quick test_parse_having;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "policy",
        [
          Alcotest.test_case "basic" `Quick test_parse_policy_basic;
          Alcotest.test_case "aggregate" `Quick test_parse_policy_aggregate;
          Alcotest.test_case "db qualified" `Quick test_parse_policy_db_qualified;
          Alcotest.test_case "stars" `Quick test_parse_policy_star;
        ] );
      ( "binder",
        [
          Alcotest.test_case "simple" `Quick test_bind_simple;
          Alcotest.test_case "ambiguous" `Quick test_bind_ambiguous;
          Alcotest.test_case "unknown column" `Quick test_bind_unknown_column;
          Alcotest.test_case "unknown table" `Quick test_bind_unknown_table;
          Alcotest.test_case "aggregate shape" `Quick test_bind_aggregate_shape;
          Alcotest.test_case "scalar not grouped" `Quick test_bind_scalar_not_grouped;
        ] );
    ]
