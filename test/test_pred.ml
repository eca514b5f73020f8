open Relalg

let a name = Attr.make ~rel:"t" ~name
let col name = Expr.Col (a name)
let int n = Expr.Const (Value.Int n)
let cmp c l r = Pred.Atom (Pred.Cmp (c, l, r))

let lookup_of bindings attr =
  match List.find_opt (fun (n, _) -> Attr.equal (a n) attr) bindings with
  | Some (_, v) -> v
  | None -> Value.Null

let test_eval_basic () =
  let p = Pred.And (cmp Pred.Gt (col "x") (int 5), cmp Pred.Lt (col "y") (int 3)) in
  Alcotest.(check bool) "true case" true
    (Pred.eval (lookup_of [ ("x", Value.Int 10); ("y", Value.Int 1) ]) p);
  Alcotest.(check bool) "false case" false
    (Pred.eval (lookup_of [ ("x", Value.Int 10); ("y", Value.Int 9) ]) p);
  Alcotest.(check bool) "null comparisons are false" false
    (Pred.eval (lookup_of [ ("y", Value.Int 1) ]) p)

let test_eval_or_not () =
  let p = Pred.Or (cmp Pred.Eq (col "x") (int 1), Pred.Not (cmp Pred.Eq (col "y") (int 2))) in
  Alcotest.(check bool) "left or" true
    (Pred.eval (lookup_of [ ("x", Value.Int 1); ("y", Value.Int 2) ]) p);
  Alcotest.(check bool) "not branch" true
    (Pred.eval (lookup_of [ ("x", Value.Int 0); ("y", Value.Int 3) ]) p);
  Alcotest.(check bool) "both fail" false
    (Pred.eval (lookup_of [ ("x", Value.Int 0); ("y", Value.Int 2) ]) p)

let test_like () =
  Alcotest.(check bool) "prefix" true (Pred.like_match ~pattern:"abc%" "abcdef");
  Alcotest.(check bool) "suffix" true (Pred.like_match ~pattern:"%def" "abcdef");
  Alcotest.(check bool) "infix" true (Pred.like_match ~pattern:"%cd%" "abcdef");
  Alcotest.(check bool) "underscore" true (Pred.like_match ~pattern:"a_c" "abc");
  Alcotest.(check bool) "underscore strict" false (Pred.like_match ~pattern:"a_c" "abbc");
  Alcotest.(check bool) "exact" true (Pred.like_match ~pattern:"abc" "abc");
  Alcotest.(check bool) "no match" false (Pred.like_match ~pattern:"x%" "abc");
  Alcotest.(check bool) "empty pattern" false (Pred.like_match ~pattern:"" "abc");
  Alcotest.(check bool) "lone percent" true (Pred.like_match ~pattern:"%" "");
  Alcotest.(check bool) "double percent" true (Pred.like_match ~pattern:"%%COPPER%%" "XCOPPERY")

(* LIKE by its definition, recursing over both strings: '%' matches
   any sequence, '_' any single character, anything else itself. *)
let rec like_reference p s =
  match p with
  | [] -> s = []
  | '%' :: p' -> like_reference p' s || (s <> [] && like_reference p (List.tl s))
  | '_' :: p' -> s <> [] && like_reference p' (List.tl s)
  | c :: p' -> (match s with c' :: s' -> c = c' && like_reference p' s' | [] -> false)

let prop_like_reference =
  let word = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_range 0 8)) in
  QCheck.Test.make ~name:"LIKE agrees with the recursive definition" ~count:2000
    (QCheck.make ~print:(fun (p, s) -> Printf.sprintf "%S LIKE %S" s p)
       QCheck.Gen.(pair word word))
    (fun (p, s) ->
      let chars x = List.init (String.length x) (String.get x) in
      Pred.like_match ~pattern:p s = like_reference (chars p) (chars s))

let test_in_and_null () =
  let p = Pred.Atom (Pred.In (col "x", [ Value.Int 1; Value.Int 2 ])) in
  Alcotest.(check bool) "in hit" true (Pred.eval (lookup_of [ ("x", Value.Int 2) ]) p);
  Alcotest.(check bool) "in miss" false (Pred.eval (lookup_of [ ("x", Value.Int 3) ]) p);
  Alcotest.(check bool) "in null" false (Pred.eval (lookup_of []) p);
  Alcotest.(check bool) "is null" true
    (Pred.eval (lookup_of []) (Pred.Atom (Pred.Is_null (col "x"))));
  Alcotest.(check bool) "not null" true
    (Pred.eval (lookup_of [ ("x", Value.Int 0) ]) (Pred.Atom (Pred.Not_null (col "x"))))

let test_conjuncts () =
  let p =
    Pred.And (cmp Pred.Gt (col "x") (int 5), Pred.And (Pred.True, cmp Pred.Lt (col "y") (int 3)))
  in
  Alcotest.(check int) "two conjuncts" 2 (List.length (Pred.conjuncts p));
  Alcotest.(check int) "true has none" 0 (List.length (Pred.conjuncts Pred.True))

let test_conj_disj_simplification () =
  Alcotest.(check bool) "conj true" true (Pred.conj Pred.True Pred.True = Pred.True);
  Alcotest.(check bool) "conj false" true (Pred.conj Pred.False Pred.True = Pred.False);
  Alcotest.(check bool) "disj true" true (Pred.disj Pred.True Pred.False = Pred.True)

let test_cols () =
  let p = Pred.And (cmp Pred.Eq (col "x") (col "y"), cmp Pred.Gt (col "z") (int 1)) in
  Alcotest.(check int) "three columns" 3 (Attr.Set.cardinal (Pred.cols p))

(* random predicate generator over small domain for property tests *)
let gen_pred =
  let open QCheck.Gen in
  let atom =
    let* name = oneofl [ "x"; "y"; "z" ] in
    let* v = int_range 0 10 in
    let* c = oneofl [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ] in
    return (cmp c (col name) (Expr.Const (Value.Int v)))
  in
  let rec go depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map2 (fun l r -> Pred.And (l, r)) (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun l r -> Pred.Or (l, r)) (go (depth - 1)) (go (depth - 1)));
          (1, map (fun p -> Pred.Not p) (go (depth - 1)));
        ]
  in
  go 3

let gen_binding =
  QCheck.Gen.(
    let* x = int_range 0 10 and* y = int_range 0 10 and* z = int_range 0 10 in
    return [ ("x", Value.Int x); ("y", Value.Int y); ("z", Value.Int z) ])

let prop_double_negation =
  QCheck.Test.make ~name:"NOT NOT p = p under eval" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_pred gen_binding))
    (fun (p, b) ->
      Pred.eval (lookup_of b) (Pred.Not (Pred.Not p)) = Pred.eval (lookup_of b) p)

let prop_demorgan =
  QCheck.Test.make ~name:"De Morgan under eval" ~count:500
    (QCheck.make QCheck.Gen.(triple gen_pred gen_pred gen_binding))
    (fun (p, q, b) ->
      let l = lookup_of b in
      Pred.eval l (Pred.Not (Pred.And (p, q)))
      = Pred.eval l (Pred.Or (Pred.Not p, Pred.Not q)))

let test_attr_make () =
  let a = Attr.make ~rel:"L" ~name:"ShipDate" in
  Alcotest.(check string) "lowercased" "l.shipdate" (Attr.to_string a);
  let rel = "l" and name = "shipdate" in
  let b = Attr.make ~rel ~name in
  Alcotest.(check bool) "lowercase rel kept, not copied" true (b.Attr.rel == rel);
  Alcotest.(check bool) "lowercase name kept, not copied" true (b.Attr.name == name);
  Alcotest.(check bool) "unqualified name kept" true ((Attr.unqualified name).Attr.name == name);
  Alcotest.(check string) "mixed case" "l_x9" (Attr.make ~rel:"" ~name:"L_X9").Attr.name

let () =
  Alcotest.run "pred"
    [
      ( "pred",
        [
          Alcotest.test_case "eval basic" `Quick test_eval_basic;
          Alcotest.test_case "eval or/not" `Quick test_eval_or_not;
          Alcotest.test_case "like" `Quick test_like;
          Alcotest.test_case "in/null" `Quick test_in_and_null;
          Alcotest.test_case "conjuncts" `Quick test_conjuncts;
          Alcotest.test_case "conj/disj simplify" `Quick test_conj_disj_simplification;
          Alcotest.test_case "cols" `Quick test_cols;
          Alcotest.test_case "attr make" `Quick test_attr_make;
          QCheck_alcotest.to_alcotest prop_like_reference;
          QCheck_alcotest.to_alcotest prop_double_negation;
          QCheck_alcotest.to_alcotest prop_demorgan;
        ] );
    ]
