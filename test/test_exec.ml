(* Execution-engine tests: each physical operator, SHIP accounting, and
   ship insertion. *)

open Relalg
module P = Exec.Pplan

let network = Catalog.Network.uniform ~locations:[ "x"; "y" ] ~alpha:10. ~beta:1.0

let attr rel name = Attr.make ~rel ~name
let col rel name = Expr.Col (attr rel name)

let db_with tables =
  let db = Storage.Database.create () in
  List.iter
    (fun (name, cols, rows) ->
      let schema = List.map (fun c -> attr name c) cols in
      Storage.Database.add db ~table:name
        (Storage.Relation.make ~schema ~rows:(Array.of_list rows)))
    tables;
  db

let table_cols = function
  | "r" -> [ "a"; "b" ]
  | "s" -> [ "a"; "c" ]
  | "t" -> [ "k"; "f"; "d"; "w"; "z" ]
  | "w" -> [ "k"; "g"; "pad" ]
  | "p" | "q" -> [ "k"; "i"; "d"; "f"; "s"; "v" ]
  | "e" | "g" -> [ "x"; "n"; "a"; "b"; "c1"; "c2"; "c3"; "m"; "mq"; "d"; "h"; "l"; "dn"; "s" ]
  | t -> Alcotest.failf "unknown table %s" t

(* A table past several 256-row batches and a 64-group key table, for the
   differentials: [k] Ints with NULLs; [f] Floats holding [0.0] and
   [-0.0] (which compare equal) and integer-valued floats equal to
   some [k]; [d] Dates with the same numbers as [k] (never equal to
   them); [w] Strs with NULLs; [z] Ints with NULLs spread over
   -50,000 .. 50,002, past the direct key tables' bound, where [k]'s
   400 values fit it. Group [k = 50] sums [-0.0]s only. *)
let t_rows =
  List.init 1100 (fun i ->
      [|
        (if i mod 13 = 0 then Value.Null else Value.Int (i mod 400));
        (if i mod 50 = 0 then Value.Float (if i mod 100 = 0 then 0.0 else -0.0)
         else if i mod 3 = 0 then Value.Float (float_of_int (i mod 400))
         else Value.Float (float_of_int i +. 0.25));
        Value.Date (i mod 400);
        (if i mod 17 = 0 then Value.Null else Value.Str (Printf.sprintf "w%d" (i mod 300)));
        (if i mod 29 = 0 then Value.Null else Value.Int ((i * 7919 mod 100_003) - 50_000));
      |])

let default_db () =
  db_with
    [
      ( "r",
        [ "a"; "b" ],
        [
          [| Value.Int 1; Value.Str "one" |];
          [| Value.Int 2; Value.Str "two" |];
          [| Value.Int 3; Value.Str "three" |];
        ] );
      ( "s",
        [ "a"; "c" ],
        [
          [| Value.Int 1; Value.Int 10 |];
          [| Value.Int 1; Value.Int 20 |];
          [| Value.Int 3; Value.Int 30 |];
          [| Value.Int 4; Value.Int 40 |];
        ] );
      ("t", table_cols "t", t_rows);
    ]

let node ?(loc = "x") ?(est = { P.est_rows = 1.; est_width = 8. }) n children =
  { P.node = n; loc; children; est }

let run ?(db = default_db ()) plan =
  Exec.Interp.run ~network ~db ~table_cols plan

let scan ?(loc = "x") t = node ~loc (P.Table_scan { table = t; alias = t; partition = 0 }) []

let test_scan () =
  let r = run (scan "r") in
  Alcotest.(check int) "three rows" 3 (Storage.Relation.cardinality r.relation);
  Alcotest.(check int) "two cols" 2 (List.length (Storage.Relation.schema r.relation))

let test_filter () =
  let plan =
    node (P.Filter (Pred.Atom (Pred.Cmp (Pred.Ge, col "r" "a", Expr.Const (Value.Int 2)))))
      [ scan "r" ]
  in
  let r = run plan in
  Alcotest.(check int) "two rows" 2 (Storage.Relation.cardinality r.relation)

let test_project () =
  let plan =
    node
      (P.Project
         [ (Expr.Binop (Expr.Mul, col "r" "a", Expr.Const (Value.Int 10)), Attr.unqualified "x") ])
      [ scan "r" ]
  in
  let r = run plan in
  let rows = Storage.Relation.rows r.relation in
  Alcotest.(check bool) "computed" true (Value.equal rows.(0).(0) (Value.Int 10));
  Alcotest.(check bool) "computed2" true (Value.equal rows.(2).(0) (Value.Int 30))

let test_hash_join () =
  let plan =
    node
      (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [ scan "r"; scan "s" ]
  in
  let r = run plan in
  (* keys 1 (x2), 3 (x1): 3 join rows *)
  Alcotest.(check int) "join rows" 3 (Storage.Relation.cardinality r.relation);
  Alcotest.(check int) "concat schema" 4 (List.length (Storage.Relation.schema r.relation))

let test_hash_join_residual () =
  let plan =
    node
      (P.Hash_join
         {
           keys = [ (attr "r" "a", attr "s" "a") ];
           residual = Pred.Atom (Pred.Cmp (Pred.Gt, col "s" "c", Expr.Const (Value.Int 15)));
         })
      [ scan "r"; scan "s" ]
  in
  let r = run plan in
  Alcotest.(check int) "residual filters" 2 (Storage.Relation.cardinality r.relation)

let test_nl_join () =
  let plan =
    node
      (P.Nl_join (Pred.Atom (Pred.Cmp (Pred.Lt, col "r" "a", col "s" "c"))))
      [ scan "r"; scan "s" ]
  in
  let r = run plan in
  (* all 12 combinations satisfy a < c *)
  Alcotest.(check int) "cross filtered" 12 (Storage.Relation.cardinality r.relation)

let test_merge_join () =
  (* inputs sorted ascending on the key; duplicate keys on both sides *)
  let db =
    db_with
      [
        ( "r",
          [ "a"; "b" ],
          [
            [| Value.Int 1; Value.Str "r1" |];
            [| Value.Int 1; Value.Str "r1b" |];
            [| Value.Int 2; Value.Str "r2" |];
            [| Value.Int 4; Value.Str "r4" |];
          ] );
        ( "s",
          [ "a"; "c" ],
          [
            [| Value.Int 1; Value.Int 10 |];
            [| Value.Int 1; Value.Int 11 |];
            [| Value.Int 3; Value.Int 30 |];
            [| Value.Int 4; Value.Int 40 |];
          ] );
      ]
  in
  let merge =
    node
      (P.Merge_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [ scan "r"; scan "s" ]
  in
  let hash =
    node
      (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [ scan "r"; scan "s" ]
  in
  let rows p =
    Storage.Relation.rows (run ~db p).relation
    |> Array.to_list |> List.map Array.to_list
    |> List.sort (List.compare Value.compare)
  in
  (* 2x2 for key 1, plus key 4: five rows, identical to the hash join *)
  Alcotest.(check int) "five rows" 5 (List.length (rows merge));
  Alcotest.(check bool) "merge = hash" true (rows merge = rows hash)

let test_merge_join_nulls_and_residual () =
  let db =
    db_with
      [
        ("r", [ "a"; "b" ], [ [| Value.Null; Value.Str "n" |]; [| Value.Int 1; Value.Str "x" |] ]);
        ("s", [ "a"; "c" ], [ [| Value.Int 1; Value.Int 5 |]; [| Value.Int 1; Value.Int 50 |] ]);
      ]
  in
  let plan =
    node
      (P.Merge_join
         {
           keys = [ (attr "r" "a", attr "s" "a") ];
           residual = Pred.Atom (Pred.Cmp (Pred.Gt, col "s" "c", Expr.Const (Value.Int 10)));
         })
      [ scan "r"; scan "s" ]
  in
  let r = run ~db plan in
  Alcotest.(check int) "null skipped, residual filters" 1
    (Storage.Relation.cardinality r.relation)

let test_sort_operator () =
  let plan = node (P.Sort [ (attr "s" "c", true) ]) [ scan "s" ] in
  let r = run plan in
  let look = Storage.Relation.lookup_of_schema (Storage.Relation.schema r.relation) in
  let vals =
    Array.to_list (Storage.Relation.rows r.relation)
    |> List.map (fun row -> look (attr "s" "c") row)
  in
  let rec desc = function
    | a :: (b :: _ as rest) -> Value.compare a b >= 0 && desc rest
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (desc vals);
  (* on both engines: equal keys keep their input order, and an
     unknown attribute reads NULL on every row, so it never orders *)
  let db =
    db_with
      [
        ( "r",
          [ "a"; "b" ],
          List.map
            (fun (a, b) -> [| Value.Int a; Value.Str b |])
            [ (3, "c"); (1, "a"); (2, "b"); (1, "z") ] );
      ]
  in
  List.iter
    (fun engine ->
      let sorted keys =
        let plan = node (P.Sort keys) [ scan "r" ] in
        let r = Exec.Engine.run ~engine ~network ~db ~table_cols plan in
        List.map (fun row -> (row.(0), row.(1))) (Array.to_list (Storage.Relation.rows r.relation))
      in
      let name = Exec.Engine.to_string engine in
      let expect what want got =
        if got <> List.map (fun (a, b) -> (Value.Int a, Value.Str b)) want then
          Alcotest.failf "%s: %s" name what
      in
      expect "stable ascending"
        [ (1, "a"); (1, "z"); (2, "b"); (3, "c") ]
        (sorted [ (attr "r" "a", false) ]);
      expect "unknown attribute never orders"
        [ (3, "c"); (2, "b"); (1, "a"); (1, "z") ]
        (sorted [ (attr "r" "zzz", false); (attr "r" "a", true) ]))
    [ Exec.Engine.Reference; Exec.Engine.Vector ]

let test_hash_agg () =
  let plan =
    node
      (P.Hash_agg
         {
           keys = [ attr "s" "a" ];
           aggs =
             [
               { Expr.fn = Expr.Sum; arg = col "s" "c"; alias = "total" };
               { Expr.fn = Expr.Count; arg = Expr.Const (Value.Int 1); alias = "n" };
               { Expr.fn = Expr.Min; arg = col "s" "c"; alias = "lo" };
               { Expr.fn = Expr.Max; arg = col "s" "c"; alias = "hi" };
               { Expr.fn = Expr.Avg; arg = col "s" "c"; alias = "mean" };
             ];
         })
      [ scan "s" ]
  in
  let r = run plan in
  Alcotest.(check int) "three groups" 3 (Storage.Relation.cardinality r.relation);
  let look = Storage.Relation.lookup_of_schema (Storage.Relation.schema r.relation) in
  let find_group k =
    match
      Array.find_opt
        (fun row -> Value.equal (look (attr "s" "a") row) (Value.Int k))
        (Storage.Relation.rows r.relation)
    with
    | Some row -> row
    | None -> Alcotest.failf "group %d missing" k
  in
  let g1 = find_group 1 in
  Alcotest.(check bool) "sum" true (Value.equal (look (Attr.unqualified "total") g1) (Value.Int 30));
  Alcotest.(check bool) "count" true (Value.equal (look (Attr.unqualified "n") g1) (Value.Int 2));
  Alcotest.(check bool) "min" true (Value.equal (look (Attr.unqualified "lo") g1) (Value.Int 10));
  Alcotest.(check bool) "max" true (Value.equal (look (Attr.unqualified "hi") g1) (Value.Int 20));
  Alcotest.(check bool) "avg" true
    (Value.equal (look (Attr.unqualified "mean") g1) (Value.Float 15.))

let test_global_agg_empty_input () =
  let plan =
    node
      (P.Hash_agg
         {
           keys = [];
           aggs = [ { Expr.fn = Expr.Count; arg = Expr.Const (Value.Int 1); alias = "n" } ];
         })
      [
        node (P.Filter Pred.False) [ scan "s" ];
      ]
  in
  let r = run plan in
  Alcotest.(check int) "one row" 1 (Storage.Relation.cardinality r.relation);
  let row = (Storage.Relation.rows r.relation).(0) in
  Alcotest.(check bool) "count zero" true (Value.equal row.(0) (Value.Int 0))

let test_union_all () =
  let plan = node P.Union_all [ scan "r"; scan "r" ] in
  let r = run plan in
  Alcotest.(check int) "doubled" 6 (Storage.Relation.cardinality r.relation)

let test_ship_accounting () =
  let inner = scan ~loc:"y" "r" in
  let plan =
    node (P.Ship { from_loc = "y"; to_loc = "x" }) [ inner ]
  in
  let r = run plan in
  Alcotest.(check int) "one ship" 1 (List.length r.stats.Exec.Interp.ships);
  let s = List.hd r.stats.Exec.Interp.ships in
  Alcotest.(check int) "rows shipped" 3 s.Exec.Interp.rows;
  Alcotest.(check bool) "bytes positive" true (s.Exec.Interp.bytes > 0);
  (* alpha 10 + beta 1.0 per byte *)
  Alcotest.(check (float 1e-6)) "cost model" (10. +. float_of_int s.Exec.Interp.bytes)
    s.Exec.Interp.cost_ms

let test_multisite_join_accounting () =
  (* Both join inputs cross the wire: every per-operator figure in the
     Obs profile must agree with the stats block and with the network
     cost model. *)
  let plan =
    node
      (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [
        node (P.Ship { from_loc = "y"; to_loc = "x" }) [ scan ~loc:"y" "r" ];
        node (P.Ship { from_loc = "y"; to_loc = "x" }) [ scan ~loc:"y" "s" ];
      ]
  in
  let r = run plan in
  let ships = r.stats.Exec.Interp.ships in
  Alcotest.(check int) "two ships" 2 (List.length ships);
  List.iter
    (fun (s : Exec.Interp.ship_record) ->
      Alcotest.(check (float 1e-6)) "cost model per ship"
        (Catalog.Network.ship_cost network ~from_loc:s.from_loc ~to_loc:s.to_loc
           ~bytes:(float_of_int s.bytes))
        s.cost_ms;
      Alcotest.(check int) "single attempt" 1 s.attempts)
    ships;
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 ships in
  Alcotest.(check int) "payload total"
    (sum (fun (s : Exec.Interp.ship_record) -> s.bytes))
    (Exec.Interp.total_ship_bytes r.stats);
  Alcotest.(check int) "retry-free traffic equals payload"
    (Exec.Interp.total_ship_bytes r.stats)
    (Exec.Interp.total_traffic_bytes r.stats);
  (* profile cross-check: the SHIP operators' profile entries carry the
     same records, and their actual rows/bytes are the shipped ones *)
  let profiled =
    List.filter_map (fun (p : Exec.Interp.node_profile) -> Option.map (fun s -> (p, s)) p.ship)
      r.profile
  in
  Alcotest.(check int) "profiled ships" 2 (List.length profiled);
  List.iter
    (fun ((p : Exec.Interp.node_profile), (s : Exec.Interp.ship_record)) ->
      Alcotest.(check bool) "profile record is the stats record" true
        (List.mem s ships);
      Alcotest.(check int) "profile rows" s.rows p.actual_rows;
      Alcotest.(check int) "profile bytes" s.bytes p.actual_bytes)
    profiled;
  (* the r-side ship moved 3 rows, the s-side 4 *)
  Alcotest.(check (list int)) "row counts" [ 3; 4 ]
    (List.sort compare (List.map (fun (s : Exec.Interp.ship_record) -> s.rows) ships))

let test_retry_accounting_totals () =
  (* Under a flaky link, retried bytes count once toward the payload
     totals (the result is delivered once) and [attempts] times toward
     the traffic the wire actually carried. Drop fates are a pure
     function of the schedule seed, so scan seeds until one yields a
     completed run that did retry — the pick is then deterministic
     forever. *)
  let plan = node (P.Ship { from_loc = "y"; to_loc = "x" }) [ scan ~loc:"y" "r" ] in
  let flaky seed =
    Catalog.Network.Fault.make ~seed
      [ Catalog.Network.Fault.Transient_drop { from_loc = "x"; to_loc = "y"; p = 0.5 } ]
  in
  let rec find seed =
    if seed > 1000 then Alcotest.fail "no seed in 0..1000 yields a retried success"
    else
      match Exec.Interp.run ~faults:(flaky seed) ~network ~db:(default_db ()) ~table_cols plan with
      | r when r.Exec.Interp.stats.Exec.Interp.ship_retries > 0 -> (seed, r)
      | _ | (exception Exec.Interp.Ship_failed _) -> find (seed + 1)
  in
  let _seed, r = find 0 in
  let s = List.hd r.Exec.Interp.stats.Exec.Interp.ships in
  Alcotest.(check int) "retries = attempts - 1"
    (s.Exec.Interp.attempts - 1)
    r.Exec.Interp.stats.Exec.Interp.ship_retries;
  Alcotest.(check int) "payload counted once" s.Exec.Interp.bytes
    (Exec.Interp.total_ship_bytes r.Exec.Interp.stats);
  Alcotest.(check int) "traffic counted per attempt"
    (s.Exec.Interp.bytes * s.Exec.Interp.attempts)
    (Exec.Interp.total_traffic_bytes r.Exec.Interp.stats);
  (* the delivered relation is the same as a fault-free run's *)
  let clean = run plan in
  Alcotest.(check string) "same delivered bytes"
    (Storage.Relation.to_csv clean.Exec.Interp.relation)
    (Storage.Relation.to_csv r.Exec.Interp.relation);
  (* each failed attempt also pays its transfer before backing off *)
  let one_try =
    Catalog.Network.ship_cost network ~from_loc:"y" ~to_loc:"x"
      ~bytes:(float_of_int s.Exec.Interp.bytes)
  in
  Alcotest.(check bool) "cost exceeds attempts * transfer" true
    (s.Exec.Interp.cost_ms
    >= (float_of_int s.Exec.Interp.attempts *. one_try) -. 1e-9)

let test_with_ships () =
  let j =
    node ~loc:"x"
      (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [ scan ~loc:"x" "r"; scan ~loc:"y" "s" ]
  in
  let shipped = P.with_ships j in
  let ships = P.ships shipped in
  Alcotest.(check int) "one ship inserted" 1 (List.length ships);
  (match ships with
  | [ (f, t, _) ] ->
    Alcotest.(check string) "from" "y" f;
    Alcotest.(check string) "to" "x" t
  | _ -> Alcotest.fail "expected one ship");
  (* executing the shipped plan matches the unshipped result *)
  let r1 = run j and r2 = run shipped in
  Alcotest.(check int) "same result"
    (Storage.Relation.cardinality r1.relation)
    (Storage.Relation.cardinality r2.relation)

let test_makespan_parallel_branches () =
  (* two shipped children proceed in parallel: the makespan reflects the
     slower branch plus local work, not the sum *)
  let j =
    node ~loc:"x"
      (P.Nl_join Pred.True)
      [
        node ~loc:"x" (P.Ship { from_loc = "y"; to_loc = "x" }) [ scan ~loc:"y" "r" ];
        node ~loc:"x" (P.Ship { from_loc = "y"; to_loc = "x" }) [ scan ~loc:"y" "s" ];
      ]
  in
  let r = run j in
  let total = Exec.Interp.total_ship_cost r.stats in
  Alcotest.(check bool) "makespan below the serial total" true
    (r.Exec.Interp.makespan_ms < total);
  Alcotest.(check bool) "but at least the slower ship" true
    (r.Exec.Interp.makespan_ms
    >= List.fold_left
         (fun m (s : Exec.Interp.ship_record) -> Float.max m s.cost_ms)
         0. r.stats.Exec.Interp.ships)

let test_malformed_plan () =
  let bad = node (P.Filter Pred.True) [] in
  match run bad with
  | exception Exec.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "malformed plan must raise"

(* --- engine equivalence --------------------------------------------

   The vectorized engine must be byte-identical to the reference
   interpreter: same rows in the same order, same SHIP records (order,
   bytes, cost, retry fates), same per-operator profiles, same
   makespan. *)

let result_fp (r : Exec.Interp.result) =
  ( Storage.Relation.to_csv r.relation,
    r.stats.Exec.Interp.ships,
    r.stats.Exec.Interp.rows_processed,
    r.stats.Exec.Interp.ship_retries,
    r.profile,
    r.makespan_ms )

let check_engines_agree ?faults ?(network = network) ~db ~table_cols plan =
  let a = Exec.Interp.run ?faults ~network ~db ~table_cols plan
  and b = Exec.Vector.run ?faults ~network ~db ~table_cols plan in
  if result_fp a <> result_fp b then
    Alcotest.failf
      "reference and vector disagree on plan:@.%a@.reference rows=%d ships=%d \
       makespan=%.6f@.vector rows=%d ships=%d makespan=%.6f@.reference \
       csv:@.%s@.vector csv:@.%s"
      (P.pp ?indent:None) plan
      (Storage.Relation.cardinality a.relation)
      (List.length a.stats.Exec.Interp.ships)
      a.makespan_ms
      (Storage.Relation.cardinality b.relation)
      (List.length b.stats.Exec.Interp.ships)
      b.makespan_ms
      (Storage.Relation.to_csv a.relation)
      (Storage.Relation.to_csv b.relation)

(* The qcheck differentials draw from [QCHECK_SEED] (default 0, so
   [dune runtest] is deterministic); a failing property prints the seed
   it ran with, for replay. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

let check_prop test =
  try QCheck.Test.check_exn ~rand:(Random.State.make [| qcheck_seed |]) test
  with e ->
    Printf.eprintf "qcheck seed: %d (replay with QCHECK_SEED=%d)\n%!" qcheck_seed qcheck_seed;
    raise e

(* Random well-formed plans over the r/s/t tables, tracking each
   subplan's attribute universe so predicates, projections and join
   keys always reference live columns (dead references are legal too —
   they read NULL — and the generator produces some via the shared
   attr pool). Each subplan also carries whether it may be large (it
   reads [t]): a nested-loop join needs one small side. *)
module Plangen = struct
  open QCheck

  let locs = [ "x"; "y" ]

  let base_attrs = function
    | "r" -> [ attr "r" "a"; attr "r" "b" ]
    | "s" -> [ attr "s" "a"; attr "s" "c" ]
    | _ -> List.map (attr "t") (table_cols "t")

  (* Floats include both zeros and an integer-valued one (3.0 equals
     [t.k]'s and [t.f]'s 3); strings match [r.b]'s and [t.w]'s; dates
     fall within [t.d]'s 0-399. *)
  let int_const = Gen.map (fun i -> Value.Int i) (Gen.int_range 0 5)
  let float_const =
    Gen.oneofl [ Value.Float 0.0; Value.Float (-0.0); Value.Float 1.5; Value.Float 3.0 ]
  let str_const = Gen.map (fun s -> Value.Str s) (Gen.oneofl [ "one"; "two"; "three"; "w1"; "w12" ])

  let const_gen =
    Gen.frequency
      [
        (3, int_const);
        (1, float_const);
        (2, str_const);
        (1, Gen.return Value.Null);
        (1, Gen.map (fun d -> Value.Date d) (Gen.int_range 0 399));
      ]

  (* An IN list: 1-3 constants, or one each of Int, Float and Str. *)
  let in_list_gen =
    Gen.oneof
      [
        Gen.list_size (Gen.int_range 1 3) const_gen;
        Gen.map3 (fun i f s -> [ i; f; s ]) int_const float_const str_const;
      ]

  let num_const_gen =
    Gen.oneof
      [
        Gen.map (fun i -> Value.Int i) (Gen.int_range 0 5);
        Gen.oneofl [ Value.Float 1.5; Value.Float 2.0; Value.Float (-0.0) ];
      ]

  let binop_gen = Gen.oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div ]

  let scalar_gen attrs =
    let col = Gen.map (fun a -> Expr.Col a) (Gen.oneofl attrs) in
    Gen.oneof
      [
        col;
        Gen.map (fun v -> Expr.Const v) const_gen;
        Gen.map3
          (fun op l r -> Expr.Binop (op, l, r))
          binop_gen col
          (Gen.map (fun v -> Expr.Const v) const_gen);
      ]

  (* An aggregate argument: a column, or arithmetic over two columns or
     over a column and a numeric constant. *)
  let agg_arg_gen attrs =
    let col = Gen.map (fun a -> Expr.Col a) (Gen.oneofl attrs) in
    Gen.frequency
      [
        (2, col);
        (1, Gen.map3 (fun op l r -> Expr.Binop (op, l, r)) binop_gen col col);
        ( 1,
          Gen.map3
            (fun op l r -> Expr.Binop (op, l, r))
            binop_gen col
            (Gen.map (fun v -> Expr.Const v) num_const_gen) );
      ]

  let agg_fn_gen = Gen.oneofl [ Expr.Sum; Expr.Count; Expr.Min; Expr.Max; Expr.Avg ]

  (* A [Hash_agg] over [p] and its output attributes. *)
  let agg_node p keys fns =
    let aggs =
      List.mapi (fun i (fn, arg) -> { Expr.fn; arg; alias = Printf.sprintf "g%d" i }) fns
    in
    ( node (P.Hash_agg { keys; aggs }) [ p ],
      keys @ List.map (fun (a : Expr.agg) -> Attr.unqualified a.alias) aggs )

  (* Column-vs-constant comparisons get their own arm: they are the
     typed loops' commonest case. *)
  let atom_gen attrs =
    let open Gen in
    let cmp = oneofl [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ] in
    frequency
      [
        (1, map3 (fun c l r -> Pred.Cmp (c, l, r)) cmp (scalar_gen attrs) (scalar_gen attrs));
        ( 1,
          map3 (fun c a v -> Pred.Cmp (c, Expr.Col a, Expr.Const v)) cmp (oneofl attrs) const_gen
        );
        ( 1,
          map2
            (fun a pat -> Pred.Like (Expr.Col a, pat))
            (oneofl attrs)
            (oneofl [ "%o%"; "t__"; "one"; "%e"; "w1%"; "%_2" ]) );
        (1, map2 (fun e vs -> Pred.In (e, vs)) (scalar_gen attrs) in_list_gen);
        (1, map (fun a -> Pred.Is_null (Expr.Col a)) (oneofl attrs));
        (1, map (fun a -> Pred.Not_null (Expr.Col a)) (oneofl attrs));
      ]

  let rec pred_gen depth attrs =
    let open Gen in
    if depth = 0 then map (fun a -> Pred.Atom a) (atom_gen attrs)
    else
      frequency
        [
          (3, map (fun a -> Pred.Atom a) (atom_gen attrs));
          ( 1,
            map2 (fun l r -> Pred.And (l, r))
              (pred_gen (depth - 1) attrs)
              (pred_gen (depth - 1) attrs) );
          ( 1,
            map2 (fun l r -> Pred.Or (l, r))
              (pred_gen (depth - 1) attrs)
              (pred_gen (depth - 1) attrs) );
          (1, map (fun p -> Pred.Not p) (pred_gen (depth - 1) attrs));
          (1, oneofl [ Pred.True; Pred.False ]);
        ]

  (* 1-3 join key pairs. *)
  let key_pairs_gen lattrs rattrs =
    Gen.list_size (Gen.int_range 1 3) (Gen.pair (Gen.oneofl lattrs) (Gen.oneofl rattrs))

  (* 1-3 key pairs joining [t] with itself: each column with itself,
     the Int-vs-Float ([k], [f]) and Int-vs-Date ([k], [d]) pairs,
     which must follow [Value] equality (the latter never matches), and
     the dense [k] against the spread [z], whose key tables are direct
     over a [k] build side and hashed over a [z] one. *)
  let t_key_pairs_gen =
    Gen.list_size (Gen.int_range 1 3)
      (Gen.oneofl
         (List.map
            (fun (l, r) -> (attr "t" l, attr "t" r))
            [
              ("k", "k"); ("f", "f"); ("d", "d"); ("w", "w");
              ("k", "f"); ("f", "k"); ("k", "d"); ("d", "k");
              ("z", "z"); ("k", "z"); ("z", "k");
            ]))

  (* A generated subplan, the attributes its output carries, and
     whether it may be large. *)
  let scan_gen =
    Gen.map2
      (fun t loc -> (scan ~loc t, base_attrs t, t = "t"))
      (Gen.oneofl [ "r"; "s"; "t" ]) (Gen.oneofl locs)

  (* [t], sometimes filtered: a side of the [t]-with-itself joins. *)
  let t_gen =
    Gen.map2
      (fun loc pr ->
        let p = scan ~loc "t" in
        ((match pr with Some pr -> node (P.Filter pr) [ p ] | None -> p), base_attrs "t", true))
      (Gen.oneofl locs)
      (Gen.opt ~ratio:0.25 (pred_gen 1 (base_attrs "t")))

  let ship_wrap =
    Gen.map2
      (fun f t -> fun (p, attrs, big) ->
        (node (P.Ship { from_loc = f; to_loc = t }) [ p ], attrs, big))
      (Gen.oneofl locs) (Gen.oneofl locs)

  let rec plan_gen depth =
    let open Gen in
    if depth = 0 then scan_gen
    else
      let sub = plan_gen (depth - 1) in
      frequency
        [
          (2, scan_gen);
          ( 2,
            sub >>= fun (p, attrs, big) ->
            map (fun pr -> (node (P.Filter pr) [ p ], attrs, big)) (pred_gen 2 attrs) );
          ( 1,
            sub >>= fun (p, attrs, big) ->
            map
              (fun scalars ->
                let items =
                  List.mapi
                    (fun i e -> (e, Attr.unqualified (Printf.sprintf "p%d" i)))
                    scalars
                in
                (node (P.Project items) [ p ], List.map snd items, big))
              (list_size (int_range 1 3) (scalar_gen attrs)) );
          ( 1,
            sub >>= fun (p, attrs, big) ->
            map
              (fun keys ->
                (node (P.Sort (List.map (fun (a, d) -> (a, d)) keys)) [ p ], attrs, big))
              (list_size (int_range 1 2) (pair (oneofl attrs) bool)) );
          ( 1,
            sub >>= fun (p, attrs, big) ->
            map2
              (fun keys fns ->
                let n, out = agg_node p keys fns in
                (n, out, big && keys <> []))
              (list_size (int_range 0 2) (oneofl attrs))
              (list_size (int_range 1 2) (pair agg_fn_gen (agg_arg_gen attrs))) );
          ( 1,
            sub >>= fun (lp, lattrs, lbig) ->
            sub >>= fun (rp, rattrs, rbig) ->
            map2
              (fun keys residual ->
                ( node (P.Hash_join { keys; residual }) [ lp; rp ],
                  lattrs @ rattrs,
                  lbig || rbig ))
              (key_pairs_gen lattrs rattrs)
              (pred_gen 1 (lattrs @ rattrs)) );
          ( 1,
            sub >>= fun (lp, lattrs, lbig) ->
            sub >>= fun (rp, rattrs, rbig) ->
            map2
              (fun keys residual ->
                (* merge join over (sometimes) sorted inputs; byte-
                   identity must hold either way *)
                let lp = node (P.Sort (List.map (fun (la, _) -> (la, false)) keys)) [ lp ] in
                ( node (P.Merge_join { keys; residual }) [ lp; rp ],
                  lattrs @ rattrs,
                  lbig || rbig ))
              (key_pairs_gen lattrs rattrs)
              (pred_gen 1 (lattrs @ rattrs)) );
          ( 1,
            (* a filter over [t], whose typed columns hold NULLs, both
               float zeros and integer-valued floats *)
            map2
              (fun loc pr -> (node (P.Filter pr) [ scan ~loc "t" ], base_attrs "t", true))
              (oneofl locs)
              (pred_gen 2 (base_attrs "t")) );
          ( 1,
            (* grouped aggregates over [t], favouring its float column:
               [0.0] and [-0.0] keys form one group, and some groups
               sum [-0.0]s only *)
            t_gen >>= fun (p, attrs, _) ->
            map2
              (fun keys fns ->
                let n, out = agg_node p keys fns in
                (n, out, true))
              (list_size (int_range 1 2) (oneofl attrs))
              (list_size (int_range 1 2)
                 (pair agg_fn_gen
                    (oneof [ return (Expr.Col (attr "t" "f")); agg_arg_gen attrs ]))) );
          ( 1,
            (* [t] with itself: typed, string and mixed key pairs *)
            t_gen >>= fun (lp, lattrs, _) ->
            t_gen >>= fun (rp, rattrs, _) ->
            map3
              (fun merge keys residual ->
                let residual = Option.value residual ~default:Pred.True in
                let node_ =
                  if merge then P.Merge_join { keys; residual } else P.Hash_join { keys; residual }
                in
                (node node_ [ lp; rp ], lattrs @ rattrs, true))
              bool t_key_pairs_gen
              (opt ~ratio:0.25 (pred_gen 1 (lattrs @ rattrs))) );
          ( 1,
            sub >>= fun (lp, lattrs, lbig) ->
            sub >>= fun (rp, rattrs, rbig) ->
            if lbig && rbig then return (lp, lattrs, lbig)
            else
              map
                (fun pr -> (node (P.Nl_join pr) [ lp; rp ], lattrs @ rattrs, lbig || rbig))
                (pred_gen 1 (lattrs @ rattrs)) );
          ( 1,
            (* union of two filters over the same scan: children share
               arity by construction *)
            scan_gen >>= fun (p, attrs, big) ->
            map2
              (fun pr1 pr2 ->
                ( node P.Union_all
                    [ node (P.Filter pr1) [ p ]; node (P.Filter pr2) [ p ] ],
                  attrs,
                  big ))
              (pred_gen 1 attrs) (pred_gen 1 attrs) );
          (2, map2 (fun w sub -> w sub) ship_wrap sub);
        ]

  let arbitrary_plan =
    QCheck.make
      ~print:(fun (p, _) -> Fmt.str "%a" (P.pp ?indent:None) p)
      Gen.(map (fun (p, attrs, _) -> (p, attrs)) (int_range 1 4 >>= plan_gen))
end

let test_differential_random_plans () =
  let db = default_db () in
  let prop (plan, _) =
    check_engines_agree ~db ~table_cols plan;
    true
  in
  check_prop
    (QCheck.Test.make ~count:300 ~name:"engines agree (fault-free)"
       Plangen.arbitrary_plan prop)

let test_differential_under_faults () =
  (* Under transient drops, both engines must see identical drop fates
     (ship-index keyed), hence identical retry counts and costs — or
     fail identically. *)
  let db = default_db () in
  let faults_of seed =
    Catalog.Network.Fault.make ~seed
      [
        Catalog.Network.Fault.Transient_drop { from_loc = "x"; to_loc = "y"; p = 0.4 };
      ]
  in
  let prop ((plan, _), seed) =
    let faults = faults_of seed in
    let run f =
      try Ok (result_fp (f ()))
      with Exec.Interp.Ship_failed { from_loc; to_loc; attempts; reason } ->
        Error (from_loc, to_loc, attempts, reason)
    in
    let reference = run (fun () -> Exec.Interp.run ~faults ~network ~db ~table_cols plan)
    and vector = run (fun () -> Exec.Vector.run ~faults ~network ~db ~table_cols plan) in
    if reference <> vector then
      Alcotest.failf "engines disagree under faults (seed %d) on plan:@.%a" seed
        (P.pp ?indent:None) plan;
    true
  in
  check_prop
    (QCheck.Test.make ~count:200 ~name:"engines agree (transient drops)"
       (QCheck.pair Plangen.arbitrary_plan QCheck.small_nat)
       prop)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* A fresh directory for segment files, removed with everything in it
   once [f] returns or raises. *)
let with_segment_dir f =
  let dir = Filename.temp_file "cgqp-pagedtest-" "" in
  Sys.remove dir;
  let dir = dir ^ ".d" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let test_differential_spill () =
  (* Out-of-core execution is invisible: the same plan over resident and
     paged (segment-backed) data, under an unlimited budget and under
     budget 0 (every hash join/agg Grace-partitions to disk), must
     produce byte-identical reports on both engines. The profile is part
     of the fingerprint, so a paged scan that decodes only its parent
     Project's columns must still record the whole relation's bytes. *)
  let resident = default_db () in
  with_segment_dir @@ fun dir ->
  let paged = Storage.Database.paged resident ~dir in
  let prop (plan, _) =
    let fps =
      List.concat_map
        (fun (store, db) ->
          List.concat_map
            (fun (engine, exec) ->
              List.map
                (fun budget -> (store ^ " " ^ engine, budget, result_fp (exec ~db ~budget)))
                [ Exec.Runtime.unlimited_budget; 0 ])
            [
              ( "reference",
                fun ~db ~budget -> Exec.Interp.run ~budget ~network ~db ~table_cols plan );
              ( "vector",
                fun ~db ~budget -> Exec.Vector.run ~budget ~network ~db ~table_cols plan );
            ])
        [ ("resident", resident); ("paged", paged) ]
    in
    let name_of, budget_of, fp_of =
      ( (fun (n, _, _) -> n),
        (fun (_, b, _) -> if b = 0 then "budget 0" else "unlimited"),
        fun (_, _, fp) -> fp )
    in
    let reference = List.hd fps in
    List.iter
      (fun other ->
        if fp_of other <> fp_of reference then
          Alcotest.failf
            "%s (%s) and %s (%s) disagree on plan:@.%a" (name_of reference)
            (budget_of reference) (name_of other) (budget_of other)
            (P.pp ?indent:None) plan)
      (List.tl fps);
    true
  in
  check_prop
    (QCheck.Test.make ~count:220
       ~name:"spill differential: resident vs paged, budget unlimited vs 0, both engines"
       Plangen.arbitrary_plan prop)

let test_paged_scan_pruning () =
  (* A paged scan under a Project decodes only the columns the Project
     reads: [Project [r.a] (Scan r)] over a two-segment table with a
     string column pages in one column per segment on Vector, while the
     reference engine's row view pages in both; results and profiles
     agree. *)
  let n = Storage.Segment.segment_rows + 1 in
  let resident =
    db_with
      [
        ( "r",
          [ "a"; "b" ],
          List.init n (fun i -> [| Value.Int i; Value.Str (Printf.sprintf "s%d" (i mod 97)) |])
        );
      ]
  in
  with_segment_dir @@ fun dir ->
  let db = Storage.Database.paged resident ~dir in
  let segments = (n + Storage.Segment.segment_rows - 1) / Storage.Segment.segment_rows in
  let plan = node (P.Project [ (col "r" "a", attr "r" "a") ]) [ scan "r" ] in
  let reads f =
    Storage.Segment.reset_page_reads ();
    let r = f () in
    (r, Storage.Segment.page_reads ())
  in
  let v, v_reads = reads (fun () -> Exec.Vector.run ~network ~db ~table_cols plan) in
  let i, i_reads = reads (fun () -> Exec.Interp.run ~network ~db ~table_cols plan) in
  Alcotest.(check int) "vector: one column per segment" segments v_reads;
  Alcotest.(check int) "reference: every column per segment" (2 * segments) i_reads;
  Alcotest.(check bool) "same report as reference" true (result_fp v = result_fp i);
  Alcotest.(check bool) "same report as resident" true
    (result_fp v = result_fp (Exec.Vector.run ~network ~db:resident ~table_cols plan))

(* Run [f] with [CGQP_SPILL_DIR] set to [dir], then restore its value
   (unset reads as empty: the system temp dir). *)
let with_spill_env dir f =
  let prev = Option.value (Sys.getenv_opt "CGQP_SPILL_DIR") ~default:"" in
  Unix.putenv "CGQP_SPILL_DIR" dir;
  Fun.protect ~finally:(fun () -> Unix.putenv "CGQP_SPILL_DIR" prev) f

(* A fresh directory as CGQP_SPILL_DIR while [f] runs, removed with
   everything in it once [f] returns or raises. *)
let with_spill_dir f =
  let dir = Filename.temp_file "cgqp-spilltest-" "" in
  Sys.remove dir;
  let dir = dir ^ ".d" in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> with_spill_env dir (fun () -> f dir))

(* Open descriptors, where /proc/self/fd lists them: a run file left
   open on any path shows up here. *)
let open_fds () =
  if Sys.file_exists "/proc/self/fd" then Array.length (Sys.readdir "/proc/self/fd") else 0

let test_spill_cleanup () =
  (* Spill run files must vanish on every exit path: normal completion
     and a Ship_failed unwind alike leave CGQP_SPILL_DIR empty. *)
  with_spill_dir (fun dir ->
      let db = default_db () in
      let spilling_join ?loc () =
        node ?loc
          (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
          [ scan ?loc "r"; scan ?loc "s" ]
      in
      let spilling_plan =
        node
          (P.Hash_agg
             {
               keys = [ attr "r" "b" ];
               aggs = [ { Expr.fn = Expr.Count; arg = Expr.Const (Value.Int 1); alias = "n" } ];
             })
          [ spilling_join () ]
      in
      let fds0 = open_fds () in
      let check_empty ctx =
        Alcotest.(check (array string))
          (ctx ^ ": spill dir empty") [||] (Sys.readdir dir);
        Alcotest.(check int) (ctx ^ ": no leaked descriptors") fds0 (open_fds ())
      in
      List.iter
        (fun (name, exec) ->
          let spilled0 = Exec.Runtime.spilled_operators () in
          let (_ : Exec.Interp.result) = exec ~budget:0 spilling_plan in
          Alcotest.(check bool)
            (name ^ ": operators spilled") true
            (Exec.Runtime.spilled_operators () > spilled0);
          check_empty (name ^ " after normal run"))
        [
          ("reference", fun ~budget p -> Exec.Interp.run ~budget ~network ~db ~table_cols p);
          ("vector", fun ~budget p -> Exec.Vector.run ~budget ~network ~db ~table_cols p);
        ];
      (* Ship_failed unwind: the SHIP above the spilling join crosses a
         permanently downed link, so execution aborts after the join has
         already spilled — cleanup must still run. *)
      let faults =
        Catalog.Network.Fault.make ~seed:7
          [ Catalog.Network.Fault.Link_down ("x", "y") ]
      in
      let doomed =
        node
          (P.Ship { from_loc = "y"; to_loc = "x" })
          [ spilling_join ~loc:"y" () ]
      in
      List.iter
        (fun (name, exec) ->
          (match exec ~budget:0 doomed with
          | (_ : Exec.Interp.result) ->
            Alcotest.failf "%s: downed link must raise Ship_failed" name
          | exception Exec.Interp.Ship_failed _ -> ());
          check_empty (name ^ " after Ship_failed"))
        [
          ( "reference",
            fun ~budget p -> Exec.Interp.run ~faults ~budget ~network ~db ~table_cols p );
          ( "vector",
            fun ~budget p -> Exec.Vector.run ~faults ~budget ~network ~db ~table_cols p );
        ])

let test_spill_dir_missing () =
  (* A spill directory that cannot be created is a [Runtime_error]
     naming it, on either engine, and leaves no file behind and no
     descriptor open. *)
  with_spill_dir @@ fun parent ->
  let missing = Filename.concat parent "missing" in
  with_spill_env missing @@ fun () ->
  let db = default_db () in
  let plan =
    node
      (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [ scan "r"; scan "s" ]
  in
  let fds0 = open_fds () in
  List.iter
    (fun engine ->
      let name = Exec.Engine.to_string engine in
      (match Exec.Engine.run ~engine ~budget:0 ~network ~db ~table_cols plan with
      | _ -> Alcotest.failf "%s: a missing spill directory must raise" name
      | exception Exec.Runtime.Runtime_error m ->
        Alcotest.(check bool)
          (name ^ ": the error names the directory") true
          (Astring.String.is_infix ~affix:missing m));
      Alcotest.(check (array string)) (name ^ ": nothing created") [||] (Sys.readdir parent);
      Alcotest.(check int) (name ^ ": no leaked descriptors") fds0 (open_fds ()))
    [ Exec.Engine.Reference; Exec.Engine.Vector ]

(* [Exec.Spill] driven directly, at budget 0 (64 partitions), over int
   keys with in-memory kernels that emit as the engines' do: probe rows
   in order, each one's matches in reverse build order; groups in
   first-seen order. *)
let spill_mem () =
  { Exec.Runtime.budget = 0; tracked = 0; peak = 0; spill_ops = 0; spill_parts = 0;
    spill_run_bytes = 0 }

let int_side keys =
  {
    Exec.Spill.rows = Array.length keys;
    hashes = [| (fun j -> Value.hash (Value.Int keys.(j))) |];
    gather = (fun pos -> Array.map (fun j -> keys.(j)) pos);
    key_bytes = (fun k -> 8 * Array.length k);
  }

let spill_keys = Array.init 500 (fun i -> i * 7 mod 97)

let int_join_kernel (p : int array Exec.Spill.block) (b : int array Exec.Spill.block) e =
  Array.iteri
    (fun i k ->
      for j = Array.length b.keys - 1 downto 0 do
        if b.keys.(j) = k then e i j
      done)
    p.keys

let int_agg_kernel (b : int array Exec.Spill.block) =
  let seen = Hashtbl.create 16 and firsts = Queue.create () in
  Array.iteri
    (fun j k ->
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        Queue.add j firsts
      end)
    b.keys;
  let firsts = Array.of_seq (Queue.to_seq firsts) in
  (Array.map (fun j -> b.keys.(j)) firsts, firsts)

exception Injected

let test_spill_injected_failures () =
  (* A failure inside a spilled operator, while it writes its run file
     (a side's [gather] raises on its second call) or while it reads
     blocks back (the kernel raises on its second call, after a match
     block has been appended), propagates unchanged and leaves no file
     and no open descriptor behind. *)
  with_spill_dir @@ fun dir ->
  let fds0 = open_fds () in
  let second_call_raises () =
    let calls = ref 0 in
    fun () ->
      incr calls;
      if !calls = 2 then raise Injected
  in
  let failing_gather () =
    let tick = second_call_raises () and side = int_side spill_keys in
    { side with gather = (fun pos -> tick (); side.gather pos) }
  in
  let side = int_side spill_keys and ignore2 _ _ = () in
  List.iter
    (fun (name, run) ->
      (match run () with
      | () -> Alcotest.failf "%s: the injected failure must propagate" name
      | exception Injected -> ());
      Alcotest.(check (array string)) (name ^ ": spill dir empty") [||] (Sys.readdir dir);
      Alcotest.(check int) (name ^ ": no leaked descriptors") fds0 (open_fds ()))
    [
      ( "join, mid-write",
        fun () ->
          Exec.Spill.join (spill_mem ()) ~bytes:0 ~kernel:int_join_kernel side
            (failing_gather ()) ignore2 );
      ( "join, mid-read",
        fun () ->
          let tick = second_call_raises () in
          Exec.Spill.join (spill_mem ()) ~bytes:0
            ~kernel:(fun p b e ->
              tick ();
              int_join_kernel p b e)
            side side ignore2 );
      ( "agg, mid-write",
        fun () ->
          ignore (Exec.Spill.agg (spill_mem ()) ~bytes:0 ~kernel:int_agg_kernel (failing_gather ()))
      );
      ( "agg, mid-read",
        fun () ->
          let tick = second_call_raises () in
          ignore
            (Exec.Spill.agg (spill_mem ()) ~bytes:0
               ~kernel:(fun b ->
                 tick ();
                 int_agg_kernel b)
               side) );
    ]

let test_spill_one_run_file () =
  (* A spilled operator holds exactly one file in CGQP_SPILL_DIR while
     its kernels run, and emits as the in-memory kernel does. *)
  with_spill_dir @@ fun dir ->
  let side = int_side spill_keys and whole = Exec.Spill.whole (int_side spill_keys) in
  let seen = ref [] in
  let listing kernel =
    seen := [];
    fun b ->
      seen := Array.length (Sys.readdir dir) :: !seen;
      kernel b
  in
  let check_one name =
    Alcotest.(check bool) (name ^ ": the kernel ran") true (!seen <> []);
    Alcotest.(check (list int)) (name ^ ": one file while it runs")
      (List.map (fun _ -> 1) !seen) !seen
  in
  let pairs = Queue.create () and expected = Queue.create () in
  Exec.Spill.join (spill_mem ()) ~bytes:0 ~kernel:(listing int_join_kernel) side side (fun l r ->
      Queue.add (l, r) pairs);
  check_one "join";
  int_join_kernel whole whole (fun l r -> Queue.add (l, r) expected);
  Alcotest.(check (list (pair int int))) "join: in-memory order"
    (List.of_seq (Queue.to_seq expected)) (List.of_seq (Queue.to_seq pairs));
  let groups = Exec.Spill.agg (spill_mem ()) ~bytes:0 ~kernel:(listing int_agg_kernel) side in
  check_one "agg";
  Alcotest.(check (array int)) "agg: first-seen order"
    (fst (int_agg_kernel whole))
    (Array.map (fun (g, i) -> g.(i)) groups)

let test_spill_order_and_hash () =
  (* The spill path partitions typed key columns and restores the
     in-memory order by logical position. Over a [Sort] the selection
     vector is a permutation, so an order restored by physical row
     differs; and a partition hash that disagrees with [Value.equal]
     sends equal keys to different partitions ([Int]-vs-[Float] join
     keys miss each other, [0.0] and [-0.0] split a group). Both
     engines, budget 0 and unlimited, must give one report. *)
  let db = default_db () in
  let t ?(alias = "t") () = node (P.Table_scan { table = "t"; alias; partition = 0 }) [] in
  let sorted child = node (P.Sort [ (attr "t" "w", true); (attr "t" "f", false) ]) [ child ] in
  let agg keys =
    node
      (P.Hash_agg
         {
           keys;
           aggs =
             [
               { Expr.fn = Expr.Sum; arg = col "t" "f"; alias = "s" };
               { Expr.fn = Expr.Count; arg = col "t" "k"; alias = "n" };
               { Expr.fn = Expr.Min; arg = col "t" "w"; alias = "lo" };
             ];
         })
      [ sorted (t ()) ]
  in
  let join keys =
    node (P.Hash_join { keys; residual = Pred.True }) [ sorted (t ()); t ~alias:"u" () ]
  in
  let plans =
    [
      ("agg by f", agg [ attr "t" "f" ]);
      ("agg by k, w", agg [ attr "t" "k"; attr "t" "w" ]);
      ("agg by d", agg [ attr "t" "d" ]);
      ("join k = u.f", join [ (attr "t" "k", attr "u" "f") ]);
      ("join f = u.f", join [ (attr "t" "f", attr "u" "f") ]);
      ("join k = u.d", join [ (attr "t" "k", attr "u" "d") ]);
      ("join w, d = u.w, u.d", join [ (attr "t" "w", attr "u" "w"); (attr "t" "d", attr "u" "d") ]);
    ]
  in
  List.iter
    (fun (name, plan) ->
      let interp budget = result_fp (Exec.Interp.run ~budget ~network ~db ~table_cols plan)
      and vector budget = result_fp (Exec.Vector.run ~budget ~network ~db ~table_cols plan) in
      let reference = interp Exec.Runtime.unlimited_budget in
      List.iter
        (fun (engine, budget, got) ->
          if got <> reference then
            Alcotest.failf "%s: %s at budget %s differs from reference at unlimited" name
              engine budget)
        [
          ("reference", "0", interp 0);
          ("vector", "unlimited", vector Exec.Runtime.unlimited_budget);
          ("vector", "0", vector 0);
        ])
    plans;
  (* the cases are not vacuous: [0.0] and [-0.0] form one group, and
     Int keys meet equal Floats *)
  let card plan = Storage.Relation.cardinality (run ~db plan).relation in
  Alcotest.(check bool) "Int keys join equal Floats" true
    (card (join [ (attr "t" "k", attr "u" "f") ]) > 0);
  Alcotest.(check bool) "0.0 and -0.0 group together" true
    (card (agg [ attr "t" "f" ])
    < List.length
        (List.sort_uniq compare
           (List.map
              (fun r -> match r.(1) with Value.Float x -> Int64.bits_of_float x | _ -> 0L)
              t_rows)))

let test_spill_counter_parity () =
  (* The spill decision and the memory account are engine-independent:
     under budgets small enough to spill, both engines spill the same
     operators into the same number of partitions, really write run
     files, reach the same peak of tracked bytes, and give the same
     reports. First two spill-dominated plans, whose peaks are the
     spill path's own partition charges: a build side of wide rows
     that never matches, and 300 groups over wide rows. Then the
     twelve TPC-H queries. *)
  let counted run =
    Exec.Runtime.reset_mem_stats ();
    let ops = Exec.Runtime.spilled_operators ()
    and parts = Exec.Runtime.spill_partitions ()
    and bytes = Exec.Runtime.spill_run_bytes () in
    let r = run () in
    ( (result_fp r, Exec.Runtime.peak_tracked_bytes ()),
      Exec.Runtime.spilled_operators () - ops,
      Exec.Runtime.spill_partitions () - parts,
      Exec.Runtime.spill_run_bytes () - bytes )
  in
  (* Both engines on [plan]: how many operators spilled. *)
  let agree name ~network ~db ~table_cols ~budget plan =
    let ifp, iops, iparts, ibytes =
      counted (fun () -> Exec.Interp.run ~budget ~network ~db ~table_cols plan)
    in
    let vfp, vops, vparts, vbytes =
      counted (fun () -> Exec.Vector.run ~budget ~network ~db ~table_cols plan)
    in
    Alcotest.(check int) (name ^ ": spilled operators") iops vops;
    Alcotest.(check int) (name ^ ": spill partitions") iparts vparts;
    List.iter
      (fun (engine, bytes) ->
        if vops > 0 && bytes <= 0 then
          Alcotest.failf "%s: %s spilled but wrote no run bytes" name engine)
      [ ("reference", ibytes); ("vector", vbytes) ];
    Alcotest.(check int) (name ^ ": peak tracked bytes") (snd ifp) (snd vfp);
    Alcotest.(check bool) (name ^ ": same report") true (fst ifp = fst vfp);
    vops
  in
  let wide =
    db_with
      [
        ( "w",
          [ "k"; "g"; "pad" ],
          List.init 500 (fun i ->
              [| Value.Int (1000 + i); Value.Int (i mod 300); Value.Str (String.make 200 'p') |]) );
        ("r", [ "a"; "b" ], [ [| Value.Int 1; Value.Str "one" |]; [| Value.Int 2; Value.Str "two" |] ]);
      ]
  in
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun budget ->
          let name = Printf.sprintf "%s, budget %d" name budget in
          if agree name ~network ~db:wide ~table_cols ~budget plan = 0 then
            Alcotest.failf "%s: nothing spilled" name)
        [ 0; 64 * 1024; 200_000 ])
    [
      ( "wide build, no matches",
        node
          (P.Hash_join { keys = [ (attr "r" "a", attr "w" "k") ]; residual = Pred.True })
          [ scan "r"; scan "w" ] );
      ( "300 groups of wide rows",
        node
          (P.Hash_agg
             {
               keys = [ attr "w" "g" ];
               aggs = [ { Expr.fn = Expr.Max; arg = col "w" "pad"; alias = "m" } ];
             })
          [ scan "w" ] );
    ];
  let cat = Tpch.Schema.catalog () in
  let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~sf:0.002 ()) in
  let session = Cgqp.create ~catalog:cat () in
  Cgqp.add_policies session Tpch.Policies.unrestricted;
  Cgqp.attach_database session db;
  let network = Catalog.network cat and table_cols = Catalog.table_cols cat in
  let spilled =
    List.fold_left
      (fun acc (name, sql) ->
        match Cgqp.optimize session sql with
        | Error e -> Alcotest.failf "%s failed to optimize: %s" name (Cgqp.error_to_string e)
        | Ok planned ->
          acc
          + agree name ~network ~db ~table_cols ~budget:(64 * 1024)
              planned.Optimizer.Planner.plan)
      0 Tpch.Queries.all_extended
  in
  Alcotest.(check bool) "some operator spilled" true (spilled > 0)

let test_identical_siblings () =
  (* Sibling subtrees that are structurally identical: the walk keeps
     each child's charge and finish time apart, so both engines agree
     on reports and peaks with and without spilling. Under drops the
     two identical SHIPs draw different fates; the seed is one where
     the first to run retries more often, so the siblings finish at
     different times. *)
  let db = default_db () in
  let shipped = node (P.Ship { from_loc = "y"; to_loc = "x" }) [ scan ~loc:"y" "t" ] in
  let self_join c =
    node (P.Hash_join { keys = [ (attr "t" "k", attr "t" "k") ]; residual = Pred.True }) [ c; c ]
  in
  let plans =
    [
      ("union of one scan twice", node P.Union_all [ scan "t"; scan "t" ]);
      ("union of one SHIP twice", node P.Union_all [ shipped; shipped ]);
      ("hash join of one scan twice", self_join (scan "t"));
      ("hash join of one SHIP twice", self_join shipped);
    ]
  in
  let flaky seed =
    Catalog.Network.Fault.make ~seed
      [ Catalog.Network.Fault.Transient_drop { from_loc = "x"; to_loc = "y"; p = 0.5 } ]
  in
  let rec find seed =
    if seed > 1000 then Alcotest.fail "no seed in 0..1000 retries the first SHIP more"
    else
      match
        Exec.Vector.run ~faults:(flaky seed) ~network ~db ~table_cols
          (List.assoc "union of one SHIP twice" plans)
      with
      | { stats = { ships = [ second; first ]; _ }; _ } when first.attempts > second.attempts ->
        seed
      | _ | (exception Exec.Interp.Ship_failed _) -> find (seed + 1)
  in
  let faulty = flaky (find 0) in
  let report ?faults ~budget engine plan =
    Exec.Runtime.reset_mem_stats ();
    match Exec.Engine.run ~engine ?faults ~budget ~network ~db ~table_cols plan with
    | r -> Ok (result_fp r, Exec.Runtime.peak_tracked_bytes ())
    | exception Exec.Interp.Ship_failed { attempts; _ } -> Error attempts
  in
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun budget ->
          List.iter
            (fun faults ->
              let what =
                Printf.sprintf "%s, budget %s%s" name
                  (if budget = 0 then "0" else "unlimited")
                  (if faults = None then "" else ", drops")
              in
              let reference = report ?faults ~budget Exec.Engine.Reference plan
              and vector = report ?faults ~budget Exec.Engine.Vector plan in
              (match reference, vector with
              | Ok ((_, _, _, _, _, rm), rpeak), Ok ((_, _, _, _, _, vm), vpeak) ->
                Alcotest.(check int) (what ^ ": peak") rpeak vpeak;
                Alcotest.(check (float 0.)) (what ^ ": makespan") rm vm
              | _ -> ());
              Alcotest.(check bool) (what ^ ": same report") true (reference = vector))
            [ None; Some faulty ])
        [ 0; Exec.Runtime.unlimited_budget ])
    plans

(* [--mem-budget] / CGQP_MEM_BUDGET parsing: suffixes are powers of
   1024, and a count whose product with its suffix overflows is
   rejected instead of wrapping (2^33 g is 2^63 bytes, which wraps to
   0 and would spill every operator). *)
let test_parse_budget () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check (option int)) input expected (Exec.Runtime.parse_budget input))
    [
      ("64m", Some (64 * 1024 * 1024));
      ("unlimited", Some Exec.Runtime.unlimited_budget);
      ("", Some Exec.Runtime.unlimited_budget);
      ("k", None);
      ("-1", None);
      ("8589934592g", None);
      ("9999999999g", None);
    ]

let test_tpch_golden_equivalence () =
  (* The paper's twelve TPC-H queries, optimized then executed on both
     engines: results, ships and profiles must be byte-identical. *)
  let cat = Tpch.Schema.catalog () in
  let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~sf:0.002 ()) in
  let session = Cgqp.create ~catalog:cat () in
  Cgqp.add_policies session Tpch.Policies.unrestricted;
  Cgqp.attach_database session db;
  List.iter
    (fun (name, sql) ->
      match Cgqp.optimize session sql with
      | Error e -> Alcotest.failf "%s failed to optimize: %s" name (Cgqp.error_to_string e)
      | Ok planned ->
        check_engines_agree ~network:(Catalog.network cat) ~db
          ~table_cols:(Catalog.table_cols cat) planned.Optimizer.Planner.plan)
    Tpch.Queries.all_extended

let test_engine_selection () =
  Alcotest.(check bool) "of_string reference" true
    (Exec.Engine.of_string "reference" = Some Exec.Engine.Reference);
  Alcotest.(check bool) "of_string compiled is gone" true
    (Exec.Engine.of_string "compiled" = None);
  Alcotest.(check bool) "of_string interp alias" true
    (Exec.Engine.of_string "interp" = Some Exec.Engine.Reference);
  Alcotest.(check bool) "of_string vector" true
    (Exec.Engine.of_string "Vector" = Some Exec.Engine.Vector);
  Alcotest.(check bool) "of_string vectorized alias" true
    (Exec.Engine.of_string "vectorized" = Some Exec.Engine.Vector);
  Alcotest.(check bool) "of_string junk" true (Exec.Engine.of_string "jit" = None);
  Alcotest.(check string) "to_string roundtrip" "reference"
    (Exec.Engine.to_string Exec.Engine.Reference);
  (* with CGQP_ENGINE unset (empty counts as unset) the default is Vector *)
  let saved = Sys.getenv_opt "CGQP_ENGINE" in
  Unix.putenv "CGQP_ENGINE" "";
  let dflt =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "CGQP_ENGINE" (Option.value saved ~default:""))
      Exec.Engine.default
  in
  Alcotest.(check string) "unset CGQP_ENGINE defaults to vector" "vector"
    (Exec.Engine.to_string dflt);
  (* sessions expose and honor the engine choice *)
  let cat = Tpch.Schema.catalog () in
  let session = Cgqp.create ~catalog:cat () in
  Cgqp.set_engine session Exec.Engine.Reference;
  Alcotest.(check string) "session engine" "reference"
    (Exec.Engine.to_string (Cgqp.engine session));
  (* Engine.run dispatches identically either way on a simple plan *)
  let db = default_db () in
  let plan = node (P.Ship { from_loc = "y"; to_loc = "x" }) [ scan ~loc:"y" "r" ] in
  let a = Exec.Engine.run ~engine:Exec.Engine.Reference ~network ~db ~table_cols plan
  and b = Exec.Engine.run ~engine:Exec.Engine.Vector ~network ~db ~table_cols plan
  and c = Exec.Engine.run ~network ~db ~table_cols plan in
  Alcotest.(check bool) "dispatch parity" true
    (result_fp a = result_fp b && result_fp a = result_fp c)

let test_ship_order_contract () =
  (* The child-iteration contract (runtime.mli): binary operators
     execute the right child first, Union_all children left-to-right.
     [stats.ships] is most-recent-first, so the recorded row counts pin
     the execution order for every engine. *)
  let db = default_db () in
  let ship p = node (P.Ship { from_loc = "y"; to_loc = "x" }) [ p ] in
  let join =
    node
      (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [ ship (scan ~loc:"y" "r"); ship (scan ~loc:"y" "s") ]
  in
  let union =
    (* r, r, s: an asymmetric sequence, so a wrong order cannot pass *)
    node P.Union_all
      [ ship (scan ~loc:"y" "r"); ship (scan ~loc:"y" "r"); ship (scan ~loc:"y" "s") ]
  in
  let ship_rows (r : Exec.Interp.result) =
    List.map (fun (s : Exec.Interp.ship_record) -> s.rows) r.stats.Exec.Interp.ships
  in
  List.iter
    (fun (name, run) ->
      (* right child (s, 4 rows) ships before left (r, 3): the head of
         the list is the most recent ship *)
      Alcotest.(check (list int)) (name ^ ": join right child first") [ 3; 4 ]
        (ship_rows (run join));
      Alcotest.(check (list int)) (name ^ ": union left-to-right") [ 3; 3; 4 ]
        (List.rev (ship_rows (run union))))
    [
      ("reference", fun p -> Exec.Interp.run ~network ~db ~table_cols p);
      ("vector", fun p -> Exec.Vector.run ~network ~db ~table_cols p);
    ]

(* --- batch boundaries ---------------------------------------------

   The vectorized engine chunks work in 256-row batches; cardinalities
   straddling the batch size (and the empty and single-row cases) must
   flow through filter, join and aggregation without disturbing
   byte-identity. *)

let boundary_db n =
  let rows_r =
    List.init n (fun i -> [| Value.Int (i mod 7); Value.Str (string_of_int i) |])
  in
  let rows_s =
    List.init ((n / 2) + 1) (fun i -> [| Value.Int (i mod 7); Value.Int i |])
  in
  db_with [ ("r", [ "a"; "b" ], rows_r); ("s", [ "a"; "c" ], rows_s) ]

let test_vector_batch_boundaries () =
  List.iter
    (fun n ->
      let db = boundary_db n in
      let filter =
        node
          (P.Filter (Pred.Atom (Pred.Cmp (Pred.Ge, col "r" "a", Expr.Const (Value.Int 3)))))
          [ scan "r" ]
      in
      let join =
        node
          (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
          [ filter; scan "s" ]
      in
      let agg =
        node
          (P.Hash_agg
             {
               keys = [ attr "r" "a" ];
               aggs =
                 [
                   { Expr.fn = Expr.Sum; arg = col "s" "c"; alias = "total" };
                   { Expr.fn = Expr.Count; arg = Expr.Const (Value.Int 1); alias = "n" };
                 ];
             })
          [ join ]
      in
      List.iter (fun plan -> check_engines_agree ~db ~table_cols plan)
        [ filter; join; agg ])
    [ 0; 1; 255; 256; 257; 1023; 1024; 1025 ]

let test_vector_all_null_column () =
  (* A column that is entirely NULL across a batch boundary: filters
     reject, joins never match, aggregation groups the NULLs into one
     group and the accumulators skip them. *)
  let rows_r =
    List.init 1500 (fun i -> [| Value.Null; Value.Str (string_of_int (i mod 5)) |])
  in
  let db =
    db_with
      [ ("r", [ "a"; "b" ], rows_r); ("s", [ "a"; "c" ], [ [| Value.Int 1; Value.Int 10 |] ]) ]
  in
  let filter =
    node
      (P.Filter (Pred.Atom (Pred.Cmp (Pred.Ge, col "r" "a", Expr.Const (Value.Int 0)))))
      [ scan "r" ]
  in
  let join =
    node
      (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [ scan "r"; scan "s" ]
  in
  let agg =
    node
      (P.Hash_agg
         {
           keys = [ attr "r" "a" ];
           aggs =
             [
               { Expr.fn = Expr.Sum; arg = col "r" "a"; alias = "total" };
               { Expr.fn = Expr.Count; arg = Expr.Const (Value.Int 1); alias = "n" };
               { Expr.fn = Expr.Min; arg = col "r" "b"; alias = "lo" };
             ];
         })
      [ scan "r" ]
  in
  List.iter (fun plan -> check_engines_agree ~db ~table_cols plan) [ filter; join; agg ]

let test_residual_batch_boundaries () =
  (* Join residuals are tested [batch_rows] (256) candidate pairs at a
     time. Each join kind here sees several thousand candidates, so the
     residual batch fills and flushes repeatedly and ends on a partial
     batch; the residual reads both sides, two nullable columns and a
     constant, and keeps some but not all candidates. The left input is
     filtered, so candidates carry selection-vector indices. Budget 0
     sends the hash join through the Grace spill path. *)
  let nullable n i m = if i mod n = 0 then Value.Null else Value.Int (i mod m) in
  let db =
    db_with
      [
        ("r", [ "a"; "b" ], List.init 300 (fun i -> [| Value.Int (i mod 5); nullable 11 i 37 |]));
        ("s", [ "a"; "c" ], List.init 200 (fun i -> [| Value.Int (i mod 5); nullable 13 i 41 |]));
      ]
  in
  let residual =
    Pred.Or
      ( Pred.And
          ( Pred.Atom (Pred.Cmp (Pred.Lt, col "r" "b", col "s" "c")),
            Pred.Atom (Pred.Cmp (Pred.Ge, col "s" "c", Expr.Const (Value.Int 3))) ),
        Pred.Atom (Pred.Is_null (col "r" "b")) )
  in
  let left =
    node
      (P.Filter (Pred.Atom (Pred.Cmp (Pred.Ne, col "r" "a", Expr.Const (Value.Int 4)))))
      [ scan "r" ]
  in
  let sorted rel child = node (P.Sort [ (attr rel "a", false) ]) [ child ] in
  let keys = [ (attr "r" "a", attr "s" "a") ] in
  let joins residual =
    [
      ("hash", node (P.Hash_join { keys; residual }) [ left; scan "s" ]);
      ( "merge",
        node (P.Merge_join { keys; residual }) [ sorted "r" left; sorted "s" (scan "s") ] );
      ("nested-loop", node (P.Nl_join residual) [ left; scan "s" ]);
    ]
  in
  List.iter2
    (fun (kind, plan) (_, unfiltered) ->
      let card p = Storage.Relation.cardinality (run ~db p).relation in
      let candidates = card unfiltered and kept = card plan in
      if candidates <= 2 * 1024 then
        Alcotest.failf "%s join: %d candidates do not cross two batches" kind candidates;
      if kept = 0 || kept = candidates then
        Alcotest.failf "%s join: the residual keeps %d of %d candidates" kind kept candidates;
      List.iter
        (fun budget ->
          let i = Exec.Interp.run ~budget ~network ~db ~table_cols plan
          and v = Exec.Vector.run ~budget ~network ~db ~table_cols plan in
          if result_fp i <> result_fp v then
            Alcotest.failf "%s join, budget %s: reference and vector disagree" kind
              (if budget = 0 then "0" else "unlimited"))
        [ Exec.Runtime.unlimited_budget; 0 ])
    (joins residual) (joins Pred.True)

(* --- every atom on every column representation ----------------------

   Vector binds each predicate atom to a typed loop when its operands'
   representations have one (column vs constant, column vs column of
   the same variant, IN over a same-variant list, LIKE over strings) and
   evaluates it per boxed row otherwise. Tables [p] (1,100 rows, so
   filters cross a batch boundary) and [q] (40 rows) hold one column
   of each representation: [k] the join key; [i] Ints with NULLs,
   [min_int] and [max_int]; [d] Dates with NULLs; [f] Floats with NaN,
   [0.0], [-0.0] and NULLs; [s] Strs with NULLs; and [v] a boxed Values
   column mixing every type. Every atom kind runs against every column,
   alone and under And, Or and Not, as a filter over [p] and as hash-
   and merge-join residuals reading both sides (2,200 candidates). Each
   result must equal [Pred.eval] row by row and the reference engine's
   run byte for byte. *)

let variant_row i =
  let pick l = List.nth l (i mod List.length l) in
  [|
    Value.Int (i mod 20);
    (if i mod 11 = 0 then Value.Null
     else pick (List.map (fun k -> Value.Int k) [ 0; 3; -2; min_int; max_int; 1; 7 ]));
    (if i mod 13 = 0 then Value.Null else Value.Date (i mod 9));
    (if i mod 17 = 0 then Value.Null
     else pick (List.map (fun x -> Value.Float x) [ Float.nan; 0.0; -0.0; 1.5; 3.0; -2.0; 1.0 ]));
    (if i mod 19 = 0 then Value.Null
     else pick (List.map (fun s -> Value.Str s) [ "MAIL"; "SHIP"; "AIR"; ""; "RAIL"; "MAIL " ]));
    pick
      [
        Value.Int 3; Value.Float 1.5; Value.Str "MAIL"; Value.Null; Value.Date 3;
        Value.Float Float.nan; Value.Float (-0.0); Value.Int 0;
      ];
  |]

let variant_db () =
  db_with
    [
      ("p", table_cols "p", List.init 1100 variant_row);
      ("q", table_cols "q", List.init 40 (fun i -> variant_row ((7 * i) + 3)));
    ]

let variant_cols = [ "i"; "d"; "f"; "s"; "v" ]

let variant_consts =
  Value.
    [
      Int 0; Int 3; Int min_int; Int max_int; Float 0.0; Float (-0.0); Float Float.nan;
      Float 1.5; Float 3.0; Date 3; Str "MAIL"; Str ""; Null;
    ]

let all_cmps = Pred.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* Every atom kind over [rel]'s columns, each against every column
   variant. *)
let variant_atoms rel =
  let c name = col rel name and k v = Expr.Const v in
  let atom a = Pred.Atom a in
  List.concat
    [
      List.concat_map
        (fun name ->
          List.concat_map
            (fun v ->
              List.concat_map
                (fun op -> [ atom (Pred.Cmp (op, c name, k v)); atom (Pred.Cmp (op, k v, c name)) ])
                all_cmps)
            variant_consts)
        variant_cols;
      List.concat_map
        (fun a ->
          List.concat_map
            (fun b -> List.map (fun op -> atom (Pred.Cmp (op, c a, c b))) all_cmps)
            variant_cols)
        variant_cols;
      List.concat_map
        (fun name ->
          List.map
            (fun vs -> atom (Pred.In (c name, vs)))
            Value.
              [
                [ Int 3; Int 0 ]; [ Int min_int; Int max_int ]; [ Str "MAIL"; Str "SHIP" ];
                [ Date 3; Date 5 ]; [ Int 3; Float 1.5; Str "MAIL" ]; [ Null; Int 0 ];
                [ Float Float.nan ]; [ Float (-0.0) ]; [ Null ];
              ]
          @ List.map
              (fun pat -> atom (Pred.Like (c name, pat)))
              [ "%AI%"; "S_IP"; "MAIL"; "%"; "MAIL%"; "" ]
          @ [
              atom (Pred.Is_null (c name));
              atom (Pred.Not_null (c name));
              atom (Pred.Cmp (Pred.Ge, Expr.Binop (Expr.Add, c name, k (Int 1)), k (Int 2)));
              atom (Pred.Cmp (Pred.Lt, Expr.Binop (Expr.Mul, c name, k (Value.Float 2.0)), c "f"));
            ])
        variant_cols;
    ]

(* [atoms] alone, then some of them combined under And, Or and Not. *)
let with_combinations atoms =
  let a = Array.of_list atoms in
  let n = Array.length a in
  let at k = a.(k mod n) in
  atoms
  @ List.concat
      (List.init (n / 8) (fun k ->
           [
             Pred.And (at (4 * k), at ((7 * k) + 1));
             Pred.Or (at ((4 * k) + 1), at ((13 * k) + 5));
             Pred.Not (at ((4 * k) + 2));
             Pred.Or (Pred.Not (at ((4 * k) + 3)), Pred.And (at ((5 * k) + 2), at ((11 * k) + 7)));
           ]))

(* Bit-exact row equality ([-0.0] differs from [0.0], NaN equals NaN),
   cheaper than comparing CSV renderings. *)
let same_rows a b =
  let same_value x y =
    match x, y with
    | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> x = y
  in
  Array.length a = Array.length b
  && Array.for_all2
       (fun r s -> Array.length r = Array.length s && Array.for_all2 same_value r s)
       a b

(* Run [plan] on both engines, require identical result rows and byte
   sizes, SHIP records, profiles and makespans, and return Vector's
   result. *)
let vector_checked ?(budget = Exec.Runtime.unlimited_budget) ~db plan =
  let i = Exec.Interp.run ~budget ~network ~db ~table_cols plan
  and v = Exec.Vector.run ~budget ~network ~db ~table_cols plan in
  let rest (r : Exec.Interp.result) = (r.stats, r.profile, r.makespan_ms) in
  if
    not
      (same_rows (Storage.Relation.rows i.relation) (Storage.Relation.rows v.relation)
      && Storage.Relation.byte_size i.relation = Storage.Relation.byte_size v.relation
      && rest i = rest v)
  then Alcotest.failf "reference and vector disagree on plan:@.%a" (P.pp ?indent:None) plan;
  v.relation

(* [rel] must hold exactly the rows of [input] that satisfy [pred]
   under [Pred.eval], in order. *)
let check_rows_eval ~what pred input rel =
  let lookup = Storage.Relation.lookup_of_schema (Storage.Relation.schema input) in
  let expected =
    List.filter
      (fun row -> Pred.eval (fun a -> lookup a row) pred)
      (Array.to_list (Storage.Relation.rows input))
  in
  if not (same_rows (Array.of_list expected) (Storage.Relation.rows rel)) then
    Alcotest.failf "%s %a: %d rows, Pred.eval keeps %d" what Pred.pp pred
      (Storage.Relation.cardinality rel) (List.length expected)

let test_atoms_on_every_variant () =
  let db = variant_db () in
  (* the columns must have the representations the matrix is about *)
  let p = Option.get (Storage.Database.find db ~table:"p" ()) in
  List.iter2
    (fun name expect ->
      let ix =
        Option.get
          (Storage.Relation.resolve
             (Storage.Relation.resolver (Storage.Relation.schema p))
             (attr "p" name))
      in
      let c = (Storage.Relation.cols p).(ix) in
      let got =
        match c.Storage.Column.data with
        | Storage.Column.Ints _ -> "ints"
        | Storage.Column.Dates _ -> "dates"
        | Storage.Column.Floats _ -> "floats"
        | Storage.Column.Strs _ -> "strs"
        | Storage.Column.Bools _ -> "bools"
        | Storage.Column.Values _ -> "values"
      in
      Alcotest.(check string) ("p." ^ name) expect got;
      if name <> "v" then
        Alcotest.(check bool) ("p." ^ name ^ " has NULLs") true (Storage.Column.has_nulls c))
    variant_cols [ "ints"; "dates"; "floats"; "strs"; "values" ];
  (* filters *)
  List.iter
    (fun pred ->
      check_rows_eval ~what:"filter" pred p
        (vector_checked ~db (node (P.Filter pred) [ scan "p" ])))
    (with_combinations (variant_atoms "p"));
  (* join residuals reading both sides: [p.x op q.y] for every column
     pair, and single-side atoms of each side under Or / And-Not *)
  let keys = [ (attr "p" "k", attr "q" "k") ] in
  let sorted rel = node (P.Sort [ (attr rel "k", false) ]) [ scan rel ] in
  let candidates =
    vector_checked ~db (node (P.Hash_join { keys; residual = Pred.True }) [ scan "p"; scan "q" ])
  and merge_candidates =
    vector_checked ~db
      (node (P.Merge_join { keys; residual = Pred.True }) [ sorted "p"; sorted "q" ])
  in
  Alcotest.(check int) "candidates" 2200 (Storage.Relation.cardinality candidates);
  let cross =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> List.map (fun op -> Pred.Atom (Pred.Cmp (op, col "p" a, col "q" b))) all_cmps)
          variant_cols)
      variant_cols
  in
  let pa = Array.of_list (variant_atoms "p") and qa = Array.of_list (variant_atoms "q") in
  let mixed =
    List.init 60 (fun k ->
        let x = pa.((37 * k) mod Array.length pa)
        and y = qa.(((53 * k) + 11) mod Array.length qa) in
        if k mod 2 = 0 then Pred.Or (x, y) else Pred.And (x, Pred.Not y))
  in
  List.iteri
    (fun n residual ->
      check_rows_eval ~what:"hash join residual" residual candidates
        (vector_checked ~db (node (P.Hash_join { keys; residual }) [ scan "p"; scan "q" ]));
      check_rows_eval ~what:"merge join residual" residual merge_candidates
        (vector_checked ~db
           (node (P.Merge_join { keys; residual }) [ sorted "p"; sorted "q" ]));
      (* the Grace spill path emits the same candidates *)
      if n mod 30 = 0 then
        check_rows_eval ~what:"spilled hash join residual" residual candidates
          (vector_checked ~budget:0 ~db
             (node (P.Hash_join { keys; residual }) [ scan "p"; scan "q" ])))
    (cross @ mixed)

(* --- key tables at their edges ---

   Hash joins and aggregations address their key table directly when
   every key is int-backed and the product of the key ranges' widths is
   at most max(4,096, 4 * rows), and hash it otherwise. A group key
   holding a NULL takes the boxed dictionary, so it hashes; NULL
   groups with NULL, and a NULL must not share a code with the NULL
   dummy a typed column stores (0, or ""). Tables [e] (700 rows, the
   probe side) and [g] (1,000 rows, the build side, so the bound is
   4,096 for a join and for a grouping over [g]) hold one column per
   edge:
   - [x]: [min_int], [max_int] and their neighbours, with NULLs: a width
     that overflows an int as a join key, hashed;
   - [n]: negative keys, each repeated on the build side (emission
     order); the probe side adds [min_int] and [max_int], which miss
     the range;
   - [a]: 0 .. 4,095 on [g], a width exactly at the bound, direct;
     [b]: 0 .. 4,096, one past it, hashed;
   - [c1], [c2], [c3]: 0 .. 63, 0 .. 63 and 0 .. 64 on [g]: ([c1], [c2])
     has width 4,096, direct, and ([c1], [c3]) 4,160, hashed;
   - [m]: 0 .. 4,094 with NULLs, and [mq]: 0 .. 4,095 with NULLs: at
     and one past the bound as join keys, and holding 0 beside their
     NULLs as group keys;
   - [d]: Dates with [n]'s numbers, which never equal an Int;
   - [h] and [l]: the hundred values up to [max_int] and from
     [min_int], direct, [h] with NULLs;
   - [dn]: Dates from -20 to 19 with NULLs, and [s]: Strs with NULLs
     and [""], nullable keys of the other typed variants.
   The probe side's values run past the build side's ranges. Groupings
   also take a key the plan cannot resolve beside one it can, and a
   global aggregate runs over a filter that keeps no row. *)
let edge_row ~rows i =
  let pick l = List.nth l (i mod List.length l) in
  let null_if b v = if b then Value.Null else v in
  let spread hi = i * hi / (rows - 1) in
  let int k = Value.Int k in
  [|
    null_if (i mod 9 = 4)
      (if i mod 3 = 0 then int (pick [ min_int; max_int; 0; -5; 7; min_int + 1; max_int - 1; -1 ])
       else int ((i mod 200) - 100));
    int (-1000 - (i mod 250));
    int (spread 4095);
    int (spread 4096);
    int (i mod 64);
    int (i * 7 mod 64);
    int (i * 11 mod 65);
    null_if (i mod 7 = 3) (int (spread 4094));
    null_if (i mod 7 = 3) (int (spread 4095));
    Value.Date (-1000 - (i mod 250));
    null_if (i mod 11 = 2) (int (max_int - (i mod 100)));
    int (min_int + (i mod 100));
    null_if (i mod 6 = 1) (Value.Date ((i mod 40) - 20));
    null_if (i mod 5 = 2)
      (Value.Str (if i mod 7 = 0 then "" else Printf.sprintf "s%d" (i mod 31)));
  |]

let edge_db () =
  let probe i =
    let r = edge_row ~rows:700 i in
    let shift k d = match r.(k) with Value.Int v -> r.(k) <- Value.Int (v + d) | _ -> () in
    (* run past the build side's ranges at both ends *)
    shift 2 ((i mod 5 * 40) - 80);
    shift 3 ((i mod 3 * 60) - 60);
    shift 4 ((i mod 3) - 1);
    shift 5 ((i mod 4) - 1);
    shift 6 ((i mod 5) - 2);
    shift 7 ((i mod 3 * 30) - 30);
    shift 8 ((i mod 3 * 30) - 30);
    if i mod 23 = 0 then r.(1) <- Value.Int (if i mod 2 = 0 then min_int else max_int);
    if i mod 13 = 5 then r.(1) <- Value.Null;
    r
  in
  db_with
    [
      ("e", table_cols "e", List.init 700 probe);
      ("g", table_cols "g", List.init 1000 (edge_row ~rows:1000));
    ]

let test_key_table_edges () =
  let db = edge_db () in
  let c rel name = attr rel name in
  (* [x >= 0] keeps 0 .. [max_int]: a span of exactly [max_int] *)
  let upper child =
    node (P.Filter (Pred.Atom (Pred.Cmp (Pred.Ge, col "g" "x", Expr.Const (Value.Int 0)))))
      [ child ]
  and none child =
    node (P.Filter (Pred.Atom (Pred.Cmp (Pred.Lt, col "g" "a", Expr.Const (Value.Int 0)))))
      [ child ]
  in
  let join ?(sorted = false) ?(build = scan "g") pairs =
    let build = if sorted then node (P.Sort [ (c "g" "a", true) ]) [ build ] else build in
    node
      (P.Hash_join
         { keys = List.map (fun (l, r) -> (c "e" l, c "g" r)) pairs; residual = Pred.True })
      [ scan "e"; build ]
  and agg ?input rel keys =
    node
      (P.Hash_agg
         {
           keys = List.map (c rel) keys;
           aggs =
             [
               { Expr.fn = Expr.Count; arg = col rel "n"; alias = "cnt" };
               { Expr.fn = Expr.Sum; arg = col rel "a"; alias = "s" };
             ];
         })
      [ Option.value input ~default:(scan rel) ]
  in
  let card budget plan = Storage.Relation.cardinality (vector_checked ~budget ~db plan) in
  let joins =
    [
      ("x = x", join [ ("x", "x") ], `Some);
      ("n = n", join [ ("n", "n") ], `Some);
      ("x = n", join [ ("x", "n") ], `None);
      ("x = x, x >= 0", join ~build:(upper (scan "g")) [ ("x", "x") ], `Some);
      ("a = a", join [ ("a", "a") ], `Some);
      ("a = a, sorted build", join ~sorted:true [ ("a", "a") ], `Some);
      ("b = b", join [ ("b", "b") ], `Some);
      ("c1, c2", join [ ("c1", "c1"); ("c2", "c2") ], `Some);
      ("c1, c3", join [ ("c1", "c1"); ("c3", "c3") ], `Some);
      ("m = m", join [ ("m", "m") ], `Some);
      ("d = d", join [ ("d", "d") ], `Some);
      ("d = n", join [ ("d", "n") ], `None);
      ("n = d", join [ ("n", "d") ], `None);
      ("h = h", join [ ("h", "h") ], `Some);
      ("l = l", join [ ("l", "l") ], `Some);
      ("h, l", join [ ("h", "h"); ("l", "l") ], `Some);
      ("dn = dn", join [ ("dn", "dn") ], `Some);
      ("s = s", join [ ("s", "s") ], `Some);
    ]
  and groups =
    List.concat_map
      (fun rel ->
        List.map
          (fun keys -> (rel ^ " by " ^ String.concat ", " keys, agg rel keys))
          [
            [ "x" ]; [ "n" ]; [ "a" ]; [ "b" ]; [ "c1"; "c2" ]; [ "c1"; "c3" ]; [ "m" ];
            [ "mq" ]; [ "d" ]; [ "h" ]; [ "l" ]; [ "m"; "h" ]; [ "d"; "n" ]; [ "dn" ];
            [ "s"; "c1" ]; [ "c1"; "nowhere" ]; [ "nowhere" ];
          ])
      [ "g"; "e" ]
    @ [
        ("g by x, x >= 0", agg ~input:(upper (scan "g")) "g" [ "x" ]);
        ("g, no row, global", agg ~input:(none (scan "g")) "g" []);
      ]
  in
  List.iter
    (fun budget ->
      List.iter
        (fun (name, plan, expect) ->
          let n = card budget plan in
          match expect with
          | `Some when n = 0 -> Alcotest.failf "join %s: no rows" name
          | `None when n > 0 -> Alcotest.failf "join %s: %d rows, expected none" name n
          | _ -> ())
        joins;
      List.iter (fun (_, plan) -> ignore (card budget plan)) groups)
    [ Exec.Runtime.unlimited_budget; 0 ];
  (* NULL is one group, apart from 0 and "", and a NULL join key
     matches nothing *)
  let rows plan = Storage.Relation.rows (vector_checked ~db plan) in
  let null_groups keys =
    Array.fold_left (fun k r -> if Value.is_null r.(0) then k + 1 else k) 0 (rows (agg "g" keys))
  in
  List.iter
    (fun k -> Alcotest.(check int) ("one NULL group by " ^ k) 1 (null_groups [ k ]))
    [ "h"; "x"; "m"; "dn" ];
  Alcotest.(check int) "h groups: a hundred values and NULL" 101
    (Array.length (rows (agg "g" [ "h" ])));
  Alcotest.(check int) "dn groups: forty dates and NULL" 41
    (Array.length (rows (agg "g" [ "dn" ])));
  Alcotest.(check bool) "s, c1: NULL and \"\" groups share a c1" true
    (let by_c1 nullp =
       List.sort_uniq compare
         (List.filter_map
            (fun r -> if nullp r.(0) then Some r.(1) else None)
            (Array.to_list (rows (agg "g" [ "s"; "c1" ]))))
     in
     List.exists (fun c -> List.mem c (by_c1 (Value.equal (Value.Str "")))) (by_c1 Value.is_null));
  (* an unresolvable key splits no group and reads NULL *)
  let c1_groups = rows (agg "g" [ "c1"; "nowhere" ]) in
  Alcotest.(check int) "c1 beside an unresolvable key: 64 groups" 64 (Array.length c1_groups);
  Alcotest.(check bool) "the unresolvable key reads NULL" true
    (Array.for_all (fun r -> Value.is_null r.(1)) c1_groups);
  (* a global aggregate over no row is one row: count 0, sum NULL *)
  (match rows (agg ~input:(none (scan "g")) "g" []) with
  | [| [| cnt; sum |] |] ->
    Alcotest.(check bool) "global over no row" true
      (Value.equal cnt (Value.Int 0) && Value.is_null sum)
  | r -> Alcotest.failf "global over no row: %d rows" (Array.length r));
  Alcotest.(check bool) "NULL keys do not join" true
    (Array.for_all (fun r -> not (Value.is_null r.(0))) (rows (join [ ("x", "x") ])))

let test_vector_reuse () =
  (* one compiled vectorized plan, executed twice: identical both times *)
  let db = default_db () in
  let plan =
    node
      (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [ scan "r"; node (P.Ship { from_loc = "y"; to_loc = "x" }) [ scan ~loc:"y" "s" ] ]
  in
  let compiled = Exec.Vector.compile ~db ~table_cols plan in
  let r1 = Exec.Vector.execute ~network compiled
  and r2 = Exec.Vector.execute ~network compiled in
  Alcotest.(check bool) "re-execution identical" true (result_fp r1 = result_fp r2);
  Alcotest.(check int) "schema exposed" 4 (List.length (Exec.Vector.schema compiled));
  (* and it matches the reference engine's execution of the same plan *)
  let i = Exec.Interp.run ~network ~db ~table_cols plan in
  Alcotest.(check bool) "matches reference" true (result_fp i = result_fp r1)

let test_null_join_keys () =
  (* rows with NULL join keys never match *)
  let db =
    db_with
      [
        ("r", [ "a"; "b" ], [ [| Value.Null; Value.Str "n" |]; [| Value.Int 1; Value.Str "o" |] ]);
        ("s", [ "a"; "c" ], [ [| Value.Null; Value.Int 9 |]; [| Value.Int 1; Value.Int 10 |] ]);
      ]
  in
  let plan =
    node
      (P.Hash_join { keys = [ (attr "r" "a", attr "s" "a") ]; residual = Pred.True })
      [ scan "r"; scan "s" ]
  in
  let r = run ~db plan in
  Alcotest.(check int) "nulls do not join" 1 (Storage.Relation.cardinality r.relation)

let () =
  Alcotest.run "exec"
    [
      ( "operators",
        [
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "filter" `Quick test_filter;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "hash join" `Quick test_hash_join;
          Alcotest.test_case "hash join residual" `Quick test_hash_join_residual;
          Alcotest.test_case "nl join" `Quick test_nl_join;
          Alcotest.test_case "merge join" `Quick test_merge_join;
          Alcotest.test_case "merge join nulls/residual" `Quick
            test_merge_join_nulls_and_residual;
          Alcotest.test_case "sort" `Quick test_sort_operator;
          Alcotest.test_case "hash agg" `Quick test_hash_agg;
          Alcotest.test_case "empty global agg" `Quick test_global_agg_empty_input;
          Alcotest.test_case "union all" `Quick test_union_all;
          Alcotest.test_case "null join keys" `Quick test_null_join_keys;
          Alcotest.test_case "key tables at their edges" `Quick test_key_table_edges;
        ] );
      ( "ships",
        [
          Alcotest.test_case "ship accounting" `Quick test_ship_accounting;
          Alcotest.test_case "multi-site join accounting" `Quick
            test_multisite_join_accounting;
          Alcotest.test_case "retry accounting totals" `Quick
            test_retry_accounting_totals;
          Alcotest.test_case "with_ships" `Quick test_with_ships;
          Alcotest.test_case "malformed" `Quick test_malformed_plan;
          Alcotest.test_case "makespan parallelism" `Quick test_makespan_parallel_branches;
        ] );
      ( "engines",
        [
          Alcotest.test_case "differential: random plans" `Quick
            test_differential_random_plans;
          Alcotest.test_case "differential: under faults" `Quick
            test_differential_under_faults;
          Alcotest.test_case "differential: spill vs in-memory" `Quick
            test_differential_spill;
          Alcotest.test_case "spill dir cleanup on all exit paths" `Quick
            test_spill_cleanup;
          Alcotest.test_case "spill directory that cannot be created" `Quick
            test_spill_dir_missing;
          Alcotest.test_case "spill: injected failures inside an operator" `Quick
            test_spill_injected_failures;
          Alcotest.test_case "spill: one run file per operator" `Quick
            test_spill_one_run_file;
          Alcotest.test_case "spill restores logical order, hashes by Value.equal" `Quick
            test_spill_order_and_hash;
          Alcotest.test_case "spill counters agree across engines" `Slow
            test_spill_counter_parity;
          Alcotest.test_case "identical sibling subtrees" `Quick test_identical_siblings;
          Alcotest.test_case "memory budget parsing" `Quick test_parse_budget;
          Alcotest.test_case "paged scan decodes only projected columns" `Quick
            test_paged_scan_pruning;
          Alcotest.test_case "TPC-H golden equivalence" `Slow
            test_tpch_golden_equivalence;
          Alcotest.test_case "engine selection" `Quick test_engine_selection;
          Alcotest.test_case "vector plan reuse" `Quick test_vector_reuse;
          Alcotest.test_case "ship order contract" `Quick test_ship_order_contract;
        ] );
      ( "batches",
        [
          Alcotest.test_case "batch boundaries 0/1/1023/1024/1025" `Quick
            test_vector_batch_boundaries;
          Alcotest.test_case "all-NULL column" `Quick test_vector_all_null_column;
          Alcotest.test_case "join residual batch boundaries" `Quick
            test_residual_batch_boundaries;
          Alcotest.test_case "every atom on every column variant" `Quick
            test_atoms_on_every_variant;
        ] );
    ]
