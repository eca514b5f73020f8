(* Tests for the deployment surface: CSV ingestion and the geo-schema
   text language. *)

open Relalg

(* --- CSV --- *)

let schema = [ Attr.make ~rel:"t" ~name:"a"; Attr.make ~rel:"t" ~name:"b" ]
let types = [ Value.Tint; Value.Tstr ]

let test_csv_basic () =
  let r = Storage.Csv.parse ~schema ~types "a,b\n1,x\n2,y\n" in
  Alcotest.(check int) "two rows" 2 (Storage.Relation.cardinality r);
  let rows = Storage.Relation.rows r in
  Alcotest.(check bool) "typed int" true (Value.equal rows.(0).(0) (Value.Int 1));
  Alcotest.(check bool) "typed str" true (Value.equal rows.(1).(1) (Value.Str "y"))

let test_csv_quoting () =
  let r = Storage.Csv.parse ~schema ~types "a,b\n1,\"x, with comma\"\n2,\"he said \"\"hi\"\"\"\n" in
  let rows = Storage.Relation.rows r in
  Alcotest.(check bool) "comma inside quotes" true
    (Value.equal rows.(0).(1) (Value.Str "x, with comma"));
  Alcotest.(check bool) "escaped quote" true
    (Value.equal rows.(1).(1) (Value.Str "he said \"hi\""))

let test_csv_nulls_and_types () =
  let schema3 =
    [ Attr.make ~rel:"t" ~name:"i"; Attr.make ~rel:"t" ~name:"f"; Attr.make ~rel:"t" ~name:"d" ]
  in
  let types3 = [ Value.Tint; Value.Tfloat; Value.Tdate ] in
  let r =
    Storage.Csv.parse ~schema:schema3 ~types:types3 "i,f,d\n5,2.25,1999-12-31\n,,\n"
  in
  let rows = Storage.Relation.rows r in
  Alcotest.(check bool) "float" true (Value.equal rows.(0).(1) (Value.Float 2.25));
  Alcotest.(check bool) "date" true
    (Value.equal rows.(0).(2)
       (Value.Date (Option.get (Value.date_of_string "1999-12-31"))));
  Alcotest.(check bool) "empty is null" true (Value.equal rows.(1).(0) Value.Null)

let test_csv_errors () =
  (match Storage.Csv.parse ~schema ~types "a,b\nnotanint,x\n" with
  | exception Storage.Csv.Error _ -> ()
  | _ -> Alcotest.fail "bad int must fail");
  match Storage.Csv.parse ~schema ~types "a,b\n1,x,extra\n" with
  | exception Storage.Csv.Error _ -> ()
  | _ -> Alcotest.fail "arity mismatch must fail"

let test_csv_no_header () =
  let r = Storage.Csv.parse ~schema ~types ~header:false "1,x\n" in
  Alcotest.(check int) "one row" 1 (Storage.Relation.cardinality r)

(* --- geo-schema language --- *)

let clinics_schema =
  "# demo\n\
   network uniform alpha 120 beta 0.000002\n\
   location berlin\n\
   location paris\n\
   link berlin paris alpha 30 beta 0.0000008\n\
   table patients at hospital-b on berlin rows 1000 (\n\
  \  pid int key distinct 1000,\n\
  \  name string width 20,\n\
  \  age int min 0 max 100 distinct 90\n\
   )\n\
   table visits at hospital-p on paris rows 5000 (\n\
  \  vid int key, pid int distinct 1000, cost float\n\
   )\n"

let test_schema_parse () =
  let cat = Geodsl.parse_catalog clinics_schema in
  Alcotest.(check (list string)) "locations" [ "berlin"; "paris" ] (Catalog.locations cat);
  let def = Catalog.table_def cat "patients" in
  Alcotest.(check int) "rows" 1000 def.Catalog.Table_def.row_count;
  Alcotest.(check (list string)) "key" [ "pid" ] def.Catalog.Table_def.key;
  let age = Option.get (Catalog.Table_def.find_col def "age") in
  Alcotest.(check (option (float 1e-9))) "max" (Some 100.) age.Catalog.Table_def.stat.hi;
  Alcotest.(check string) "home" "paris" (Catalog.home_location cat "visits");
  (* the overridden link is cheaper than the uniform base *)
  let n = Catalog.network cat in
  Alcotest.(check (float 1e-9)) "link alpha" 30. (Catalog.Network.alpha n "berlin" "paris")

let test_schema_partitioned () =
  let cat =
    Geodsl.parse_catalog
      "location a\nlocation b\ntable t at db on a, b rows 100 (x int key)"
  in
  Alcotest.(check bool) "partitioned" true (Catalog.is_partitioned cat "t");
  let fr =
    List.map (fun (p : Catalog.placement) -> p.fraction) (Catalog.placements cat "t")
  in
  Alcotest.(check (list (float 1e-9))) "equal fractions" [ 0.5; 0.5 ] fr

let test_schema_errors () =
  let expect_fail text =
    match Geodsl.parse_catalog text with
    | exception Geodsl.Error _ -> ()
    | _ -> Alcotest.failf "expected schema error for %S" text
  in
  expect_fail "table t at db on nowhere (x int)";
  expect_fail "location a\ntable t at db on a (x sometype)";
  expect_fail "location a\ngarbage";
  expect_fail ""

let test_end_to_end_deployment () =
  let cat = Geodsl.parse_catalog clinics_schema in
  let session = Cgqp.create ~catalog:cat () in
  Cgqp.add_policies session
    [
      "ship pid, age from patients to paris";
      "ship vid, pid, cost from visits to berlin";
    ];
  let db = Storage.Database.create () in
  let add name text types =
    let def = Catalog.table_def cat name in
    let schema =
      List.map
        (fun (c : Catalog.Table_def.column) -> Attr.make ~rel:name ~name:c.cname)
        def.Catalog.Table_def.columns
    in
    Storage.Database.add db ~table:name (Storage.Csv.parse ~schema ~types text)
  in
  add "patients" "pid,name,age\n1,a,30\n2,b,60\n" [ Value.Tint; Value.Tstr; Value.Tint ];
  add "visits" "vid,pid,cost\n10,1,5\n11,2,7\n12,2,9\n"
    [ Value.Tint; Value.Tint; Value.Tfloat ];
  Cgqp.attach_database session db;
  (match
     Cgqp.run session
       "SELECT p.age, SUM(v.cost) AS c FROM patients p, visits v \
        WHERE p.pid = v.pid GROUP BY p.age"
   with
  | Ok r -> Alcotest.(check int) "two groups" 2 (Storage.Relation.cardinality r.Cgqp.relation)
  | Error e -> Alcotest.failf "run failed: %s" (Cgqp.error_to_string e));
  (* names cannot cross the border: the query is still legal (visits
     may travel to berlin), but every plan must keep the name data at
     its home site *)
  (match
     Cgqp.optimize session
       "SELECT p.name, v.cost FROM patients p, visits v WHERE p.pid = v.pid"
   with
  | Ok p ->
    Alcotest.(check string) "join pinned at berlin" "berlin"
      p.Optimizer.Planner.plan.Exec.Pplan.loc;
    Alcotest.(check bool) "no ship out of berlin" true
      (List.for_all
         (fun (f, _, _) -> f <> "berlin")
         (Exec.Pplan.ships p.Optimizer.Planner.plan))
  | Error e -> Alcotest.failf "optimize failed: %s" (Cgqp.error_to_string e));
  (* once visits may not travel either, the query becomes illegal *)
  Cgqp.clear_policies session;
  Cgqp.add_policies session [ "ship pid, age from patients to paris" ];
  Alcotest.(check bool) "now illegal" false
    (Cgqp.is_legal session
       "SELECT p.name, v.cost FROM patients p, visits v WHERE p.pid = v.pid")

(* [load_csv_dir] splits a partitioned table round-robin (row j to
   partition j mod k, in order) and loads a missing file as an empty
   relation. Every column keeps its declared type: an empty partition or
   a missing table has zero-length typed columns, never boxed
   [Values [||]]. *)
let test_load_csv_dir () =
  let cat =
    Geodsl.parse_catalog
      "location a\nlocation b\nlocation c\n\
       table t at db on a, b, c rows 7 (x int key, s string)\n\
       table one at db on a, b, c rows 1 (x int key, s string)\n\
       table gone at db on a (y date)\n\
       table gone2 at db on a, b (y float)\n"
  in
  let dir = Filename.temp_file "cgqp-csvdir-" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name text =
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    output_string oc text;
    close_out oc
  in
  write "t" "x,s\n0,a\n1,b\n2,c\n3,d\n4,e\n5,f\n6,g\n";
  write "one" "x,s\n9,z\n";
  let db =
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () -> Geodsl.load_csv_dir ~cat dir)
  in
  let part table p = Storage.Database.find_exn db ~table ~partition:p () in
  let xs r =
    Array.to_list (Array.map (fun row -> Value.to_string row.(0)) (Storage.Relation.rows r))
  in
  Alcotest.(check (list string)) "t[0]" [ "0"; "3"; "6" ] (xs (part "t" 0));
  Alcotest.(check (list string)) "t[1]" [ "1"; "4" ] (xs (part "t" 1));
  Alcotest.(check (list string)) "t[2]" [ "2"; "5" ] (xs (part "t" 2));
  Alcotest.(check (list string)) "one[0]" [ "9" ] (xs (part "one" 0));
  let typed_empty label r expect =
    Alcotest.(check int) (label ^ " has no row") 0 (Storage.Relation.cardinality r);
    Alcotest.(check (list string)) (label ^ " typed columns") expect
      (Array.to_list
         (Array.map
            (fun (c : Storage.Column.t) ->
              match c.Storage.Column.data with
              | Ints _ -> "int" | Floats _ -> "float" | Strs _ -> "string"
              | Dates _ -> "date" | Bools _ -> "bool" | Values _ -> "values")
            (Storage.Relation.cols r)))
  in
  typed_empty "one[1]" (part "one" 1) [ "int"; "string" ];
  typed_empty "one[2]" (part "one" 2) [ "int"; "string" ];
  typed_empty "missing gone" (part "gone" 0) [ "date" ];
  typed_empty "missing gone2[0]" (part "gone2" 0) [ "float" ];
  typed_empty "missing gone2[1]" (part "gone2" 1) [ "float" ];
  Alcotest.(check int) "stored tables" 9 (List.length (Storage.Database.tables db))

let () =
  Alcotest.run "geodsl"
    [
      ( "csv",
        [
          Alcotest.test_case "basic" `Quick test_csv_basic;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "nulls and types" `Quick test_csv_nulls_and_types;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "no header" `Quick test_csv_no_header;
        ] );
      ( "schema",
        [
          Alcotest.test_case "parse" `Quick test_schema_parse;
          Alcotest.test_case "partitioned" `Quick test_schema_partitioned;
          Alcotest.test_case "errors" `Quick test_schema_errors;
          Alcotest.test_case "deployment e2e" `Quick test_end_to_end_deployment;
          Alcotest.test_case "load_csv_dir split and missing files" `Quick test_load_csv_dir;
        ] );
    ]
