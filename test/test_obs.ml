(* Observability layer tests: the disabled tracer is a true no-op
   (byte-identical optimizer output with tracing on and off), spans
   nest well-formed, the jsonl trace round-trips, the metrics registry
   behaves, and the EXPLAIN renderer output is locked by golden
   tests. *)

open Optimizer

let cat = Tpch.Schema.catalog ()
let data = Tpch.Datagen.generate ~sf:0.003 ()
let db = Tpch.Datagen.load ~cat data
let policies = Tpch.Policies.catalog_of cat Tpch.Policies.CR

let sql_of name = List.assoc name Tpch.Queries.all_extended

(* --- Json ------------------------------------------------------- *)

let sample_json =
  Obs.Json.(
    Obj
      [
        ("null", Null);
        ("t", Bool true);
        ("f", Bool false);
        ("int", Num 42.);
        ("neg", Num (-7.));
        ("frac", Num 2.5);
        ("str", Str "a \"quoted\" \\ line\nwith\ttabs");
        ("arr", Arr [ Num 1.; Str "two"; Arr []; Obj [] ]);
      ])

let test_json_roundtrip () =
  let s = Obs.Json.to_string sample_json in
  match Obs.Json.of_string s with
  | Ok v -> Alcotest.(check bool) "round-trips" true (v = sample_json)
  | Error e -> Alcotest.failf "parse of own output failed: %s (input %s)" e s

let test_json_errors () =
  List.iter
    (fun input ->
      match Obs.Json.of_string input with
      | Ok _ -> Alcotest.failf "expected a parse error on %S" input
      | Error _ -> ())
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "1 2"; "" ]

(* --- Trace ------------------------------------------------------ *)

(* A deterministic clock so nothing in these tests depends on time. *)
let install_test_clock () =
  let t = ref 0. in
  Obs.Trace.set_clock (fun () ->
      t := !t +. 1.;
      !t)

let with_tracing ?capacity f =
  install_test_clock ();
  Obs.Trace.enable ?capacity ();
  Fun.protect ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.clear ())
    f

let test_disabled_noop () =
  (* when disabled, span is exactly the thunk and instants vanish *)
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  Obs.Trace.instant "should.not.record" [];
  let r = Obs.Trace.span "neither.this" (fun () -> 41 + 1) in
  Alcotest.(check int) "span returns the thunk's value" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Trace.events ()))

(* The tentpole guarantee: running the optimizer with tracing enabled
   yields byte-identical plans and costs to running it with tracing
   off. Reuses the differential-suite comparison style. *)
let test_tracing_differential () =
  let optimize () =
    List.map
      (fun (name, sql) -> (name, Planner.optimize_sql ~cat ~policies sql))
      Tpch.Queries.all_extended
  in
  let render outcomes =
    String.concat "\n"
      (List.map
         (fun (name, o) ->
           match o with
           | Planner.Rejected reason -> name ^ ": REJECTED " ^ reason
           | Planner.Planned p ->
             Printf.sprintf "%s: cost %.6f ship %.6f\n%s%s" name p.Planner.phase1_cost
               p.Planner.ship_cost
               (Exec.Pplan.to_string p.Planner.plan)
               (Explain.render p))
         outcomes)
  in
  Obs.Trace.disable ();
  let off = render (optimize ()) in
  let on = with_tracing (fun () -> render (optimize ())) in
  Alcotest.(check string) "byte-identical plans, costs and EXPLAIN" off on;
  Alcotest.(check bool) "tracing actually recorded something" true
    (with_tracing (fun () ->
         ignore (optimize ());
         List.length (Obs.Trace.events ()) > 0))

let test_span_nesting () =
  let events =
    with_tracing (fun () ->
        ignore (Planner.optimize_sql ~cat ~policies (sql_of "Q3"));
        Obs.Trace.events ())
  in
  Alcotest.(check bool) "nonempty" true (events <> []);
  (* Begin/End bracket like parentheses; End names match their Begin;
     recorded depths equal the bracket depth at emission. *)
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.kind with
      | Obs.Trace.Begin ->
        Alcotest.(check int) "begin depth" (List.length !stack) e.depth;
        stack := e.name :: !stack
      | Obs.Trace.End -> (
        match !stack with
        | top :: rest ->
          Alcotest.(check string) "end matches innermost begin" top e.name;
          stack := rest;
          Alcotest.(check int) "end depth" (List.length !stack) e.depth
        | [] -> Alcotest.fail "End without a matching Begin")
      | Obs.Trace.Instant ->
        Alcotest.(check int) "instant depth" (List.length !stack) e.depth)
    events;
  Alcotest.(check (list string)) "all spans closed" [] !stack;
  (* the optimizer's outer span is present and encloses its phases *)
  let names = List.map (fun (e : Obs.Trace.event) -> e.name) events in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "optimizer.optimize"; "optimizer.normalize"; "optimizer.phase1.extract";
      "optimizer.phase2.place"; "optimizer.certify" ]

let test_ring_buffer () =
  with_tracing ~capacity:4 (fun () ->
      for i = 1 to 10 do
        Obs.Trace.instant "tick" [ ("i", Obs.Json.Num (float_of_int i)) ]
      done;
      let events = Obs.Trace.events () in
      Alcotest.(check int) "ring keeps capacity" 4 (List.length events);
      Alcotest.(check int) "dropped counts evictions" 6 (Obs.Trace.dropped ());
      (* oldest dropped: the survivors are the last four, in order *)
      let is =
        List.map
          (fun (e : Obs.Trace.event) ->
            match List.assoc "i" e.Obs.Trace.attrs with
            | Obs.Json.Num f -> int_of_float f
            | _ -> -1)
          events
      in
      Alcotest.(check (list int)) "newest survive, oldest first" [ 7; 8; 9; 10 ] is;
      (* clear empties the ring and restarts the drop count and seq *)
      Obs.Trace.clear ();
      Alcotest.(check int) "clear resets dropped" 0 (Obs.Trace.dropped ());
      Alcotest.(check int) "clear empties the ring" 0 (List.length (Obs.Trace.events ()));
      Obs.Trace.instant "after.clear" [];
      match Obs.Trace.events () with
      | [ e ] -> Alcotest.(check int) "seq restarts at 0" 0 e.Obs.Trace.seq
      | es -> Alcotest.failf "expected one event after clear, got %d" (List.length es))

let test_jsonl_roundtrip () =
  let events, jsonl =
    with_tracing (fun () ->
        ignore (Planner.optimize_sql ~cat ~policies (sql_of "Q3"));
        (Obs.Trace.events (), Obs.Trace.to_jsonl ()))
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one line per event" (List.length events) (List.length lines);
  List.iter2
    (fun (e : Obs.Trace.event) line ->
      match Obs.Json.of_string line with
      | Error msg -> Alcotest.failf "unparseable trace line: %s (%s)" line msg
      | Ok j -> (
        match Obs.Trace.event_of_json j with
        | Error msg -> Alcotest.failf "undecodable event: %s (%s)" line msg
        | Ok e' -> Alcotest.(check bool) "event round-trips" true (e = e')))
    events lines;
  (* traces written while events still carried a domain tag decode *)
  let old_line =
    {|{"seq":3,"ts_ms":1.5,"kind":"I","name":"memo.group","depth":1,"dom":0,"attrs":{"g":2}}|}
  in
  match Result.map Obs.Trace.event_of_json (Obs.Json.of_string old_line) with
  | Ok (Ok e) ->
    Alcotest.(check (pair string int)) "old line decodes" ("memo.group", 3) (e.name, e.seq)
  | Ok (Error msg) | Error msg -> Alcotest.failf "line with \"dom\" rejected: %s" msg

(* --- Metrics ---------------------------------------------------- *)

let test_counter_identity () =
  let a = Obs.Metrics.counter ~labels:[ ("x", "1"); ("y", "2") ] "test_obs_ctr_total" in
  (* same name, same labels in a different order: the same counter *)
  let b = Obs.Metrics.counter ~labels:[ ("y", "2"); ("x", "1") ] "test_obs_ctr_total" in
  let before = Obs.Metrics.value a in
  Obs.Metrics.inc a;
  Obs.Metrics.inc ~by:4 b;
  Alcotest.(check int) "shared across registrations" (before + 5) (Obs.Metrics.value a);
  (* different labels: a distinct counter *)
  let c = Obs.Metrics.counter ~labels:[ ("x", "other") ] "test_obs_ctr_total" in
  Alcotest.(check int) "distinct label set starts fresh" 0 (Obs.Metrics.value c)

let test_histogram () =
  let h =
    Obs.Metrics.histogram ~buckets:[ 1.; 10.; 100. ] "test_obs_hist_ms"
      ~labels:[ ("case", "basic") ]
  in
  List.iter (Obs.Metrics.observe h) [ 0.5; 5.; 50.; 500. ];
  Alcotest.(check int) "count" 4 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 555.5 (Obs.Metrics.hist_sum h);
  (* bucket counts are only visible through the dump *)
  let buckets () =
    let dumped =
      match Obs.Json.member "histograms" (Obs.Metrics.dump ()) with
      | Some (Obs.Json.Arr hs) -> hs
      | _ -> Alcotest.fail "dump has no histograms array"
    in
    match
      List.find_opt
        (fun j ->
          Obs.Json.member "name" j = Some (Obs.Json.Str "test_obs_hist_ms")
          && Obs.Json.member "labels" j
             = Some (Obs.Json.Obj [ ("case", Obs.Json.Str "basic") ]))
        dumped
    with
    | Some j -> (
      match Obs.Json.member "buckets" j with
      | Some (Obs.Json.Arr bs) ->
        List.map
          (fun b ->
            match Obs.Json.member "count" b with
            | Some (Obs.Json.Num c) -> int_of_float c
            | _ -> -1)
          bs
      | _ -> Alcotest.fail "histogram without buckets")
    | None -> Alcotest.fail "histogram missing from the dump"
  in
  Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1; 1 ] (buckets ());
  Obs.Metrics.reset ();
  Alcotest.(check int) "count after reset" 0 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 0.)) "sum after reset" 0. (Obs.Metrics.hist_sum h);
  Alcotest.(check (list int)) "buckets after reset" [ 0; 0; 0; 0 ] (buckets ());
  Obs.Metrics.observe h 5.;
  Alcotest.(check int) "counts from zero" 1 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sums from zero" 5. (Obs.Metrics.hist_sum h);
  Alcotest.(check (list int)) "buckets from zero" [ 0; 1; 0; 0 ] (buckets ())

let test_dump_roundtrip () =
  (* force some registered instruments to be nonzero *)
  ignore (Planner.optimize_sql ~cat ~policies (sql_of "Q3"));
  let dump = Obs.Metrics.dump () in
  let s = Obs.Json.to_string dump in
  (match Obs.Json.of_string s with
  | Ok v -> Alcotest.(check bool) "dump parses back identically" true (v = dump)
  | Error e -> Alcotest.failf "dump did not round-trip: %s" e);
  (* the PR-1 stats surfaced through the registry are present *)
  let counters =
    match Obs.Json.member "counters" dump with
    | Some (Obs.Json.Arr cs) -> cs
    | _ -> Alcotest.fail "dump has no counters array"
  in
  let has name =
    List.exists
      (fun c -> Obs.Json.member "name" c = Some (Obs.Json.Str name))
      counters
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " registered") true (has n))
    [ "cgqp_policy_eta_total"; "cgqp_policy_implication_tests_total";
      "cgqp_policy_cache_total"; "cgqp_optimizer_memo_groups_total";
      "cgqp_optimizer_queries_total" ];
  let gauges =
    match Obs.Json.member "gauges" dump with
    | Some (Obs.Json.Arr gs) -> gs
    | _ -> Alcotest.fail "dump has no gauges array"
  in
  Alcotest.(check bool) "intern-pool gauges registered" true
    (List.exists
       (fun g -> Obs.Json.member "name" g = Some (Obs.Json.Str "cgqp_intern_pool_size"))
       gauges)

(* --- EXPLAIN ---------------------------------------------------- *)

(* Golden test on a small deterministic query: single-table filter +
   projection under the CR policy set. *)
let golden_sql = "SELECT name FROM nation WHERE regionkey = 1"

let golden_expected =
  "compliant plan\n\
   phase-1 cost 80 | est. ship cost 0.00 ms | memo groups 4\n\
   policy evaluation: eta 4, implication tests 4\n\
   pruning: bound 80, pruned 0 groups / 0 entries / 0 combos\n\
   \n\
   Project [nation.name] @ L5  (est 5 rows)\n\
   \xe2\x94\x94\xe2\x94\x80 Filter [nation.regionkey = 1] @ L5  (est 5 rows)\n\
   \   \xe2\x94\x94\xe2\x94\x80 Project [nation.name, nation.regionkey] @ L5  (est 25 rows)\n\
   \      \xe2\x94\x94\xe2\x94\x80 Scan nation @ L5  (est 25 rows)\n"

let test_explain_golden () =
  match Planner.optimize_sql ~cat ~policies golden_sql with
  | Planner.Rejected r -> Alcotest.failf "golden query rejected: %s" r
  | Planner.Planned p ->
    Alcotest.(check string) "EXPLAIN output" golden_expected (Explain.render p)

let test_explain_analyze () =
  let session = Cgqp.create ~catalog:cat ~database:db () in
  Cgqp.set_policy_catalog session policies;
  match Cgqp.explain_analyze session (sql_of "Q3") with
  | Error e -> Alcotest.failf "explain analyze failed: %s" (Cgqp.error_to_string e)
  | Ok text ->
    let contains needle =
      let n = String.length needle and m = String.length text in
      let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
      go 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("output mentions " ^ needle) true (contains needle))
      [ "compliant plan"; "act"; "SHIP"; "[ok]"; "execution:"; "makespan" ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "tracing on/off differential" `Quick
            test_tracing_differential;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "ring buffer" `Quick test_ring_buffer;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter identity" `Quick test_counter_identity;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "dump round-trip" `Quick test_dump_roundtrip;
        ] );
      ( "explain",
        [
          Alcotest.test_case "golden" `Quick test_explain_golden;
          Alcotest.test_case "analyze smoke" `Quick test_explain_analyze;
        ] );
    ]
