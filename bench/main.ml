(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7). Each experiment prints the same rows/series the
   paper reports; absolute numbers differ (different machine, different
   host optimizer), the shapes are the reproduction target.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e1 e5   # selected experiments
     dune exec bench/main.exe -- micro   # bechamel micro-benchmarks

   Experiment index (see DESIGN.md):
     e1  Fig. 5(a)   C/NC matrix of the traditional optimizer
     e2  Fig. 5(b-e) plan excerpts for Q2 and Q3
     e3  Fig. 6(a)   effectiveness on 400 ad-hoc queries
     e4  Fig. 6(b)   minimal optimization overhead
     e5  Fig. 6(c-f) optimization time per expression set
     e6  Fig. 6(g,h) plan quality (scaled execution cost)
     e7  Fig. 7(a-c) scalability vs number of expressions (with eta)
     e8  Fig. 7(d,e) scalability vs number of table locations
     e9  Fig. 8      impact of locations per policy expression
     e11 (extension) optimizer fast path: verdict caches + branch-and-bound
     serve (extension) serving layer: plan cache hit rate + admission
                     under a multi-session mix, cache-on/off differential
     exec (extension) the two execution engines (reference, vectorized)
                     head to head: speedups + byte-identity
                     differential, writes BENCH_exec.json
     replica (extension) replica-aware compliant placement: shipped
                     bytes + failover success rate with vs. without
                     replica sets, writes BENCH_replica.json
     t1  Table 1     policy evaluator worked example
     smoke           quick CI subset (t1 + e11 with fewer repetitions)
*)

let queries = Tpch.Queries.all

(* One CGQP_SEED value reseeds every generator in the harness; without
   it each experiment keeps its historical fixed seed, so the numbers
   recorded in EXPERIMENTS.md stay reproducible verbatim. *)
let seed ~default =
  match Storage.Seed.override () with Some s -> s | None -> default

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

(* mean and standard error over [runs] repetitions (the paper uses 7) *)
let timed_stats ?(runs = 7) f =
  let samples = List.init runs (fun _ -> snd (time_ms f)) in
  let n = float_of_int runs in
  let mean = List.fold_left ( +. ) 0. samples /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. samples /. n
  in
  (mean, sqrt var /. sqrt n)

let optimize ~mode ~cat ~policies sql =
  Optimizer.Planner.optimize_sql ~mode ~cat ~policies sql

let status = function
  | Optimizer.Planner.Planned p ->
    if p.Optimizer.Planner.violations = [] then "C" else "NC"
  | Optimizer.Planner.Rejected _ -> "REJ"

let header title = Fmt.pr "@.==== %s ====@." title

let getenv_float name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
    match float_of_string_opt s with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "%s=%S: expected a number" name s))

let getenv_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "%s=%S: expected an integer" name s))

(* ------------------------------------------------------------------ *)
(* e1 -- Fig. 5(a): compliance of the plans produced by each optimizer *)

let e1 () =
  header "E1 / Fig. 5(a): QEP compliance per query and expression set";
  let cat = Tpch.Schema.catalog () in
  Fmt.pr "%-12s" "set";
  List.iter (fun (n, _) -> Fmt.pr "%8s" n) queries;
  Fmt.pr "@.";
  List.iter
    (fun set ->
      let policies = Tpch.Policies.catalog_of cat set in
      let row mode tag =
        Fmt.pr "%-12s" (Tpch.Policies.set_name_to_string set ^ tag);
        List.iter
          (fun (_, sql) -> Fmt.pr "%8s" (status (optimize ~mode ~cat ~policies sql)))
          queries;
        Fmt.pr "@."
      in
      row Optimizer.Memo.Traditional "/trad";
      row Optimizer.Memo.Compliant "/comp")
    Tpch.Policies.all_sets;
  Fmt.pr "(paper: traditional NC for Q2 under T and C; Q2, Q3, Q10 under CR and@.";
  Fmt.pr " CR+A; compliant optimizer C everywhere. Our CR+A additionally turns@.";
  Fmt.pr " Q8/Q9 non-compliant -- a consequence of restricting lineitem's pricing@.";
  Fmt.pr " columns to force the Fig. 5(e) aggregation pushdown; see EXPERIMENTS.md.)@."

(* ------------------------------------------------------------------ *)
(* e2 -- Fig. 5(b-e): plan excerpts *)

let e2 () =
  header "E2 / Fig. 5(b-e): plan excerpts for Q2 (CR) and Q3 (CR+A)";
  let cat = Tpch.Schema.catalog () in
  let show set sql label mode =
    let policies = Tpch.Policies.catalog_of cat set in
    Fmt.pr "@.--- %s ---@." label;
    match optimize ~mode ~cat ~policies sql with
    | Optimizer.Planner.Planned p ->
      Fmt.pr "%a" (Exec.Pplan.pp ~indent:2) p.Optimizer.Planner.plan;
      List.iter
        (fun v -> Fmt.pr "  violation: %a@." Optimizer.Checker.pp_violation v)
        p.Optimizer.Planner.violations
    | Optimizer.Planner.Rejected r -> Fmt.pr "REJECTED: %s@." r
  in
  show Tpch.Policies.CR Tpch.Queries.q2 "Q2, traditional (Fig. 5(b): non-compliant)"
    Optimizer.Memo.Traditional;
  show Tpch.Policies.CR Tpch.Queries.q2 "Q2, compliant (Fig. 5(c))"
    Optimizer.Memo.Compliant;
  show Tpch.Policies.CRA Tpch.Queries.q3 "Q3, traditional (Fig. 5(d): non-compliant)"
    Optimizer.Memo.Traditional;
  show Tpch.Policies.CRA Tpch.Queries.q3
    "Q3, compliant (Fig. 5(e): aggregation pushed below the SHIP)"
    Optimizer.Memo.Compliant

(* ------------------------------------------------------------------ *)
(* e3 -- Fig. 6(a): effectiveness on 400 ad-hoc queries *)

let e3 ?(n = 400) () =
  header "E3 / Fig. 6(a): fraction of ad-hoc queries with a compliant QEP";
  let cat = Tpch.Schema.catalog () in
  let adhoc = Tpch.Workload.gen_queries ~seed:(seed ~default:2026) ~n () in
  (* the 400 queries are divided equally among the four sets (§7.2) *)
  let tagged = List.mapi (fun i q -> (i * 4 / n, q)) adhoc in
  let quarters =
    List.init 4 (fun k ->
        List.filter_map (fun (t, q) -> if t = k then Some q else None) tagged)
  in
  Fmt.pr "%-10s %-22s %-22s@." "set" "traditional" "compliant";
  List.iteri
    (fun i set ->
      let n_expr = match set with Tpch.Policies.T -> 8 | _ -> 50 in
      let texts = Tpch.Workload.gen_expressions ~seed:(seed ~default:11) ~template:set ~n:n_expr () in
      let policies = Policy.Pcatalog.of_texts cat texts in
      let qs = List.nth quarters i in
      let total = List.length qs in
      let count mode =
        List.length
          (List.filter (fun sql -> status (optimize ~mode ~cat ~policies sql) = "C") qs)
      in
      let t = count Optimizer.Memo.Traditional and c = count Optimizer.Memo.Compliant in
      Fmt.pr "%-10s %4d/%-4d (%5.1f%%)     %4d/%-4d (%5.1f%%)@."
        (Printf.sprintf "%s(%d)" (Tpch.Policies.set_name_to_string set) n_expr)
        t total (100. *. float_of_int t /. float_of_int total)
        c total (100. *. float_of_int c /. float_of_int total))
    Tpch.Policies.all_sets;
  Fmt.pr "(paper: compliant 100%% everywhere; traditional ~50%% on average,@.";
  Fmt.pr " 42%% under T and 30%% under CR+A)@."

(* ------------------------------------------------------------------ *)
(* e4 -- Fig. 6(b): minimal overhead (no dataflow restrictions) *)

let opt_time_row ~cat ~policies (name, sql) =
  let t_trad, se_t =
    timed_stats (fun () ->
        ignore (optimize ~mode:Optimizer.Memo.Traditional ~cat ~policies sql))
  in
  let t_comp, se_c =
    timed_stats (fun () ->
        ignore (optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies sql))
  in
  Fmt.pr "%-5s %10.2f +-%-8.2f %10.2f +-%-8.2f %6.2fx@." name t_trad se_t t_comp se_c
    (t_comp /. Float.max 1e-9 t_trad)

let e4 () =
  header "E4 / Fig. 6(b): minimal overhead -- unrestricted `ship * from t to *`";
  let cat = Tpch.Schema.catalog () in
  let policies = Policy.Pcatalog.of_texts cat Tpch.Policies.unrestricted in
  Fmt.pr "%-5s %20s %20s %8s@." "query" "traditional (ms)" "compliant (ms)" "ratio";
  List.iter (opt_time_row ~cat ~policies) queries;
  Fmt.pr "(paper: compliant ~2x traditional, most pronounced for Q2)@."

(* ------------------------------------------------------------------ *)
(* e5 -- Fig. 6(c-f): optimization time per expression set *)

let e5 () =
  header "E5 / Fig. 6(c-f): optimization time under each expression set";
  let cat = Tpch.Schema.catalog () in
  List.iter
    (fun set ->
      let policies = Tpch.Policies.catalog_of cat set in
      Fmt.pr "@.-- set %s (%d expressions) --@."
        (Tpch.Policies.set_name_to_string set)
        (Policy.Pcatalog.size policies);
      Fmt.pr "%-5s %20s %20s %8s@." "query" "traditional (ms)" "compliant (ms)" "ratio";
      List.iter (opt_time_row ~cat ~policies) queries)
    Tpch.Policies.all_sets;
  Fmt.pr "@.(Table 3 snippet included in the CR/CR+A sets:)@.";
  List.iter (Fmt.pr "  %s@.") Tpch.Policies.table3

(* ------------------------------------------------------------------ *)
(* e6 -- Fig. 6(g,h): quality of plans (scaled execution cost) *)

let e6 () =
  header "E6 / Fig. 6(g,h): scaled execution cost (simulated network, alpha+beta*b)";
  let cat = Tpch.Schema.catalog () in
  (* estimated costs come from the optimizer; measured costs from
     actually executing both plans on generated data and accounting the
     bytes each SHIP moves *)
  let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~sf:0.005 ()) in
  let measured plan =
    (Exec.Interp.run ~network:(Catalog.network cat) ~db
       ~table_cols:(Catalog.table_cols cat) plan)
      .Exec.Interp.stats
    |> Exec.Interp.total_ship_cost
  in
  List.iter
    (fun set ->
      let policies = Tpch.Policies.catalog_of cat set in
      Fmt.pr "@.-- set %s --@." (Tpch.Policies.set_name_to_string set);
      Fmt.pr "%-5s %12s %12s %8s %10s %6s %6s %6s@." "query" "trad est" "comp est"
        "scaled" "measured" "trad" "comp" "plan";
      List.iter
        (fun (name, sql) ->
          let trad = optimize ~mode:Optimizer.Memo.Traditional ~cat ~policies sql in
          let comp = optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies sql in
          match trad, comp with
          | Optimizer.Planner.Planned t, Optimizer.Planner.Planned c ->
            let same =
              Exec.Pplan.to_string t.Optimizer.Planner.plan
              = Exec.Pplan.to_string c.Optimizer.Planner.plan
            in
            let mt = measured t.Optimizer.Planner.plan
            and mc = measured c.Optimizer.Planner.plan in
            Fmt.pr "%-5s %12.2f %12.2f %7.2fx %9.2fx %6s %6s %6s@." name
              t.Optimizer.Planner.ship_cost c.Optimizer.Planner.ship_cost
              (c.Optimizer.Planner.ship_cost /. Float.max 1e-9 t.Optimizer.Planner.ship_cost)
              (mc /. Float.max 1e-9 mt)
              (status trad) (status comp)
              (if same then "=" else "/=")
          | _ -> Fmt.pr "%-5s failed@." name)
        queries)
    [ Tpch.Policies.C; Tpch.Policies.CR ];
  Fmt.pr "(paper: identical plans whenever the traditional plan is compliant;@.";
  Fmt.pr " otherwise query/policy-dependent overhead, e.g. 18x for Q2 under CR)@."

(* ------------------------------------------------------------------ *)
(* e7 -- Fig. 7(a-c): scalability vs number of policy expressions *)

let e7 () =
  header "E7 / Fig. 7(a-c): optimization time vs #expressions (CR+A), with eta";
  let cat = Tpch.Schema.catalog () in
  let qs = [ ("Q2", Tpch.Queries.q2); ("Q3", Tpch.Queries.q3); ("Q10", Tpch.Queries.q10) ] in
  List.iter
    (fun (name, sql) ->
      Fmt.pr "@.-- %s --@." name;
      Fmt.pr "%-8s %18s %8s@." "#expr" "compliant (ms)" "eta";
      List.iter
        (fun n ->
          let texts =
            Tpch.Workload.gen_expressions ~seed:(seed ~default:11) ~template:Tpch.Policies.CRA ~n ()
          in
          let policies = Policy.Pcatalog.of_texts cat texts in
          let eta = ref 0 in
          let mean, se =
            timed_stats (fun () ->
                match optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies sql with
                | Optimizer.Planner.Planned p ->
                  eta := p.Optimizer.Planner.eval_stats.Policy.Evaluator.eta
                | Optimizer.Planner.Rejected _ -> ())
          in
          Fmt.pr "%-8d %10.2f +-%-5.2f %8d@." n mean se !eta)
        [ 12; 25; 50; 100 ])
    qs;
  Fmt.pr "(paper: time grows proportionally to eta, not to the raw set size)@."

(* ------------------------------------------------------------------ *)
(* e8 -- Fig. 7(d,e): scalability vs number of table locations *)

let e8 () =
  header "E8 / Fig. 7(d,e): optimization time vs #locations of customer+orders";
  let qs = [ ("Q3", Tpch.Queries.q3); ("Q10", Tpch.Queries.q10) ] in
  List.iter
    (fun (name, sql) ->
      Fmt.pr "@.-- %s --@." name;
      Fmt.pr "%-12s %18s %10s@." "#locations" "compliant (ms)" "groups";
      List.iter
        (fun k ->
          let cat =
            Tpch.Schema.catalog
              ~partition_tables:[ "customer"; "orders" ]
              ~partition_count:k ()
          in
          (* generated CR+A expressions: the unconditional backbone lets
             partitions recombine (the handcrafted CR+A set would make a
             partitioned `orders` table illegal to reunite) *)
          let policies =
            Policy.Pcatalog.of_texts cat
              (Tpch.Workload.gen_expressions ~seed:(seed ~default:11) ~template:Tpch.Policies.CRA ~n:10 ())
          in
          let groups = ref 0 in
          let mean, se =
            timed_stats (fun () ->
                match optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies sql with
                | Optimizer.Planner.Planned p -> groups := p.Optimizer.Planner.groups
                | Optimizer.Planner.Rejected _ -> ())
          in
          Fmt.pr "%-12d %10.2f +-%-5.2f %10d@." k mean se !groups)
        [ 1; 2; 3; 4; 5 ])
    qs;
  Fmt.pr "(paper: roughly linear growth, dominated by the plan annotator)@."

(* ------------------------------------------------------------------ *)
(* e9 -- Fig. 8: impact of #locations per policy expression *)

let e9 () =
  header "E9 / Fig. 8: optimization time vs #locations per expression";
  let locations = List.init 20 (fun i -> Printf.sprintf "L%d" (i + 1)) in
  let network = Catalog.Network.uniform ~locations ~alpha:150. ~beta:2e-6 in
  let cat = Tpch.Schema.catalog ~network () in
  let qs = [ ("Q2", Tpch.Queries.q2); ("Q3", Tpch.Queries.q3) ] in
  List.iter
    (fun (name, sql) ->
      Fmt.pr "@.-- %s --@." name;
      Fmt.pr "%-12s %18s@." "#locations" "compliant (ms)";
      List.iter
        (fun n ->
          let texts =
            Tpch.Workload.gen_expressions ~seed:(seed ~default:13) ~template:Tpch.Policies.T ~n:8
              ~locations ~locs_per_expr:n ()
          in
          let policies = Policy.Pcatalog.of_texts cat texts in
          let mean, se =
            timed_stats (fun () ->
                ignore (optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies sql))
          in
          Fmt.pr "%-12d %10.2f +-%-5.2f@." n mean se)
        [ 3; 5; 10; 15; 20 ])
    qs;
  Fmt.pr "(paper: ~1.6-1.7x growth for Q2 from 5 to 20 locations; milder for Q3,@.";
  Fmt.pr " driven by the set operations of the annotation rules)@."

(* ------------------------------------------------------------------ *)
(* t1 -- Table 1: policy evaluator worked example *)

let t1 () =
  header "T1 / Table 1: policy evaluation algorithm on T(a..g)";
  let open Relalg in
  let cat =
    let open Catalog.Table_def in
    let col c = column c Value.Tint in
    Catalog.make
      ~network:
        (Catalog.Network.uniform ~locations:[ "l0"; "l1"; "l2"; "l3"; "l4" ]
           ~alpha:100. ~beta:1e-5)
      [
        ( make ~name:"t"
            ~columns:[ col "a"; col "b"; col "c"; col "d"; col "e"; col "f"; col "g" ]
            ~key:[ "a" ] ~row_count:1000 (),
          [ { Catalog.db = "db-t"; location = "l0"; fraction = 1.0 } ] );
      ]
  in
  let exprs =
    [
      "ship a, b, c from t to l2, l3";
      "ship a, b from t to l1, l2, l3, l4";
      "ship a, d from t to l1, l3 where b > 10";
      "ship f, g as aggregates sum, avg from t to l1, l2 group by e, c";
    ]
  in
  let policies = Policy.Pcatalog.of_texts cat exprs in
  List.iter (Fmt.pr "  %s@.") exprs;
  let show sql =
    let plan =
      Sqlfront.Binder.plan_of_sql
        ~table_cols:(fun t ->
          Option.map
            (fun e -> Catalog.Table_def.col_names e.Catalog.def)
            (Catalog.find_table cat t))
        sql
    in
    let s = Summary.analyze ~table_cols:(Catalog.table_cols cat) plan in
    Fmt.pr "  %-50s -> %a@." sql Catalog.Location.Set.pp
      (Policy.Evaluator.locations_for ~catalog:cat ~policies s)
  in
  Fmt.pr "@.";
  show "SELECT a, c, d FROM t WHERE b > 15";
  show "SELECT c, SUM(f * (1 - g)) FROM t GROUP BY c";
  Fmt.pr "(paper: A(q1) = {l3}, A(q2) = {l1,l2}, plus the home location l0)@."

(* ------------------------------------------------------------------ *)
(* micro -- bechamel micro-benchmarks *)

let micro () =
  header "MICRO: bechamel micro-benchmarks";
  let open Bechamel in
  let cat = Tpch.Schema.catalog () in
  let policies = Tpch.Policies.catalog_of cat Tpch.Policies.CRA in
  let plan_of sql =
    Sqlfront.Binder.plan_of_sql
      ~table_cols:(fun t ->
        Option.map
          (fun e -> Catalog.Table_def.col_names e.Catalog.def)
          (Catalog.find_table cat t))
      sql
  in
  let summary_q3 =
    Relalg.Summary.analyze ~table_cols:(Catalog.table_cols cat) (plan_of Tpch.Queries.q3)
  in
  let tests =
    Test.make_grouped ~name:"cgqp" ~fmt:"%s/%s"
      [
        Test.make ~name:"evaluator-q3"
          (Staged.stage (fun () ->
               ignore
                 (Policy.Evaluator.locations_for ~catalog:cat ~policies summary_q3)));
        Test.make ~name:"optimize-q3-compliant"
          (Staged.stage (fun () ->
               ignore
                 (optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies Tpch.Queries.q3)));
        Test.make ~name:"optimize-q3-traditional"
          (Staged.stage (fun () ->
               ignore
                 (optimize ~mode:Optimizer.Memo.Traditional ~cat ~policies
                    Tpch.Queries.q3)));
        Test.make ~name:"optimize-q5-compliant"
          (Staged.stage (fun () ->
               ignore
                 (optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies Tpch.Queries.q5)));
        Test.make ~name:"optimize-q8-compliant"
          (Staged.stage (fun () ->
               ignore
                 (optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies Tpch.Queries.q8)));
        Test.make ~name:"parse-policy"
          (Staged.stage (fun () ->
               ignore
                 (Policy.Expression.parse cat
                    "ship extendedprice, discount as aggregates sum from db-4.lineitem \
                     to L1 group by suppkey, orderkey")));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  Fmt.pr "%-35s %16s@." "benchmark" "time/run";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
        if ns > 1e6 then Fmt.pr "%-35s %13.3f ms@." name (ns /. 1e6)
        else Fmt.pr "%-35s %13.3f us@." name (ns /. 1e3)
      | _ -> Fmt.pr "%-35s %16s@." name "n/a")
    results

(* ------------------------------------------------------------------ *)
(* e10 -- beyond the paper: extended TPC-H workload + objectives *)

let e10 () =
  header "E10 (extension): extended TPC-H workload and cost-model objectives";
  let cat = Tpch.Schema.catalog () in
  let policies = Tpch.Policies.catalog_of cat Tpch.Policies.CRA in
  let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~sf:0.005 ()) in
  Fmt.pr "@.Compliance of the six additional queries under CR+A:@.";
  Fmt.pr "%-5s %6s %6s %14s@." "query" "trad" "comp" "comp ship(ms)";
  List.iter
    (fun (name, sql) ->
      let trad = optimize ~mode:Optimizer.Memo.Traditional ~cat ~policies sql in
      let comp = optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies sql in
      match comp with
      | Optimizer.Planner.Planned c ->
        Fmt.pr "%-5s %6s %6s %14.2f@." name (status trad) (status comp)
          c.Optimizer.Planner.ship_cost
      | Optimizer.Planner.Rejected _ -> Fmt.pr "%-5s %6s %6s@." name (status trad) "REJ")
    Tpch.Queries.extended;
  Fmt.pr "@.Total-cost vs response-time objective, measured on execution@.";
  Fmt.pr "(makespan = critical path with parallel subtrees, alpha+beta*b links):@.";
  Fmt.pr "%-5s %18s %18s@." "query" "total-obj (ms)" "response-obj (ms)";
  List.iter
    (fun (name, sql) ->
      let measure objective =
        match
          Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Compliant ~objective ~cat
            ~policies sql
        with
        | Optimizer.Planner.Planned p ->
          Some
            (Exec.Interp.run ~network:(Catalog.network cat) ~db
               ~table_cols:(Catalog.table_cols cat) p.Optimizer.Planner.plan)
              .Exec.Interp.makespan_ms
        | Optimizer.Planner.Rejected _ -> None
      in
      match measure `Total, measure `Response_time with
      | Some t, Some r -> Fmt.pr "%-5s %18.2f %18.2f@." name t r
      | _ -> Fmt.pr "%-5s rejected@." name)
    [ ("Q5", Tpch.Queries.q5); ("Q7", Tpch.Queries.q7); ("Q8", Tpch.Queries.q8);
      ("Q9", Tpch.Queries.q9) ]

(* ------------------------------------------------------------------ *)
(* e11 -- fast path: hash-consing + verdict caches + branch-and-bound *)

let e11 ?(runs = 7) () =
  header "E11: optimizer fast path -- verdict caches + branch-and-bound (Fig. 7 shape)";
  let cat = Tpch.Schema.catalog () in
  let set_caches b =
    Policy.Implication.set_cache_enabled b;
    Policy.Evaluator.set_cache_enabled b
  in
  let plan_sig = function
    | Optimizer.Planner.Planned p -> Exec.Pplan.to_string p.Optimizer.Planner.plan
    | Optimizer.Planner.Rejected r -> "REJECTED: " ^ r
  in
  let rate hits misses =
    let total = hits + misses in
    if total = 0 then 0. else 100. *. float_of_int hits /. float_of_int total
  in
  let tot_base = ref 0. and tot_fast = ref 0. and mismatches = ref 0 in
  List.iter
    (fun set ->
      let policies = Tpch.Policies.catalog_of cat set in
      Fmt.pr "@.-- set %s --@." (Tpch.Policies.set_name_to_string set);
      Fmt.pr "%-5s %15s %15s %8s %7s %7s %8s %5s@." "query" "baseline (ms)" "fast (ms)"
        "speedup" "impl%" "eval%" "pruned" "plan";
      List.iter
        (fun (name, sql) ->
          (* baseline: verdict caches off, no branch-and-bound *)
          set_caches false;
          let base_out =
            Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Compliant ~prune:false
              ~cat ~policies sql
          in
          let t_base, se_b =
            timed_stats ~runs (fun () ->
                ignore
                  (Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Compliant
                     ~prune:false ~cat ~policies sql))
          in
          (* fast path: caches on (cold), pruning on; the first run warms
             the caches, the timed runs then see steady-state hit rates *)
          set_caches true;
          Policy.Implication.reset_cache ();
          Policy.Evaluator.reset_cache ();
          let fast_out =
            Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Compliant ~cat ~policies
              sql
          in
          let ih0, im0 = Policy.Implication.cache_stats () in
          let eh0, em0 = Policy.Evaluator.cache_stats () in
          let t_fast, se_f =
            timed_stats ~runs (fun () ->
                ignore
                  (Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Compliant ~cat
                     ~policies sql))
          in
          let ih1, im1 = Policy.Implication.cache_stats () in
          let eh1, em1 = Policy.Evaluator.cache_stats () in
          let pruned =
            match fast_out with
            | Optimizer.Planner.Planned p ->
              let ps = p.Optimizer.Planner.prune_stats in
              ps.Optimizer.Memo.groups_pruned + ps.Optimizer.Memo.entries_pruned
              + ps.Optimizer.Memo.combos_pruned
            | Optimizer.Planner.Rejected _ -> 0
          in
          let same = String.equal (plan_sig base_out) (plan_sig fast_out) in
          if not same then incr mismatches;
          tot_base := !tot_base +. t_base;
          tot_fast := !tot_fast +. t_fast;
          Fmt.pr "%-5s %8.2f +-%-5.2f %8.2f +-%-5.2f %7.2fx %6.1f%% %6.1f%% %8d %5s@."
            name t_base se_b t_fast se_f
            (t_base /. Float.max 1e-9 t_fast)
            (rate (ih1 - ih0) (im1 - im0))
            (rate (eh1 - eh0) (em1 - em0))
            pruned
            (if same then "=" else "/="))
        queries)
    Tpch.Policies.all_sets;
  set_caches true;
  Fmt.pr "@.total %8.2f ms -> %8.2f ms (%.2fx); plan mismatches: %d@." !tot_base
    !tot_fast
    (!tot_base /. Float.max 1e-9 !tot_fast)
    !mismatches;
  Fmt.pr "(impl%%/eval%% = steady-state hit rates of the implication- and@.";
  Fmt.pr " compliance-verdict caches; pruned = groups + candidates + join combos@.";
  Fmt.pr " skipped by branch-and-bound; plan `=` means byte-identical to baseline)@."

(* ------------------------------------------------------------------ *)
(* ablation -- design-choice ablations promised in DESIGN.md *)

let ablation () =
  header "ABLATION: which rules buy what (cf. the paper's 6.4 discussion)";
  let cat = Tpch.Schema.catalog () in
  let cra = Tpch.Policies.catalog_of cat Tpch.Policies.CRA in
  let show label outcome =
    Fmt.pr "  %-52s %s@." label
      (match outcome with
      | Optimizer.Planner.Planned p ->
        Fmt.str "%s (ship %.1f ms, %d groups)"
          (if p.Optimizer.Planner.violations = [] then "compliant" else "NON-COMPLIANT")
          p.Optimizer.Planner.ship_cost p.Optimizer.Planner.groups
      | Optimizer.Planner.Rejected _ -> "REJECTED")
  in
  let opt ?rules policies sql =
    Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Compliant ?rules ~cat ~policies sql
  in
  Fmt.pr "@.Q3 under CR+A (lineitem pricing must be aggregated towards L1):@.";
  show "all rules" (opt cra Tpch.Queries.q3);
  show "without eager aggregation  -> completeness lost"
    (opt
       ~rules:{ Optimizer.Memo.default_rules with Optimizer.Memo.eager_aggregation = false }
       cra Tpch.Queries.q3);
  Fmt.pr "@.Q5 under C (join reordering quality):@.";
  let c_set = Tpch.Policies.catalog_of cat Tpch.Policies.C in
  show "all rules" (opt c_set Tpch.Queries.q5);
  show "without join associativity -> worse plans"
    (opt
       ~rules:
         { Optimizer.Memo.default_rules with
           Optimizer.Memo.join_associate = false }
       c_set Tpch.Queries.q5);
  Fmt.pr "@.Q3 with customer+orders partitioned over 3 sites:@.";
  let pcat =
    Tpch.Schema.catalog ~partition_tables:[ "customer"; "orders" ] ~partition_count:3 ()
  in
  let ppol =
    Policy.Pcatalog.of_texts pcat
      (Tpch.Workload.gen_expressions ~seed:(seed ~default:11) ~template:Tpch.Policies.CRA ~n:10 ())
  in
  show "all rules"
    (Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Compliant ~cat:pcat
       ~policies:ppol Tpch.Queries.q3);
  show "without union pushdown     -> masking blocked"
    (Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Compliant
       ~rules:
         { Optimizer.Memo.default_rules with Optimizer.Memo.union_pushdown = false }
       ~cat:pcat ~policies:ppol Tpch.Queries.q3)

(* ------------------------------------------------------------------ *)
(* serve -- serving layer: plan cache + admission under a session mix *)

(* A closed-loop TPC-H session mix: [sessions] sessions across two
   tenants (one rate-limited, one unlimited), each cycling through the
   built-in queries with policy churn on one session mid-stream. The
   repeats inside and across sessions are what the plan cache feeds on;
   the churn is what the epoch machinery must catch. *)
let serve_script ~sessions ~statements =
  let open Service in
  let qnames = [| "Q3"; "Q5"; "Q10"; "Q3"; "Q9"; "Q3"; "Q5"; "Q8" |] in
  let interactive =
    {
      Admission.max_in_flight = Some 3;
      ship_budget_bytes = None;
      window_ms = 1000.;
      on_deny = Admission.Queue;
    }
  in
  let session i =
    let tenant = if i mod 2 = 0 then "interactive" else "batch" in
    let submits =
      List.concat
        (List.init statements (fun j ->
             let q = Script.Submit qnames.((i + (2 * j)) mod Array.length qnames) in
             (* session 0 swaps its policy set halfway: every cached plan
                keyed against the old policies must be re-optimized *)
             if i = 0 && j = statements / 2 then [ Script.Set_policy_set "C"; q ]
             else [ q ]))
    in
    { Script.sid = Printf.sprintf "s%d" i; tenant; actions = Script.Set_policy_set "CR" :: submits }
  in
  {
    Script.seed = None;
    tenants = [ ("interactive", interactive); ("batch", Admission.unlimited) ];
    sessions = List.init sessions session;
  }

(* Knobs (all env, so the CI smoke job can shrink the run):
     CGQP_SERVE_SESSIONS    sessions in the mix           (default 8)
     CGQP_SERVE_STATEMENTS  statements per session        (default 12)
     CGQP_SERVE_SF          TPC-H scale factor            (default 0.005)
     CGQP_SERVE_OUT         output JSON path              (default BENCH_serve.json) *)
let serve_bench ?sessions ?statements () =
  let sessions =
    match sessions with Some s -> s | None -> getenv_int "CGQP_SERVE_SESSIONS" 8
  in
  let statements =
    match statements with
    | Some s -> s
    | None -> getenv_int "CGQP_SERVE_STATEMENTS" 12
  in
  let sf = getenv_float "CGQP_SERVE_SF" 0.005 in
  header "SERVE: plan cache + admission control under a TPC-H session mix";
  let cat = Tpch.Schema.catalog () in
  let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~sf ()) in
  let sd = seed ~default:2027 in
  let script = serve_script ~sessions ~statements in
  let run_with cache =
    let env =
      Service.Scheduler.env ~catalog:cat ~database:db ?cache
        ~resolve_query:Tpch.Queries.resolve ~resolve_policy_set:Tpch.Policies.texts_of_string ()
    in
    Service.Scheduler.run ~env ~seed:sd script
  in
  let cached, wall_cached =
    time_ms (fun () -> run_with (Some (Cgqp.Plan_cache.create ())))
  in
  let uncached, wall_uncached = time_ms (fun () -> run_with None) in
  Fmt.pr "seed %d: %d sessions x %d statements (2 tenants, policy churn on s0)@."
    cached.Service.Scheduler.seed sessions statements;
  (* differential: align per (sid, seq); the cache stores optimizer
     outcomes only, so plans AND results must be byte-identical *)
  let key (s : Service.Scheduler.stmt_record) = (s.Service.Scheduler.sid, s.Service.Scheduler.seq) in
  let sig_of (s : Service.Scheduler.stmt_record) =
    match s.Service.Scheduler.outcome with
    | Service.Scheduler.Done { plan_sig; result_sig; rows; shipped_bytes; _ } ->
      Printf.sprintf "done %s %s %d %d" plan_sig result_sig rows shipped_bytes
    | Service.Scheduler.Failed e -> "failed " ^ Cgqp.error_to_string e
    | Service.Scheduler.Denied { reason; _ } ->
      "denied " ^ Service.Admission.reason_to_string reason
  in
  let base = List.map (fun s -> (key s, sig_of s)) uncached.Service.Scheduler.statements in
  let mismatches =
    List.fold_left
      (fun acc s ->
        match List.assoc_opt (key s) base with
        | Some sg when String.equal sg (sig_of s) -> acc
        | _ -> acc + 1)
      0 cached.Service.Scheduler.statements
  in
  let total = List.length cached.Service.Scheduler.statements in
  Fmt.pr "  %-12s %10s %10s %10s %10s %12s@." "" "ok" "denied" "p50 (ms)" "p95 (ms)"
    "wall (ms)";
  let row label (r : Service.Scheduler.report) wall =
    Fmt.pr "  %-12s %10d %10d %10.2f %10.2f %12.1f@." label r.Service.Scheduler.ok
      r.Service.Scheduler.denied r.Service.Scheduler.p50_ms r.Service.Scheduler.p95_ms wall
  in
  row "cache-off" uncached wall_uncached;
  row "cache-on" cached wall_cached;
  (match cached.Service.Scheduler.cache with
  | Some st ->
    Fmt.pr "cache hit rate: %.1f%% (%d hits, %d misses, %d invalidations, %d evictions)@."
      (100. *. Service.Scheduler.hit_rate cached)
      st.Cgqp.Plan_cache.hits st.Cgqp.Plan_cache.misses st.Cgqp.Plan_cache.invalidations
      st.Cgqp.Plan_cache.evictions
  | None -> ());
  Fmt.pr "latency p50 %.2f ms, p95 %.2f ms (simulated, cache-on)@."
    cached.Service.Scheduler.p50_ms cached.Service.Scheduler.p95_ms;
  Fmt.pr "differential mismatches: %d (over %d statements)@." mismatches total;
  Fmt.pr "(the cache stores optimizer outcomes, never results: a nonzero mismatch@.";
  Fmt.pr " count means a stale plan escaped the policy-epoch invalidation)@.";
  let host_cores = Domain.recommended_domain_count () in
  let out =
    match Sys.getenv_opt "CGQP_SERVE_OUT" with
    | Some f when f <> "" -> f
    | _ -> "BENCH_serve.json"
  in
  let json =
    Obs.Json.(
      Obj
        [
          ("bench", Str "serve");
          ("sf", Num sf);
          ("seed", Num (float_of_int sd));
          ("sessions", Num (float_of_int sessions));
          ("statements_per_session", Num (float_of_int statements));
          ("total_statements", Num (float_of_int total));
          ("host_cores", Num (float_of_int host_cores));
          ("cache_hit_rate", Num (Service.Scheduler.hit_rate cached));
          ("p50_ms", Num cached.Service.Scheduler.p50_ms);
          ("p95_ms", Num cached.Service.Scheduler.p95_ms);
          ("cache_differential_mismatches", Num (float_of_int mismatches));
          ("wall_ms_cache_off", Num wall_uncached);
          ("wall_ms_cache_on", Num wall_cached);
        ])
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." out

(* ------------------------------------------------------------------ *)
(* feedback -- template plan caching + cardinality feedback under a
   Zipf point-lookup mix *)

(* Knobs (all env, so the CI smoke job can shrink the run):
     CGQP_FEEDBACK_STMTS     total statements              (default 100000)
     CGQP_FEEDBACK_SESSIONS  sessions in the mix           (default 8)
     CGQP_FEEDBACK_UNIVERSE  distinct parameter values     (default 1000)
     CGQP_FEEDBACK_SKEW      Zipf exponent                 (default 1.1)
     CGQP_FEEDBACK_SF        TPC-H data scale factor       (default 0.002)
     CGQP_FEEDBACK_OUT       output JSON path       (default BENCH_feedback.json)

   The catalog keeps its sf-1 statistics while the data is generated at
   [CGQP_FEEDBACK_SF] — the est-vs-actual gap the feedback store folds
   away. Two template-friendly lookup shapes over [universe] Zipf-drawn
   custkey literals: millions of distinct statement texts, two template
   plans. The differential re-runs the identical workload with template
   caching off (fresh feedback store) and demands byte-identical
   per-statement outcomes — the transparency contract of
   docs/FEEDBACK.md. *)
let feedback_bench () =
  let statements = getenv_int "CGQP_FEEDBACK_STMTS" 100_000 in
  let sessions = getenv_int "CGQP_FEEDBACK_SESSIONS" 8 in
  let universe = getenv_int "CGQP_FEEDBACK_UNIVERSE" 1000 in
  let skew = getenv_float "CGQP_FEEDBACK_SKEW" 1.1 in
  let sf = getenv_float "CGQP_FEEDBACK_SF" 0.002 in
  header "FEEDBACK: template plan cache + cardinality feedback (Zipf mix)";
  let cat = Tpch.Schema.catalog () in
  let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~sf ()) in
  let sd = seed ~default:2029 in
  let make_statement v =
    let k = v + 1 in
    if v mod 2 = 0 then
      Printf.sprintf "SELECT name, acctbal FROM customer WHERE custkey = %d" k
    else
      Printf.sprintf "SELECT mktsegment, nationkey FROM customer WHERE custkey = %d"
        k
  in
  let script =
    let s =
      Service.Script.zipf_workload ~skew ~sessions ~statements ~universe
        ~make_statement ~seed:sd ()
    in
    (* every session needs the CR expression set before its lookups are
       compliant *)
    {
      s with
      Service.Script.sessions =
        List.map
          (fun (sp : Service.Script.session_spec) ->
            {
              sp with
              Service.Script.actions =
                Service.Script.Set_policy_set "CR" :: sp.Service.Script.actions;
            })
          s.Service.Script.sessions;
    }
  in
  let run_with ~template =
    let fb = Cgqp.Feedback.create () in
    let env =
      Service.Scheduler.env ~catalog:cat ~database:db
        ~cache:(Cgqp.Plan_cache.create ()) ~template ~feedback:fb
        ~resolve_query:Tpch.Queries.resolve ~resolve_policy_set:Tpch.Policies.texts_of_string ()
    in
    (Service.Scheduler.run ~env ~seed:sd script, fb)
  in
  let (on, fb_on), wall_on = time_ms (fun () -> run_with ~template:true) in
  let (off, fb_off), wall_off = time_ms (fun () -> run_with ~template:false) in
  let total = List.length on.Service.Scheduler.statements in
  Fmt.pr
    "seed %d: %d statements over %d sessions (universe %d, skew %g, data sf %g)@."
    on.Service.Scheduler.seed total sessions universe skew sf;
  (* differential: align per (sid, seq) — Hashtbl, the workload is 10^5
     statements and List.assoc would be quadratic *)
  let sig_of (s : Service.Scheduler.stmt_record) =
    match s.Service.Scheduler.outcome with
    | Service.Scheduler.Done { plan_sig; result_sig; rows; shipped_bytes; _ } ->
      Printf.sprintf "done %s %s %d %d" plan_sig result_sig rows shipped_bytes
    | Service.Scheduler.Failed e -> "failed " ^ Cgqp.error_to_string e
    | Service.Scheduler.Denied { reason; _ } ->
      "denied " ^ Service.Admission.reason_to_string reason
  in
  let base = Hashtbl.create (2 * total) in
  List.iter
    (fun (s : Service.Scheduler.stmt_record) ->
      Hashtbl.replace base (s.Service.Scheduler.sid, s.Service.Scheduler.seq) (sig_of s))
    off.Service.Scheduler.statements;
  let mismatches =
    List.fold_left
      (fun acc (s : Service.Scheduler.stmt_record) ->
        match Hashtbl.find_opt base (s.Service.Scheduler.sid, s.Service.Scheduler.seq) with
        | Some sg when String.equal sg (sig_of s) -> acc
        | _ -> acc + 1)
      0 on.Service.Scheduler.statements
  in
  (* the aggregate lines of the report must agree too (cache counters
     legitimately differ: a repeated literal pattern is a template hit
     on one side and a fresh exact miss on the other) *)
  let aggregates (r : Service.Scheduler.report) =
    Printf.sprintf "ok %d rejected %d unsatisfiable %d denied %d failed %d \
                    makespan %.6f p50 %.6f p95 %.6f"
      r.Service.Scheduler.ok r.Service.Scheduler.rejected
      r.Service.Scheduler.unsatisfiable r.Service.Scheduler.denied
      r.Service.Scheduler.failed r.Service.Scheduler.makespan_ms
      r.Service.Scheduler.p50_ms r.Service.Scheduler.p95_ms
  in
  let agg_identical = String.equal (aggregates on) (aggregates off) in
  let thr = 100. *. Service.Scheduler.template_hit_rate on in
  Fmt.pr "  %-14s %10s %10s %10s %12s@." "" "ok" "denied" "folds" "wall (ms)";
  let row label (r : Service.Scheduler.report) fb wall =
    Fmt.pr "  %-14s %10d %10d %10d %12.1f@." label r.Service.Scheduler.ok
      r.Service.Scheduler.denied (Cgqp.Feedback.folds fb) wall
  in
  row "template-on" on fb_on wall_on;
  row "template-off" off fb_off wall_off;
  (match on.Service.Scheduler.cache with
  | Some st ->
    Fmt.pr
      "template hit rate: %.1f%% (%d template hits, %d template misses; exact: %d \
       hits, %d misses)@."
      thr st.Cgqp.Plan_cache.template_hits st.Cgqp.Plan_cache.template_misses
      (st.Cgqp.Plan_cache.hits - st.Cgqp.Plan_cache.template_hits)
      st.Cgqp.Plan_cache.misses
  | None -> ());
  (* ground truth per table: total stored rows across partitions *)
  let actual name =
    let rows =
      List.fold_left
        (fun acc (t, p) ->
          if String.equal t name then
            acc + Storage.Relation.cardinality (Storage.Database.find_exn db ~table:t ~partition:p ())
          else acc)
        0 (Storage.Database.tables db)
    in
    if rows > 0 then Some rows else None
  in
  let converged = Cgqp.Feedback.converged fb_on ~actual in
  Fmt.pr "feedback folds: %d (template-on), %d (template-off)@."
    (Cgqp.Feedback.folds fb_on) (Cgqp.Feedback.folds fb_off);
  Fmt.pr
    "re-optimization converged: %b (post-fold observations match the data's row \
     counts)@."
    converged;
  Fmt.pr "transparency mismatches: %d (over %d statements; aggregates identical: %b)@."
    mismatches total agg_identical;
  Fmt.pr "(a nonzero count means a template rebind diverged from a fresh@.";
  Fmt.pr " optimization -- the docs/FEEDBACK.md transparency contract)@.";
  let out =
    match Sys.getenv_opt "CGQP_FEEDBACK_OUT" with
    | Some f when f <> "" -> f
    | _ -> "BENCH_feedback.json"
  in
  let cache_json (r : Service.Scheduler.report) =
    match r.Service.Scheduler.cache with
    | None -> Obs.Json.Null
    | Some st ->
      Obs.Json.(
        Obj
          [
            ("hits", Num (float_of_int st.Cgqp.Plan_cache.hits));
            ("misses", Num (float_of_int st.Cgqp.Plan_cache.misses));
            ("template_hits", Num (float_of_int st.Cgqp.Plan_cache.template_hits));
            ( "template_misses",
              Num (float_of_int st.Cgqp.Plan_cache.template_misses) );
            ("invalidations", Num (float_of_int st.Cgqp.Plan_cache.invalidations));
            ("evictions", Num (float_of_int st.Cgqp.Plan_cache.evictions));
          ])
  in
  let json =
    Obs.Json.(
      Obj
        [
          ("bench", Str "feedback");
          ("sf", Num sf);
          ("seed", Num (float_of_int sd));
          ("sessions", Num (float_of_int sessions));
          ("total_statements", Num (float_of_int total));
          ("universe", Num (float_of_int universe));
          ("skew", Num skew);
          ("template_hit_rate", Num (Service.Scheduler.template_hit_rate on));
          ("cache_template_on", cache_json on);
          ("cache_template_off", cache_json off);
          ("feedback_folds_on", Num (float_of_int (Cgqp.Feedback.folds fb_on)));
          ("feedback_folds_off", Num (float_of_int (Cgqp.Feedback.folds fb_off)));
          ( "feedback_observations",
            Num (float_of_int (Cgqp.Feedback.observations fb_on)) );
          ("converged", Bool converged);
          ("transparency_mismatches", Num (float_of_int mismatches));
          ("aggregates_identical", Bool agg_identical);
          ("p50_ms", Num on.Service.Scheduler.p50_ms);
          ("p95_ms", Num on.Service.Scheduler.p95_ms);
          ("wall_template_on_ms", Num wall_on);
          ("wall_template_off_ms", Num wall_off);
        ])
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." out

(* ------------------------------------------------------------------ *)
(* exec -- the two engines (reference, vectorized) head to head *)

(* Everything the engines must agree on byte-for-byte: the result
   relation, the SHIP ledger, the row/retry counters, the per-node
   profile and the simulated makespan — the same fingerprint the
   differential tests in test/test_exec.ml check. *)
let exec_fp (r : Exec.Interp.result) =
  ( Storage.Relation.to_csv r.Exec.Interp.relation,
    r.Exec.Interp.stats.Exec.Interp.ships,
    r.Exec.Interp.stats.Exec.Interp.rows_processed,
    r.Exec.Interp.stats.Exec.Interp.ship_retries,
    r.Exec.Interp.profile,
    r.Exec.Interp.makespan_ms )

(* Knobs (all env, so the CI smoke job can shrink the run):
     CGQP_EXEC_SF     TPC-H scale factor          (default 0.01)
     CGQP_EXEC_RUNS   timed repetitions per engine (default 5)
     CGQP_EXEC_ADHOC  ad-hoc queries in the mix    (default 12)
     CGQP_EXEC_OUT    output JSON path             (default BENCH_exec.json) *)
let exec_bench () =
  let sf = getenv_float "CGQP_EXEC_SF" 0.01 in
  let runs = getenv_int "CGQP_EXEC_RUNS" 5 in
  let n_adhoc = getenv_int "CGQP_EXEC_ADHOC" 12 in
  header
    (Printf.sprintf "EXEC: reference vs vectorized engine (sf %g, %d runs)" sf runs);
  let cat = Tpch.Schema.catalog () in
  let policies = Policy.Pcatalog.of_texts cat Tpch.Policies.unrestricted in
  let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~sf ()) in
  let network = Catalog.network cat in
  let table_cols = Catalog.table_cols cat in
  let sd = seed ~default:2028 in
  let adhoc =
    List.mapi
      (fun i sql -> (Printf.sprintf "adhoc%02d" (i + 1), sql))
      (Tpch.Workload.gen_queries ~seed:sd ~n:n_adhoc ())
  in
  (* all 12 TPC-H queries: Q7 is the mix's only nested-loop join and Q19
     its only join residual *)
  let tpch = Tpch.Queries.all_extended in
  let workload = tpch @ adhoc in
  Fmt.pr "%d TPC-H + %d ad-hoc join/agg queries, unrestricted policies, seed %d@."
    (List.length tpch) n_adhoc sd;
  Fmt.pr "%-8s %7s %14s %14s %8s %11s %12s %3s@." "query" "rows" "ref (ms)"
    "vec (ms)" "vec/ref" "kernel(ms)" "vec rows/s" "fp";
  let mismatches = ref 0 in
  let tot_ref = ref 0. and tot_vec = ref 0. and tot_kernel = ref 0. in
  let tot_rows = ref 0 in
  let per_query =
    List.filter_map
      (fun (name, sql) ->
        match optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies sql with
        | Optimizer.Planner.Rejected r ->
          Fmt.pr "%-8s rejected: %s@." name r;
          None
        | Optimizer.Planner.Planned p ->
          let plan = p.Optimizer.Planner.plan in
          let run_ref () = Exec.Interp.run ~network ~db ~table_cols plan in
          let run_vec () = Exec.Vector.run ~network ~db ~table_cols plan in
          (* differential check first (doubles as warm-up) *)
          let rref = run_ref () in
          let same = exec_fp rref = exec_fp (run_vec ()) in
          if not same then incr mismatches;
          let t_ref, se_ref = timed_stats ~runs (fun () -> ignore (run_ref ())) in
          let t_vec, se_vec = timed_stats ~runs (fun () -> ignore (run_vec ())) in
          (* the compile-once / execute-many split the serving layer sees *)
          let compiled = Exec.Vector.compile ~db ~table_cols plan in
          let t_kernel, _ =
            timed_stats ~runs (fun () -> ignore (Exec.Vector.execute ~network compiled))
          in
          let processed = rref.Exec.Interp.stats.Exec.Interp.rows_processed in
          let rps t =
            if t <= 0. then 0. else float_of_int processed /. (t /. 1000.)
          in
          let speedup = t_ref /. Float.max 1e-9 t_vec in
          tot_ref := !tot_ref +. t_ref;
          tot_vec := !tot_vec +. t_vec;
          tot_kernel := !tot_kernel +. t_kernel;
          tot_rows := !tot_rows + processed;
          Fmt.pr "%-8s %7d %8.2f +-%-4.2f %8.2f +-%-4.2f %7.2fx %11.2f %12.0f %3s@."
            name
            (Storage.Relation.cardinality rref.Exec.Interp.relation)
            t_ref se_ref t_vec se_vec speedup t_kernel (rps t_vec)
            (if same then "=" else "/=");
          Some
            Obs.Json.(
              Obj
                [
                  ("query", Str name);
                  ("rows", Num (float_of_int (Storage.Relation.cardinality rref.Exec.Interp.relation)));
                  ("rows_processed", Num (float_of_int processed));
                  ("ref_ms", Num t_ref);
                  ("ref_se_ms", Num se_ref);
                  ("vector_ms", Num t_vec);
                  ("vector_se_ms", Num se_vec);
                  ("kernel_ms", Num t_kernel);
                  ("speedup", Num speedup);
                  ("ref_rows_per_sec", Num (rps t_ref));
                  ("vector_rows_per_sec", Num (rps t_vec));
                  ("identical", Bool same);
                ]))
      workload
  in
  let speedup = !tot_ref /. Float.max 1e-9 !tot_vec in
  let rps t = if t <= 0. then 0. else float_of_int !tot_rows /. (t /. 1000.) in
  Fmt.pr "@.total: reference %.2f ms, vectorized %.2f ms (%.2fx), kernel %.2f ms@."
    !tot_ref !tot_vec speedup !tot_kernel;
  Fmt.pr "throughput: %.0f rows/s reference, %.0f rows/s vectorized@."
    (rps !tot_ref) (rps !tot_vec);
  Fmt.pr "cross-engine mismatches: %d (over %d queries)@." !mismatches
    (List.length per_query);
  let out =
    match Sys.getenv_opt "CGQP_EXEC_OUT" with
    | Some f when f <> "" -> f
    | _ -> "BENCH_exec.json"
  in
  let json =
    Obs.Json.(
      Obj
        [
          ("bench", Str "exec");
          ("sf", Num sf);
          ("runs", Num (float_of_int runs));
          ("seed", Num (float_of_int sd));
          ("queries", Arr per_query);
          ("total_ref_ms", Num !tot_ref);
          ("total_vector_ms", Num !tot_vec);
          ("total_kernel_ms", Num !tot_kernel);
          ("speedup", Num speedup);
          ("ref_rows_per_sec", Num (rps !tot_ref));
          ("vector_rows_per_sec", Num (rps !tot_vec));
          ("mismatches", Num (float_of_int !mismatches));
        ])
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." out;
  Fmt.pr "(fp `=` means byte-identical result, SHIP ledger, profile and makespan;@.";
  Fmt.pr " kernel(ms) re-executes an already-compiled vectorized plan — the@.";
  Fmt.pr " serving layer's compile-once/run-many split)@."

(* ------------------------------------------------------------------ *)
(* replica -- (extension) replica-aware compliant placement: shipped
   bytes and failover success with vs. without replica sets, under
   seeded fault schedules mixing link failures and replica lag (see
   docs/REPLICA.md and EXPERIMENTS.md E16).

   Knobs (all env, so the CI smoke job can shrink the run):
     CGQP_REPLICA_SF      TPC-H scale factor           (default 0.01)
     CGQP_REPLICA_TRIALS  fault schedules per config   (default 30)
     CGQP_REPLICA_OUT     output JSON path             (default BENCH_replica.json) *)
let replica_bench () =
  let sf = getenv_float "CGQP_REPLICA_SF" 0.01 in
  let trials = getenv_int "CGQP_REPLICA_TRIALS" 30 in
  let sd = seed ~default:2029 in
  header
    (Printf.sprintf "REPLICA: compliant placement over replica sets (sf %g, %d trials)"
       sf trials);
  let cat0 = Tpch.Schema.catalog () in
  let copy site = { Catalog.site; lag_ms = 0.; pin = None } in
  (* one secondary per big table, placed across a wide link so reading
     it in place actually saves wide-area bytes *)
  let replica_sets =
    [
      ("customer", 0, [ copy "L1"; copy "L4" ]);
      ("orders", 0, [ copy "L1"; copy "L4" ]);
      ("lineitem", 0, [ copy "L4"; copy "L1" ]);
      ("supplier", 0, [ copy "L2"; copy "L3" ]);
      ("part", 0, [ copy "L3"; copy "L1" ]);
    ]
  in
  let cat1 = Catalog.with_replicas cat0 replica_sets in
  let db = Tpch.Datagen.load ~cat:cat0 (Tpch.Datagen.generate ~sf ()) in
  let locations = Array.of_list (Catalog.Network.locations (Catalog.network cat0)) in
  let replicated = Array.of_list replica_sets in
  (* Per-trial schedule: one or two events, drawn from link failures
     and replica lag on a replicated table's copies (lag on a primary
     is recoverable only when a sibling exists — the asymmetry this
     experiment measures). Deterministic in (CGQP_SEED, trial). *)
  let gen_sched trial =
    let rng = Random.State.make [| sd; trial |] in
    let pick a = a.(Random.State.int rng (Array.length a)) in
    let event () =
      if Random.State.bool rng then (
        let table, _, rs = pick replicated in
        let r = List.nth rs (Random.State.int rng (List.length rs)) in
        Catalog.Network.Fault.Replica_lag
          { table; site = r.Catalog.site; lag_ms = 300. })
      else
        let a = pick locations in
        let rec other () =
          let b = pick locations in
          if String.equal a b then other () else b
        in
        Catalog.Network.Fault.Link_down (a, other ())
    in
    Catalog.Network.Fault.make ~seed:(sd + trial)
      (List.init (1 + Random.State.int rng 2) (fun _ -> event ()))
  in
  let run_config name cat =
    let mk_session () =
      let s = Cgqp.create ~catalog:cat () in
      Cgqp.add_policies s Tpch.Policies.unrestricted;
      Cgqp.attach_database s db;
      s
    in
    let healthy_bytes = ref 0 in
    List.iter
      (fun (qname, sql) ->
        match Cgqp.run (mk_session ()) sql with
        | Ok r -> healthy_bytes := !healthy_bytes + r.Cgqp.shipped_bytes
        | Error e ->
          Fmt.pr "%s healthy %s failed: %s@." name qname (Cgqp.error_to_string e))
      queries;
    let total = ref 0 and ok = ref 0 and failed = ref 0 in
    let recovered = ref 0 and failovers = ref 0 in
    let bytes = ref 0 and non_compliant = ref 0 in
    for trial = 1 to trials do
      let sched = gen_sched trial in
      List.iter
        (fun (_, sql) ->
          incr total;
          let s = mk_session () in
          Cgqp.set_faults s sched;
          match Cgqp.run s sql with
          | Ok r ->
            incr ok;
            bytes := !bytes + r.Cgqp.shipped_bytes;
            failovers := !failovers + r.Cgqp.recovery.Cgqp.failovers;
            if r.Cgqp.recovery.Cgqp.failovers > 0 then incr recovered;
            non_compliant :=
              !non_compliant
              + List.length
                  (Optimizer.Checker.certify ~cat:(Cgqp.catalog s)
                     ~policies:(Cgqp.policies s) r.Cgqp.plan)
          | Error _ -> incr failed)
        queries
    done;
    let attempted = !recovered + !failed in
    let rate =
      if attempted = 0 then 1.0
      else float_of_int !recovered /. float_of_int attempted
    in
    Fmt.pr
      "%-17s healthy %7d B | faulted: %d ok / %d aborted, %d failovers \
       (%d runs recovered), %7d B shipped, recovery rate %.2f@."
      name !healthy_bytes !ok !failed !failovers !recovered !bytes rate;
    ( Obs.Json.(
        Obj
          [
            ("healthy_shipped_bytes", Num (float_of_int !healthy_bytes));
            ("runs", Num (float_of_int !total));
            ("ok", Num (float_of_int !ok));
            ("aborted", Num (float_of_int !failed));
            ("failovers", Num (float_of_int !failovers));
            ("recovered_runs", Num (float_of_int !recovered));
            ("faulted_shipped_bytes", Num (float_of_int !bytes));
            ("failover_success_rate", Num rate);
            ("non_compliant_ships", Num (float_of_int !non_compliant));
          ]),
      (!healthy_bytes, rate, !non_compliant) )
  in
  Fmt.pr "%d TPC-H queries, unrestricted policies, seed %d@." (List.length queries) sd;
  let json_with, (bytes_with, rate_with, nc_with) = run_config "with replicas" cat1 in
  let json_without, (bytes_without, _, nc_without) =
    run_config "without replicas" cat0
  in
  (* canonical greppable lines (CI's replica-smoke asserts on these) *)
  Fmt.pr "non_compliant_ships: %d@." (nc_with + nc_without);
  Fmt.pr "failover_success_rate: %.2f@." rate_with;
  Fmt.pr "healthy bytes saved by replicas: %d B (%d -> %d)@."
    (bytes_without - bytes_with) bytes_without bytes_with;
  let out =
    match Sys.getenv_opt "CGQP_REPLICA_OUT" with
    | Some f when f <> "" -> f
    | _ -> "BENCH_replica.json"
  in
  let json =
    Obs.Json.(
      Obj
        [
          ("bench", Str "replica");
          ("sf", Num sf);
          ("trials", Num (float_of_int trials));
          ("seed", Num (float_of_int sd));
          ("with_replicas", json_with);
          ("without_replicas", json_without);
        ])
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." out

(* ------------------------------------------------------------------ *)
(* ooc -- out-of-core columnar execution (EXPERIMENTS.md E17): the
   TPC-H mix in three storage/memory regimes, on one engine:

     resident  everything in memory, no budget — the baseline the
               other two must match byte-for-byte
     paged     the same data served from disk-backed column segments
               (Storage.Database.paged); resident set near zero,
               every scan pays segment page reads
     spill     paged AND a byte-accounted memory budget smaller than
               the working set, so hash joins/aggregations Grace-
               partition to disk run files

   The three report fingerprints must be identical (out-of-core
   execution is invisible); the JSON records per-query times,
   rows/sec, peak tracked bytes, spilled operators/partitions and
   segment page reads.

   Knobs (all env, so the CI smoke job can shrink the run):
     CGQP_OOC_SF      TPC-H scale factor               (default 1.0)
     CGQP_OOC_BUDGET  spill-run memory budget          (default 64m)
     CGQP_OOC_ENGINE  executor                         (default vector)
     CGQP_OOC_OUT     output JSON path                 (default BENCH_ooc.json) *)
let ooc_bench () =
  let sf = getenv_float "CGQP_OOC_SF" 1.0 in
  let budget_text =
    match Sys.getenv_opt "CGQP_OOC_BUDGET" with
    | Some s when s <> "" -> s
    | _ -> "64m"
  in
  let budget =
    match Exec.Runtime.parse_budget budget_text with
    | Some b -> b
    | None ->
      invalid_arg (Printf.sprintf "CGQP_OOC_BUDGET=%S: not a byte count" budget_text)
  in
  let engine =
    match Sys.getenv_opt "CGQP_OOC_ENGINE" with
    | None | Some "" -> Exec.Engine.Vector
    | Some s -> (
      match Exec.Engine.of_string s with
      | Some e -> e
      | None -> invalid_arg (Printf.sprintf "CGQP_OOC_ENGINE=%S: unknown engine" s))
  in
  header
    (Printf.sprintf
       "OOC: resident vs paged vs spilling, %s engine (sf %g, budget %s)"
       (Exec.Engine.to_string engine) sf budget_text);
  let cat = Tpch.Schema.catalog () in
  let policies = Policy.Pcatalog.of_texts cat Tpch.Policies.unrestricted in
  let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~sf ()) in
  let working_set =
    List.fold_left
      (fun acc (t, p) ->
        acc + Storage.Relation.byte_size (Storage.Database.find_exn db ~table:t ~partition:p ()))
      0 (Storage.Database.tables db)
  in
  let seg_dir =
    let f = Filename.temp_file "cgqp-ooc-" "" in
    Sys.remove f;
    let d = f ^ ".d" in
    Unix.mkdir d 0o700;
    d
  in
  let rec rm_rf path =
    if Sys.is_directory path then (
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path)
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf seg_dir) @@ fun () ->
  let paged_db, seg_ms = time_ms (fun () -> Storage.Database.paged db ~dir:seg_dir) in
  Fmt.pr
    "working set %d bytes (%d rows); budget %d bytes; segments written in %.0f ms@."
    working_set
    (Storage.Database.total_rows db)
    budget seg_ms;
  if budget >= working_set then
    Fmt.pr "WARNING: budget >= working set, the spill run may not spill@.";
  let network = Catalog.network cat in
  let table_cols = Catalog.table_cols cat in
  (* one timed run per (query, regime): at SF 1 the mix is minutes of
     single-core work, and the differential, not the variance, is the
     point here (BENCH_exec.json has the repeated-run timings) *)
  let run_config ~db ~budget plan =
    (* the spill counters are monotonic process totals; report per-run
       deltas (the peak gauge and page-read counters do reset) *)
    Exec.Runtime.reset_mem_stats ();
    Storage.Segment.reset_page_reads ();
    let ops0 = Exec.Runtime.spilled_operators ()
    and parts0 = Exec.Runtime.spill_partitions () in
    let r, ms =
      time_ms (fun () -> Exec.Engine.run ~engine ~budget ~network ~db ~table_cols plan)
    in
    ( exec_fp r,
      r.Exec.Interp.stats.Exec.Interp.rows_processed,
      ms,
      Exec.Runtime.peak_tracked_bytes (),
      Exec.Runtime.spilled_operators () - ops0,
      Exec.Runtime.spill_partitions () - parts0,
      Storage.Segment.page_reads () )
  in
  Fmt.pr "%-8s %7s %12s %12s %12s %11s %13s %9s %3s@." "query" "rows"
    "resident(ms)" "paged(ms)" "spill(ms)" "peak(bytes)" "spilled(n/prt)"
    "pagereads" "fp";
  let mismatches = ref 0 in
  let tot_res = ref 0. and tot_paged = ref 0. and tot_spill = ref 0. in
  let tot_rows = ref 0 and tot_spilled = ref 0 and tot_partitions = ref 0 in
  let tot_peak = ref 0 in
  let tot_paged_reads = ref 0 in
  let per_query =
    List.filter_map
      (fun (name, sql) ->
        match optimize ~mode:Optimizer.Memo.Compliant ~cat ~policies sql with
        | Optimizer.Planner.Rejected r ->
          Fmt.pr "%-8s rejected: %s@." name r;
          None
        | Optimizer.Planner.Planned p ->
          let plan = p.Optimizer.Planner.plan in
          let fp_res, processed, t_res, _, _, _, _ =
            run_config ~db ~budget:Exec.Runtime.unlimited_budget plan
          in
          let fp_paged, _, t_paged, _, _, _, reads_paged =
            run_config ~db:paged_db ~budget:Exec.Runtime.unlimited_budget plan
          in
          let fp_spill, _, t_spill, peak, spilled, partitions, reads_spill =
            run_config ~db:paged_db ~budget plan
          in
          let same = fp_res = fp_paged && fp_res = fp_spill in
          if not same then incr mismatches;
          tot_res := !tot_res +. t_res;
          tot_paged := !tot_paged +. t_paged;
          tot_spill := !tot_spill +. t_spill;
          tot_rows := !tot_rows + processed;
          tot_spilled := !tot_spilled + spilled;
          tot_partitions := !tot_partitions + partitions;
          tot_peak := !tot_peak + peak;
          tot_paged_reads := !tot_paged_reads + reads_paged;
          let rps t = if t <= 0. then 0. else float_of_int processed /. (t /. 1000.) in
          Fmt.pr "%-8s %7d %12.1f %12.1f %12.1f %11d %8d/%-4d %9d %3s@." name
            processed t_res t_paged t_spill peak spilled partitions reads_spill
            (if same then "=" else "/=");
          Some
            Obs.Json.(
              Obj
                [
                  ("query", Str name);
                  ("rows_processed", Num (float_of_int processed));
                  ("resident_ms", Num t_res);
                  ("paged_ms", Num t_paged);
                  ("spill_ms", Num t_spill);
                  ("resident_rows_per_sec", Num (rps t_res));
                  ("paged_rows_per_sec", Num (rps t_paged));
                  ("spill_rows_per_sec", Num (rps t_spill));
                  ("spill_peak_tracked_bytes", Num (float_of_int peak));
                  ("spilled_operators", Num (float_of_int spilled));
                  ("spill_partitions", Num (float_of_int partitions));
                  ("paged_page_reads", Num (float_of_int reads_paged));
                  ("spill_page_reads", Num (float_of_int reads_spill));
                  ("identical", Bool same);
                ]))
      queries
  in
  let rps t = if t <= 0. then 0. else float_of_int !tot_rows /. (t /. 1000.) in
  Fmt.pr
    "@.total: resident %.1f ms, paged %.1f ms (%.2fx), spilling %.1f ms (%.2fx)@."
    !tot_res !tot_paged
    (!tot_paged /. Float.max 1e-9 !tot_res)
    !tot_spill
    (!tot_spill /. Float.max 1e-9 !tot_res);
  Fmt.pr "throughput: %.0f rows/s resident, %.0f rows/s paged, %.0f rows/s spilling@."
    (rps !tot_res) (rps !tot_paged) (rps !tot_spill);
  Fmt.pr "spilled operators: %d (across the budgeted runs)@." !tot_spilled;
  Fmt.pr "spill partitions: %d@." !tot_partitions;
  Fmt.pr "spill peak tracked bytes: %d (summed over the budgeted runs)@." !tot_peak;
  (* segment page-ins of the unbudgeted paged runs: lower on vector than
     on reference, whose row view decodes every column of every scan *)
  Fmt.pr "paged page reads: %d@." !tot_paged_reads;
  Fmt.pr "report mismatches: %d (over %d queries)@." !mismatches
    (List.length per_query);
  let out =
    match Sys.getenv_opt "CGQP_OOC_OUT" with
    | Some f when f <> "" -> f
    | _ -> "BENCH_ooc.json"
  in
  let json =
    Obs.Json.(
      Obj
        [
          ("bench", Str "ooc");
          ("sf", Num sf);
          ("engine", Str (Exec.Engine.to_string engine));
          ("budget_bytes", Num (float_of_int budget));
          ("working_set_bytes", Num (float_of_int working_set));
          ("queries", Arr per_query);
          ("total_resident_ms", Num !tot_res);
          ("total_paged_ms", Num !tot_paged);
          ("total_spill_ms", Num !tot_spill);
          ("resident_rows_per_sec", Num (rps !tot_res));
          ("paged_rows_per_sec", Num (rps !tot_paged));
          ("spill_rows_per_sec", Num (rps !tot_spill));
          ("spilled_operators", Num (float_of_int !tot_spilled));
          ("spill_partitions", Num (float_of_int !tot_partitions));
          ("spill_peak_tracked_bytes", Num (float_of_int !tot_peak));
          ("paged_page_reads", Num (float_of_int !tot_paged_reads));
          ("mismatches", Num (float_of_int !mismatches));
        ])
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." out;
  Fmt.pr
    "(fp `=` means the resident, paged and spilling runs produced byte-identical@.";
  Fmt.pr
    " results, SHIP ledgers, profiles and makespans — out-of-core is invisible)@."

(* ------------------------------------------------------------------ *)

let smoke () =
  t1 ();
  e11 ~runs:2 ()

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", fun () -> e3 ()); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", fun () -> e11 ()); ("serve", fun () -> serve_bench ());
    ("feedback", feedback_bench); ("exec", exec_bench); ("t1", t1);
    ("replica", replica_bench); ("ablation", ablation); ("micro", micro);
    ("ooc", ooc_bench); ("smoke", smoke);
  ]

(* Observability export, for CI artifacts and local inspection:
   CGQP_METRICS_OUT=<file> writes the metrics registry as JSON at exit;
   CGQP_TRACE_OUT=<file> records a structured event trace of the whole
   bench run and writes it as JSON lines. *)
let setup_obs_export () =
  (match Sys.getenv_opt "CGQP_TRACE_OUT" with
  | None -> ()
  | Some file ->
    Obs.Trace.enable ();
    at_exit (fun () ->
        let oc = open_out file in
        Obs.Trace.write_jsonl oc;
        close_out oc;
        Fmt.epr "trace: %d events written to %s@."
          (List.length (Obs.Trace.events ()))
          file));
  match Sys.getenv_opt "CGQP_METRICS_OUT" with
  | None -> ()
  | Some file ->
    at_exit (fun () ->
        let oc = open_out file in
        output_string oc (Obs.Json.to_string (Obs.Metrics.dump ()));
        output_char oc '\n';
        close_out oc;
        Fmt.epr "metrics: registry dumped to %s@." file)

let () =
  setup_obs_export ();
  (match Storage.Seed.override () with
  | Some s -> Fmt.pr "seed: %d (CGQP_SEED override; all generators reseeded)@." s
  | None ->
    Fmt.pr "seed: per-experiment defaults (set CGQP_SEED=N to reseed every generator)@.");
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as picks) -> picks
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) experiments with
      | Some f -> f ()
      | None ->
        Fmt.epr "unknown experiment %s; available: %s@." name
          (String.concat ", " (List.map fst experiments)))
    requested
