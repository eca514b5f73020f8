(* The suite's four workloads, each a closed loop with one client in one
   process: a statement is submitted only after the previous one has
   completed. A run makes passes over a fixed statement list until the
   measurement window has passed, and times each statement by its
   fastest pass.

     tpch-resident  TPC-H mix through Cgqp.run on resident data: engine
                    work dominates
     adhoc-compile  generated ad-hoc SQL through Cgqp.optimize only, under
                    100 generated CR+A policies: phase-1 search and policy
                    evaluation dominate, the executor does nothing
     paged-spill    the same TPC-H mix on disk-backed segments under a
                    2 MiB memory budget: segment decode and Grace spill
                    dominate
     serve-churn    Service.Scheduler over Zipf point lookups from 8
                    sessions sharing a template plan cache, with policy
                    installs that invalidate it: plan-cache lookup and
                    template rebinding dominate

   Every workload is generated from the seed alone. Untraced runs time
   each statement through the system's entry points and report the
   end-to-end metrics; traced runs call each layer's public functions
   themselves, in the order the entry point does, inside wall-clock
   spans ([Spans]) and report the per-layer metrics. Both check every
   answer (see the oracles below). *)

module Sset = Set.Make (String)
module Planner = Optimizer.Planner

let now = Unix.gettimeofday

type params = {
  seed : int;
  window : float;  (** seconds of measurement; 0 runs the minimum work *)
  smoke : bool;  (** ~1/50 sizes, for the smoke test *)
  tmp : string;  (** scratch directory inside the checkout *)
}

type result = {
  attempted : int;
  failed : int;  (** statements that failed or disagreed with an oracle *)
  errors : string list;  (** every problem found, statement-level or not *)
  metrics : (string * float) list;
  info : (string * string) list;  (** run facts for the log, not metrics *)
}

(* ------------------------------------------------------------------ *)
(* Checks *)

type check = { mutable failed : int; mutable errors : string list }

let problem chk fmt = Printf.ksprintf (fun m -> chk.errors <- m :: chk.errors) fmt

let stmt_failed chk ?(n = 1) fmt =
  chk.failed <- chk.failed + n;
  problem chk fmt

let digest s = Digest.to_hex (Digest.string s)
let plan_sig plan = digest (Exec.Pplan.to_string plan)
let result_sig rel = digest (Storage.Relation.to_csv rel)

let limit_of sql = (Sqlfront.Parser.query sql).Sqlfront.Ast.limit

let apply_limit limit rel =
  match limit with None -> rel | Some n -> Storage.Relation.take rel n

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* nearest-rank percentile, as Service.Scheduler reports them *)
let percentile p xs =
  match Array.length xs with
  | 0 -> 0.
  | n ->
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The optimizer's verdict caches are process-global: every measured
   pass starts them cold, as a fresh process would. *)
let reset_verdict_caches () =
  Policy.Evaluator.reset_cache ();
  Policy.Implication.reset_cache ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Set-up runs once before the measured passes, and again after them
   until a second has gone to the repetitions (at least five in all), so
   that setup_s is a median that one slow moment of the host cannot set.
   The repetitions come after the passes so that the heap's high-water
   mark, read during them, reflects one set-up. [setup_sampler] returns
   the state of the first set-up and a function giving the median over
   all of them. *)
let setup_sampler p f =
  let once () =
    Gc.full_major ();
    time f
  in
  let state, t_first = once () in
  let times = ref [ t_first ] in
  let median () =
    let spent = ref 0. in
    while (not p.smoke) && (List.length !times < 5 || !spent < 1.) do
      let _, dt = once () in
      times := dt :: !times;
      spent := !spent +. dt
    done;
    percentile 50. (Array.of_list !times)
  in
  (state, median)

(* The measured loop: a warm-up pass, untimed, then timed passes until
   the window has passed, at least three of them (one for the smoke
   test). A pass returns each statement's wall time in ms, in the order
   of the workload's statement list. Every pass starts with cold verdict
   caches, as a fresh process would, so passes repeat the same work.
   Returns the timed passes and the heap's high-water mark after the
   warm-up pass: verdict caches and logs grow with the passes a window
   holds, so a later reading would grow with speed. *)
let measure_passes ?(after_warmup = ignore) p run_pass =
  let pass k =
    reset_verdict_caches ();
    run_pass k
  in
  ignore (pass 0);
  let heap = heap_mb () in
  after_warmup ();
  let min_passes = if p.smoke then 1 else 3 in
  let t_start = now () in
  let rec loop k acc =
    if k > min_passes && now () -. t_start >= p.window then List.rev acc
    else loop (k + 1) (pass k :: acc)
  in
  (loop 1 [], heap)

(* A closed loop with one client: within a pass, statement [i] runs once
   statement [i-1] has completed. Only [exec] is timed; [check k i r]
   runs after it, with [k] the pass (0 is the warm-up). *)
let statement_pass ~n ~exec ~check k =
  Array.init n (fun i ->
      let r, dt = time (fun () -> exec i) in
      check k i r;
      dt *. 1000.)

(* A statement's time is the fastest of its timed passes, as best-of-N
   database benchmarks report it: the passes repeat the same work, and a
   busy shared host only ever adds time (see the noise note in
   README.md). Throughput is a pass's statements over the sum of those
   times; latencies are nearest-rank percentiles of them. *)
let end_to_end ~heap passes =
  let best = Array.copy (List.hd passes) in
  List.iter (Array.iteri (fun i t -> best.(i) <- Float.min best.(i) t)) passes;
  let busy_s = Array.fold_left ( +. ) 0. best /. 1000. in
  [
    ("stmts_per_s", float_of_int (Array.length best) /. busy_s);
    ("latency_p50_ms", percentile 50. best);
    ("latency_p90_ms", percentile 90. best);
    ("peak_heap_mb", heap);
  ]

(* ------------------------------------------------------------------ *)
(* The decomposed pipeline of the traced run *)

type counts = {
  mutable opt_runs : int;
  mutable groups : int;
  mutable pruned : int;
  mutable eta : int;
  mutable impl_tests : int;
  mutable rows : int;
  mutable ships : int;
  mutable ship_bytes : int;
}

type pipeline = {
  sp : Spans.t;
  counts : counts;
  mutable sens : (Policy.Pcatalog.t * Sset.t) list;
      (* sensitive-column sets by policy catalog (physical equality),
         memoized like Cgqp's per-session copy *)
}

let pipeline sp =
  {
    sp;
    counts =
      { opt_runs = 0; groups = 0; pruned = 0; eta = 0; impl_tests = 0; rows = 0;
        ships = 0; ship_bytes = 0 };
    sens = [];
  }

(* Columns occurring in some policy predicate: their literals join the
   template key (Cgqp's verdict-fingerprint guard). *)
let sensitive pl policies =
  match List.find_opt (fun (p, _) -> p == policies) pl.sens with
  | Some (_, set) -> set
  | None ->
    let set =
      List.fold_left
        (fun acc (e : Policy.Expression.t) ->
          Relalg.Attr.Set.fold
            (fun a acc -> Sset.add a.Relalg.Attr.name acc)
            (Relalg.Pred.cols e.Policy.Expression.pred)
            acc)
        Sset.empty
        (Policy.Pcatalog.all policies)
    in
    pl.sens <- (policies, set) :: List.filteri (fun i _ -> i < 15) pl.sens;
    set

type traced = {
  outcome : Planner.outcome;
  answer : (Exec.Interp.result * Storage.Relation.t) option;
}

let table_cols_opt cat t =
  Option.map
    (fun e -> Catalog.Table_def.col_names e.Catalog.def)
    (Catalog.find_table cat t)

(* One statement through each layer's public calls, in the order of
   Cgqp.run's healthy path (Cgqp.optimize's when [exec] is None): parse,
   bind; template normalization and plan-cache lookup when the session
   has a cache; on a miss normalize, phase 1, phase 2 and certify, then
   the cache inserts; finally the engine and LIMIT. Every call sits in a
   span under the statement's root span. *)
let decompose pl ~stmt ~session ?exec sql : (traced, string) Stdlib.result =
  let cat = Cgqp.catalog session and policies = Cgqp.policies session in
  let mode = Optimizer.Memo.Compliant in
  let root = Spans.enter pl.sp "statement" ~stmt ~parent:(-1) in
  let span name f = Spans.span pl.sp name ~stmt ~parent:root f in
  let c = pl.counts in
  let optimize ast lplan () =
    c.opt_runs <- c.opt_runs + 1;
    let nplan =
      span "optimizer.normalize" (fun () ->
          Optimizer.Normalize.normalize ~table_cols:(Catalog.table_cols cat) lplan)
    in
    let eval_stats = Policy.Evaluator.fresh_stats () in
    let m, best =
      span "optimizer.phase1" (fun () ->
          let m = Optimizer.Memo.create ~eval_stats ~mode ~cat ~policies () in
          let gid = Optimizer.Memo.ingest m nplan in
          (m, Optimizer.Memo.extract ~required_order:ast.Sqlfront.Ast.order_by m gid))
    in
    let ps = Optimizer.Memo.prune_stats m in
    c.groups <- c.groups + Optimizer.Memo.group_count m;
    c.pruned <-
      c.pruned + ps.Optimizer.Memo.groups_pruned + ps.Optimizer.Memo.entries_pruned
      + ps.Optimizer.Memo.combos_pruned;
    c.eta <- c.eta + eval_stats.Policy.Evaluator.eta;
    c.impl_tests <- c.impl_tests + eval_stats.Policy.Evaluator.implication_tests;
    match best with
    | None -> Planner.Rejected "no compliant execution plan exists in the explored space"
    | Some (anode, phase1_cost) -> (
      match
        span "optimizer.phase2" (fun () ->
            Optimizer.Site_selector.select ~network:(Catalog.network cat) anode)
      with
      | None -> Planner.Rejected "site selection found no feasible placement"
      | Some { Optimizer.Site_selector.plan; cost } ->
        let violations =
          span "optimizer.certify" (fun () ->
              Optimizer.Checker.certify ~cat ~policies plan)
        in
        Planner.Planned
          {
            Planner.plan;
            annotated = anode;
            phase1_cost;
            ship_cost = cost;
            groups = Optimizer.Memo.group_count m;
            eval_stats;
            prune_stats = ps;
            violations;
          })
  in
  (* Cgqp.consult_cache, call for call *)
  let consult cache compute =
    let lookup f = span "plan_cache.lookup" f in
    let exact ~on_compute () =
      match
        lookup (fun () ->
            let key =
              Cgqp.Plan_cache.key ~sql ~policies ~catalog:cat ~mask_fp:0 ~mode ()
            in
            (key, Cgqp.Plan_cache.find cache key))
      with
      | _, Some outcome -> outcome
      | key, None ->
        let outcome = compute () in
        lookup (fun () -> Cgqp.Plan_cache.add cache key outcome);
        on_compute outcome;
        outcome
    in
    let no_template _ = () in
    if not (Cgqp.template_cache session) then exact ~on_compute:no_template ()
    else
      match
        span "sqlfront.template" (fun () ->
            Option.map
              (fun { Sqlfront.Normalizer.template; params } ->
                let bind =
                  Array.of_list
                    (List.map
                       (fun (p : Sqlfront.Normalizer.param) -> (p.column, p.value))
                       params)
                in
                (template, bind, sensitive pl policies))
              (Sqlfront.Normalizer.normalize sql))
      with
      | None -> exact ~on_compute:no_template ()
      | Some (template, bind, sens) -> (
        match
          lookup (fun () ->
              let tkey =
                Cgqp.Plan_cache.template_key ~template ~params:bind
                  ~sensitive:(fun col -> Sset.mem col sens)
                  ~policies ~catalog:cat ~mask_fp:0 ~mode ()
              in
              (tkey, Cgqp.Plan_cache.find_template cache tkey ~params:bind))
        with
        | _, Some planned -> Planner.Planned planned
        | tkey, None ->
          let on_compute = function
            | Planner.Planned p when p.Planner.violations = [] ->
              lookup (fun () -> Cgqp.Plan_cache.add_template cache tkey ~params:bind p)
            | _ -> ()
          in
          exact ~on_compute ())
  in
  Fun.protect ~finally:(fun () -> Spans.leave pl.sp root) @@ fun () ->
  match span "sqlfront.parse" (fun () -> Sqlfront.Parser.query sql) with
  | exception Sqlfront.Parser.Error m -> Error ("syntax error: " ^ m)
  | ast -> (
    match
      span "sqlfront.bind" (fun () ->
          Sqlfront.Binder.bind_query ~table_cols:(table_cols_opt cat) ast)
    with
    | exception Sqlfront.Binder.Error m -> Error ("binding error: " ^ m)
    | lplan -> (
      let compute = optimize ast lplan in
      let outcome =
        match Cgqp.plan_cache session with
        | None -> compute ()
        | Some cache -> consult cache compute
      in
      match (outcome, exec) with
      | Planner.Planned p, Some db ->
        let r, rel =
          span "exec.run" (fun () ->
              let r =
                Exec.Engine.run ~engine:(Cgqp.engine session)
                  ?budget:(Cgqp.mem_budget session) ~faults:(Cgqp.faults session)
                  ~retry:(Cgqp.retry session) ~network:(Catalog.network cat) ~db
                  ~table_cols:(Catalog.table_cols cat) p.Planner.plan
              in
              (r, apply_limit ast.Sqlfront.Ast.limit r.Exec.Interp.relation))
        in
        let st = r.Exec.Interp.stats in
        c.rows <- c.rows + st.Exec.Interp.rows_processed;
        c.ships <- c.ships + List.length st.Exec.Interp.ships;
        c.ship_bytes <- c.ship_bytes + Exec.Interp.total_ship_bytes st;
        Ok { outcome; answer = Some (r, rel) }
      | _ -> Ok { outcome; answer = None }))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics *)

type layer_inputs = {
  stmts : int;  (** statements in the traced pass *)
  cache : Cgqp.Plan_cache.stats option;  (** one scheduler run's counters *)
  eval_cache : int * int;  (** verdict-cache (hits, misses) over the traced pass *)
  impl_cache : int * int;
  rejected : int;
  spill : int * int * int;  (** operators, partitions, run bytes *)
  load_s : float;
  segment_write_s : float;
  sim_ship_ms : float;
  sim_latency_p95_ms : float;
  service_overhead : float;
}

(* Spill counters only grow, so a traced pass differences them; page
   reads and the peak gauge reset when it starts. *)
let spill_counters () =
  ( Exec.Runtime.spilled_operators (),
    Exec.Runtime.spill_partitions (),
    Exec.Runtime.spill_run_bytes () )

let start_pass () =
  Storage.Segment.reset_page_reads ();
  Exec.Runtime.reset_mem_stats ();
  spill_counters ()

let spill_since (o0, p0, b0) =
  let o1, p1, b1 = spill_counters () in
  (o1 - o0, p1 - p0, b1 - b0)

let layer_metrics pl (x : layer_inputs) =
  let self = Spans.self_times pl.sp in
  let self_s name = Option.value (Hashtbl.find_opt self name) ~default:0. in
  (* self times partition the root spans, so they sum to statement time *)
  let traced_s = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
  let n = float_of_int x.stmts in
  let per_stmt_ms name = 1000. *. self_s name /. n in
  let per_stmt k = float_of_int k /. n in
  let mb k = float_of_int k /. 1048576. in
  let c = pl.counts in
  let hit_rate (h, m) = ratio h (h + m) in
  let cache f = match x.cache with Some s -> f s | None -> 0. in
  let spill_ops, spill_parts, spill_bytes = x.spill in
  let exec_s = self_s "exec.run" in
  [
    ("sqlfront.parse_ms", per_stmt_ms "sqlfront.parse");
    ("sqlfront.bind_ms", per_stmt_ms "sqlfront.bind");
    ("sqlfront.template_ms", per_stmt_ms "sqlfront.template");
    ("plan_cache.lookup_ms", per_stmt_ms "plan_cache.lookup");
    ("plan_cache.hit_rate", cache (fun s -> hit_rate (s.hits, s.misses)));
    ( "plan_cache.template_hit_rate",
      cache (fun s -> hit_rate (s.template_hits, s.template_misses)) );
    ("plan_cache.invalidations", cache (fun s -> float_of_int s.invalidations));
    ("plan_cache.evictions", cache (fun s -> float_of_int s.evictions));
    ("optimizer.normalize_ms", per_stmt_ms "optimizer.normalize");
    ("optimizer.phase1_ms", per_stmt_ms "optimizer.phase1");
    ("optimizer.phase2_ms", per_stmt_ms "optimizer.phase2");
    ("optimizer.certify_ms", per_stmt_ms "optimizer.certify");
    ("optimizer.runs_per_stmt", per_stmt c.opt_runs);
    ("optimizer.memo_groups", ratio c.groups c.opt_runs);
    ("optimizer.pruned", ratio c.pruned c.opt_runs);
    ("policy.eta", per_stmt c.eta);
    ("policy.implication_tests", per_stmt c.impl_tests);
    ("policy.eval_cache_hit_rate", hit_rate x.eval_cache);
    ("policy.impl_cache_hit_rate", hit_rate x.impl_cache);
    ("policy.rejected_frac", per_stmt x.rejected);
    ("exec.run_ms", per_stmt_ms "exec.run");
    ("exec.rows_processed", per_stmt c.rows);
    ("exec.mrows_per_s", if exec_s > 0. then float_of_int c.rows /. exec_s /. 1e6 else 0.);
    ("exec.ships", per_stmt c.ships);
    ("exec.ship_kb", per_stmt c.ship_bytes /. 1024.);
    ("exec.peak_tracked_mb", mb (Exec.Runtime.peak_tracked_bytes ()));
    ("exec.spill_ops", per_stmt spill_ops);
    ("exec.spill_partitions", per_stmt spill_parts);
    ("exec.spill_run_mb", mb spill_bytes /. n);
    ("storage.page_reads", per_stmt (Storage.Segment.page_reads ()));
    ("storage.decoded_mb", mb (Storage.Segment.page_read_bytes ()) /. n);
    ("storage.load_s", x.load_s);
    ("storage.segment_write_s", x.segment_write_s);
    ("sim.ship_ms", x.sim_ship_ms);
    ("sim.latency_p95_ms", x.sim_latency_p95_ms);
    ("service.overhead_frac", x.service_overhead);
    ("trace.unattributed_frac", self_s "statement" /. traced_s);
    ( "trace.overhead_frac",
      float_of_int (Spans.count pl.sp) *. Spans.cost_per_span () /. traced_s );
  ]

(* ------------------------------------------------------------------ *)
(* What a statement produced, reduced to what the checks compare *)

type answer = {
  plan : Exec.Pplan.t;
  psig : string;  (** digest of the plan text *)
  rsig : string;  (** digest of the answer's CSV; "" without data *)
  violations : int;  (** Checker.certify findings on the plan *)
  ship_ms : float;  (** executor ledger, or the optimizer's estimate without data *)
  makespan_ms : float;
}

type outcome = Answer of answer | Rejected | Failed of string

let signature = function
  | Answer a -> a.psig ^ "/" ^ a.rsig
  | Rejected -> "rejected"
  | Failed m -> "failed: " ^ m

let mk_answer plan ~rsig ~violations ~ship_ms ~makespan_ms =
  Answer
    {
      plan;
      psig = plan_sig plan;
      rsig;
      violations = List.length violations;
      ship_ms;
      makespan_ms;
    }

let of_run = function
  | Ok (r : Cgqp.run_result) ->
    mk_answer r.Cgqp.plan ~rsig:(result_sig r.Cgqp.relation)
      ~violations:r.Cgqp.planned.Planner.violations ~ship_ms:r.Cgqp.ship_cost_ms
      ~makespan_ms:r.Cgqp.makespan_ms
  | Error (`Rejected _) -> Rejected
  | Error e -> Failed (Cgqp.error_to_string e)

let of_planned = function
  | Ok (p : Planner.planned) ->
    mk_answer p.Planner.plan ~rsig:"" ~violations:p.Planner.violations
      ~ship_ms:p.Planner.ship_cost ~makespan_ms:0.
  | Error (`Rejected _) -> Rejected
  | Error e -> Failed (Cgqp.error_to_string e)

let of_traced = function
  | Error m -> Failed m
  | Ok { outcome = Planner.Rejected _; _ } -> Rejected
  | Ok { outcome = Planner.Planned p; answer = None } -> of_planned (Ok p)
  | Ok { outcome = Planner.Planned p; answer = Some (r, rel) } ->
    mk_answer p.Planner.plan ~rsig:(result_sig rel) ~violations:p.Planner.violations
      ~ship_ms:(Exec.Interp.total_ship_cost r.Exec.Interp.stats)
      ~makespan_ms:r.Exec.Interp.makespan_ms

let guard f = try f () with e -> Failed (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Statement-stream workloads: tpch-resident, paged-spill, adhoc-compile *)

type oracle =
  | Answers of (Exec.Pplan.t -> Storage.Relation.t)
      (** the expected answer of a plan, before LIMIT *)
  | Answered
      (** the answers were checked after the warm-up pass, or the traced
          run needs no oracle; either way it was dropped, with any copy
          of the data it holds *)
  | Plans
      (** a seeded 1-in-20 sample re-optimized without pruning and with
          both verdict caches disabled must give the same plan text *)

type stream = {
  session : Cgqp.session;
  db : Storage.Database.t option;  (** None: optimize only *)
  stmts : (string * string) array;  (** (key, sql): one pass, in order *)
  mutable oracle : oracle;
  load_s : float;
  segment_write_s : float;
}

let load_tpch ~seed ~sf cat =
  time (fun () -> Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~seed ~sf ()))

let cr_session cat db =
  let s = Cgqp.create ~catalog:cat ~database:db () in
  Cgqp.add_policies s (Tpch.Policies.texts Tpch.Policies.CR);
  s

let run_on ~engine ~db cat plan =
  (Exec.Engine.run ~engine ~budget:Exec.Runtime.unlimited_budget
     ~network:(Catalog.network cat) ~db ~table_cols:(Catalog.table_cols cat) plan)
    .Exec.Interp.relation

let tpch = Tpch.Queries.all_extended

(* The 12 TPC-H queries under CR in a seeded order; every answer must
   equal the reference interpreter's on the same plan. *)
let setup_tpch_resident p () =
  let cat = Tpch.Schema.catalog () in
  let db, load_s = load_tpch ~seed:p.seed ~sf:(if p.smoke then 0.0004 else 0.02) cat in
  let session = cr_session cat db in
  Cgqp.set_mem_budget session (Some Exec.Runtime.unlimited_budget);
  {
    session;
    db = Some db;
    stmts = Array.of_list (Storage.Prng.shuffle (Storage.Prng.create ~seed:p.seed) tpch);
    oracle = Answers (run_on ~engine:Exec.Engine.Reference ~db cat);
    load_s;
    segment_write_s = 0.;
  }

let segment_dir p = Filename.concat p.tmp "segments"

(* The same queries in the same order, on data written to disk segments
   and read back on every access, under a 2 MiB memory budget. Every
   answer must equal the one the same plan gives on the resident copy of
   the data. *)
let setup_paged_spill p () =
  let cat = Tpch.Schema.catalog () in
  let resident, load_s =
    load_tpch ~seed:p.seed ~sf:(if p.smoke then 0.0003 else 0.012) cat
  in
  let paged, segment_write_s =
    time (fun () -> Storage.Database.paged resident ~dir:(segment_dir p))
  in
  let session = cr_session cat paged in
  Cgqp.set_mem_budget session (Some (if p.smoke then 40 * 1024 else 2 * 1024 * 1024));
  {
    session;
    db = Some paged;
    stmts = Array.of_list (Storage.Prng.shuffle (Storage.Prng.create ~seed:p.seed) tpch);
    oracle = Answers (run_on ~engine:(Cgqp.engine session) ~db:resident cat);
    load_s;
    segment_write_s;
  }

(* Conditions every generated row meets: TPC-H dates start at
   1992-01-01, quantity and size at 1. *)
let vacuous =
  [ "shipdate >= '1992-01-01'"; "orderdate >= '1992-01-01'"; "quantity >= 1"; "size >= 1" ]

(* The condition of a generated policy expression: the words between
   "where" and "group" *)
let condition text =
  let rec after = function "where" :: rest -> rest | _ :: rest -> after rest | [] -> [] in
  let rec upto = function [] | "group" :: _ -> [] | w :: rest -> w :: upto rest in
  String.concat " " (upto (after (String.split_on_char ' ' text)))

(* Customer and orders partitioned over three sites, 100 generated CR+A
   expressions, 540 ad-hoc queries with one TPC-H query after every
   ninth.

   Expressions whose condition is vacuous are left out. When a query
   repeats such a condition, filtering before or after a SHIP costs the
   same, and phase 2 may filter after it; the optimizer still credits
   the expression to the filtered data, but Checker.certify credits a
   policy only to a subtree placed at its table's home, so it rejects
   the plan. Seeds 34 and 49 hit this disagreement (5 and 13 of the
   first 6,500 queries); with these expressions left out, every plan
   must pass certify. *)
let setup_adhoc_compile p () =
  let cat =
    Tpch.Schema.catalog ~partition_tables:[ "customer"; "orders" ] ~partition_count:3 ()
  in
  let session = Cgqp.create ~catalog:cat () in
  Cgqp.set_policy_catalog session
    (Policy.Pcatalog.of_texts cat
       (Tpch.Workload.gen_expressions ~seed:p.seed ~template:Tpch.Policies.CRA ~n:150 ()
       |> List.filter (fun e -> not (List.mem (condition e) vacuous))
       |> List.filteri (fun i _ -> i < 100)));
  let prng = Storage.Prng.create ~seed:p.seed in
  let order = Array.of_list (Storage.Prng.shuffle prng tpch) in
  let stmts =
    Tpch.Workload.gen_queries ~seed:p.seed ~n:(if p.smoke then 72 else 540) ()
    |> List.mapi (fun i sql ->
           let q = (Printf.sprintf "adhoc%05d" i, sql) in
           if i mod 9 = 8 then [ q; order.(i / 9 mod Array.length order) ] else [ q ])
    |> List.concat |> Array.of_list
  in
  {
    session;
    db = None;
    stmts;
    oracle = Plans;
    load_s = 0.;
    segment_write_s = 0.;
  }

let untraced w sql =
  guard (fun () ->
      match w.db with
      | Some _ -> of_run (Cgqp.run w.session sql)
      | None -> of_planned (Cgqp.optimize w.session sql))

(* Judge one outcome; true for the one outcome that is counted, not
   failed: an optimize-only workload may answer "no compliant plan". A
   plan that fails Checker.certify is a failure everywhere. *)
let judge chk w key o =
  match o with
  | Answer a when a.violations > 0 ->
    stmt_failed chk "%s: plan fails Checker.certify" key;
    false
  | Answer _ -> false
  | Rejected when Option.is_none w.db -> true
  | Rejected ->
    stmt_failed chk "%s: rejected" key;
    false
  | Failed m ->
    stmt_failed chk "%s: %s" key m;
    false

let sampled p i = Hashtbl.hash (p.seed, i) mod 20 = 0

let check_oracle chk w (first : (string, string * outcome * int ref) Hashtbl.t) =
  match w.oracle with
  | Answers expected ->
    Hashtbl.iter
      (fun key (sql, o, n) ->
        match o with
        | Answer a -> (
          match apply_limit (limit_of sql) (expected a.plan) with
          | rel when result_sig rel = a.rsig -> ()
          | _ -> stmt_failed chk ~n:!n "%s: answer differs from the oracle's" key
          | exception e ->
            stmt_failed chk ~n:!n "%s: oracle raised %s" key (Printexc.to_string e))
        | Rejected | Failed _ -> ())
      first;
    w.oracle <- Answered
  | Answered -> ()
  | Plans ->
    let cat = Cgqp.catalog w.session and policies = Cgqp.policies w.session in
    let set_caches b =
      Policy.Evaluator.set_cache_enabled b;
      Policy.Implication.set_cache_enabled b
    in
    set_caches false;
    Fun.protect ~finally:(fun () -> set_caches true) @@ fun () ->
    Hashtbl.iter
      (fun key (sql, o, n) ->
        let ast = Sqlfront.Parser.query sql in
        let lplan = Sqlfront.Binder.bind_query ~table_cols:(table_cols_opt cat) ast in
        let expected =
          match
            Planner.optimize ~prune:false ~required_order:ast.Sqlfront.Ast.order_by ~cat
              ~policies lplan
          with
          | Planner.Planned pl -> plan_sig pl.Planner.plan ^ "/"
          | Planner.Rejected _ -> signature Rejected
        in
        if expected <> signature o then
          stmt_failed chk ~n:!n "%s: plan differs from the unpruned, uncached optimizer's" key)
      first

let run_stream p chk w =
  (* first outcome per key; later repetitions must repeat it. For the
     plan oracle only the seeded sample of the warm-up pass is kept. *)
  let first = Hashtbl.create 64 in
  let check k i o =
    let key, sql = w.stmts.(i) in
    ignore (judge chk w key o);
    match Hashtbl.find_opt first key with
    | Some (_, o0, n) ->
      incr n;
      if signature o0 <> signature o then
        stmt_failed chk "%s: plan or answer differs between repetitions" key
    | None ->
      let keep =
        match w.oracle with Answers _ | Answered -> true | Plans -> k = 0 && sampled p i
      in
      if keep then Hashtbl.add first key (sql, o, ref 1)
  in
  let n = Array.length w.stmts in
  (* Every statement has run once after the warm-up pass, so the oracle
     checks it then, and the timed passes run without the oracle's copy
     of the data on the heap (paged-spill's resident copy is nearly all
     of its live heap). A wrong answer counts once. *)
  let passes, heap =
    measure_passes p
      ~after_warmup:(fun () -> check_oracle chk w first)
      (statement_pass ~n ~exec:(fun i -> untraced w (snd w.stmts.(i))) ~check)
  in
  (n * (1 + List.length passes), end_to_end ~heap passes)

(* Traced: passes of the decomposed pipeline for half the window, each
   from cold verdict caches like the untraced passes, then the same
   statements untraced through the entry point, which every traced
   statement must match in plan text and answer digest. *)
let trace_stream p chk w =
  (match w.oracle with Answers _ -> w.oracle <- Answered | Answered | Plans -> ());
  let pl = pipeline (Spans.create ()) in
  let spill0 = start_pass () in
  let n = Array.length w.stmts in
  let sigs = ref [] and sim = ref [] and rejected = ref 0 in
  let add (h, m) (h', m') = (h + h', m + m') in
  let eval_cache = ref (0, 0) and impl_cache = ref (0, 0) in
  let t_start = now () in
  let passes = ref 0 in
  while !passes = 0 || now () -. t_start < p.window /. 2. do
    reset_verdict_caches ();
    Array.iteri
      (fun i (key, sql) ->
        let o =
          guard (fun () ->
              of_traced
                (decompose pl ~stmt:((!passes * n) + i) ~session:w.session ?exec:w.db sql))
        in
        if judge chk w key o then incr rejected;
        (match o with
        | Answer a when !passes = 0 -> sim := (a.ship_ms, a.makespan_ms) :: !sim
        | _ -> ());
        sigs := signature o :: !sigs)
      w.stmts;
    (* the verdict caches count since their reset *)
    eval_cache := add !eval_cache (Policy.Evaluator.cache_stats ());
    impl_cache := add !impl_cache (Policy.Implication.cache_stats ());
    incr passes
  done;
  let x =
    {
      stmts = !passes * n;
      cache = None;
      eval_cache = !eval_cache;
      impl_cache = !impl_cache;
      rejected = !rejected;
      spill = spill_since spill0;
      load_s = w.load_s;
      segment_write_s = w.segment_write_s;
      sim_ship_ms = mean (List.map fst !sim);
      sim_latency_p95_ms = percentile 95. (Array.of_list (List.map snd !sim));
      service_overhead = 0.;
    }
  in
  let metrics = layer_metrics pl x in
  List.iteri
    (fun j sg ->
      if j mod n = 0 then reset_verdict_caches ();
      let key, sql = w.stmts.(j mod n) in
      if signature (untraced w sql) <> sg then
        stmt_failed chk "%s: traced run differs from the untraced one" key)
    (List.rev !sigs);
  (x.stmts, metrics, pl.sp)

(* ------------------------------------------------------------------ *)
(* serve-churn *)

type serve = {
  cat : Catalog.t;
  db : Storage.Database.t;
  script : Service.Script.t;
  batch : int;  (** statements per scheduler run *)
  load_s : float;
}

let resolve_policy_set = function
  | "CR" -> Some (Tpch.Policies.texts Tpch.Policies.CR)
  | _ -> None

(* Three lookup shapes over 1,000 custkeys: two single-table ones that
   normalize to template plans, and a customer-orders join whose custkey
   occurs three times, so it only ever hits the exact table. *)
let lookup v =
  let k = (v / 3) + 1 in
  match v mod 3 with
  | 0 -> Printf.sprintf "SELECT name, acctbal FROM customer WHERE custkey = %d" k
  | 1 -> Printf.sprintf "SELECT mktsegment, nationkey FROM customer WHERE custkey = %d" k
  | _ ->
    Printf.sprintf
      "SELECT c.name, o.orderdate, o.totalprice FROM customer c, orders o WHERE \
       c.custkey = o.custkey AND c.custkey = %d"
      k

(* Every session starts under CR; the first session also installs a
   policy on region, a table no lookup reads, every [every] of its
   statements. Each install bumps the shared cache's epoch. *)
let setup_serve p () =
  let cat = Tpch.Schema.catalog () in
  let db, load_s = load_tpch ~seed:p.seed ~sf:0.002 cat in
  let batch, every = if p.smoke then (60, 2) else (3000, 50) in
  let script =
    Service.Script.zipf_workload ~skew:1.4 ~sessions:8 ~statements:batch ~universe:3000
      ~make_statement:lookup ~seed:p.seed ()
  in
  let install i = Printf.sprintf "ship * from db-5.region to L%d" (1 + (i / every mod 5)) in
  let sessions =
    List.mapi
      (fun s (spec : Service.Script.session_spec) ->
        let actions =
          List.concat
            (List.mapi
               (fun i a ->
                 if s = 0 && i > 0 && i mod every = 0 then
                   [ Service.Script.Add_policy (install i); a ]
                 else [ a ])
               spec.Service.Script.actions)
        in
        { spec with Service.Script.actions = Service.Script.Set_policy_set "CR" :: actions })
      script.Service.Script.sessions
  in
  {
    cat;
    db;
    script = { script with Service.Script.sessions };
    batch;
    load_s;
  }

(* Width 2 runs ~1.45x faster on a 2-core host, but there its run-to-run
   spread (quartile distance 25% of the median) is as wide as the
   largest bound a metric may have, because the second domain competes
   with whatever else the host runs; width 1 keeps it near 10%. *)
let pool_width = 1

(* [on_submit] runs as each statement is admitted: the scheduler
   resolves a statement's text once, right before running it. *)
let schedule ?(on_submit = ignore) p w ~domains =
  let resolve_query sql =
    on_submit ();
    sql
  in
  let env =
    Service.Scheduler.env ~catalog:w.cat ~database:w.db
      ~cache:(Cgqp.Plan_cache.create ()) ~template:true ~resolve_query
      ~resolve_policy_set ()
  in
  Service.Scheduler.run ~env ~seed:p.seed ~domains w.script

(* (sid, seq, plan sig, result sig) per statement, in execution order *)
let report_sigs (r : Service.Scheduler.report) =
  List.map
    (fun (s : Service.Scheduler.stmt_record) ->
      ( s.Service.Scheduler.sid,
        s.Service.Scheduler.seq,
        match s.Service.Scheduler.outcome with
        | Service.Scheduler.Done d -> d.plan_sig ^ "/" ^ d.result_sig
        | Service.Scheduler.Failed e -> "failed: " ^ Cgqp.error_to_string e
        | Service.Scheduler.Denied _ -> "denied" ))
    r.Service.Scheduler.statements

(* Every lookup has an answer: a failed statement would match a
   cache-less run that fails the same way, so it is counted here. *)
let answered chk w (r : Service.Scheduler.report) =
  if r.Service.Scheduler.ok <> w.batch then
    stmt_failed chk ~n:(w.batch - r.Service.Scheduler.ok)
      "%d of %d statements without an answer" (w.batch - r.Service.Scheduler.ok) w.batch

let apply_action w cg = function
  | Service.Script.Add_policy text -> Cgqp.add_policies cg [ text ]
  | Service.Script.Set_policy_set name ->
    Cgqp.set_policy_catalog cg
      (Policy.Pcatalog.of_texts w.cat (Option.get (resolve_policy_set name)))
  | _ -> invalid_arg "serve-churn: unexpected script action"

(* The oracle: every statement of a session replayed on a session with
   no plan cache and the same policy history. *)
let check_serve_oracle chk w first =
  let expected = Hashtbl.create 4096 in
  let memo = Hashtbl.create 4096 in
  List.iter
    (fun (spec : Service.Script.session_spec) ->
      let cg = Cgqp.create ~catalog:w.cat ~database:w.db () in
      let seq = ref 0 in
      List.iter
        (function
          | Service.Script.Submit sql ->
            let key = (Policy.Pcatalog.fingerprint (Cgqp.policies cg), sql) in
            let sg =
              match Hashtbl.find_opt memo key with
              | Some sg -> sg
              | None ->
                let sg = signature (of_run (Cgqp.run cg sql)) in
                Hashtbl.add memo key sg;
                sg
            in
            Hashtbl.add expected (spec.Service.Script.sid, !seq) sg;
            incr seq
          | a -> apply_action w cg a)
        spec.Service.Script.actions)
    w.script.Service.Script.sessions;
  List.iter
    (fun (sid, seq, sg) ->
      if Hashtbl.find_opt expected (sid, seq) <> Some sg then
        stmt_failed chk "%s#%d: differs from a cache-less session's run" sid seq)
    first

let run_serve p chk w =
  let first = ref None in
  let check (r : Service.Scheduler.report) =
    answered chk w r;
    let sigs = report_sigs r in
    match !first with
    | None -> first := Some sigs
    | Some s0 ->
      if s0 <> sigs then stmt_failed chk ~n:w.batch "scheduler report differs between runs"
  in
  (* A pass is one scheduler run over the batch, which admits the
     statements in the same order every time. At width 1 statements run
     one after another, so the time from one admission to the next (or
     to the end of the run) is a statement's wall time, scheduler
     bookkeeping included. *)
  let batch _ =
    let marks = ref [] in
    let report =
      schedule p w ~domains:pool_width ~on_submit:(fun () -> marks := now () :: !marks)
    in
    let t_end = now () in
    check report;
    (* the marks are latest first; the result is in admission order *)
    Array.of_list
      (snd
         (List.fold_left
            (fun (next, lat) t -> (t, ((next -. t) *. 1000.) :: lat))
            (t_end, []) !marks))
  in
  let passes, heap = measure_passes p batch in
  check_serve_oracle chk w (Option.get !first);
  (w.batch * (1 + List.length passes), end_to_end ~heap passes)

type replay = {
  sigs : (string * int * string) list;
  cache_stats : Cgqp.Plan_cache.stats;
  busy_s : float;  (** summed statement time *)
  ship_ms : float list;
}

(* The decomposed twin of Service.Scheduler.run at width 1: the same
   discrete-event loop (smallest ready time first, ties broken by the
   seeded generator) over sessions sharing a fresh plan cache, each
   submit through [decompose], policy actions applied where the script
   places them.

   Walking the report's statements instead, applying each session's
   pending policy actions right before its next submit, does not
   reproduce the cache counters: the report does not record when a
   policy action ran. Each one bumps the shared cache's epoch and purges
   the entries other sessions cached, so its place among the other
   sessions' submits decides hits, misses and invalidations. At time 0
   all eight sessions tie and the seeded generator interleaves their
   Set_policy_set actions with their first submits; only the event loop
   knows that order. With the report walk, the counter check in
   [trace_serve] failed at seeds 1 and 2 (full and smoke sizes) and
   passed only at seed 3. *)
let replay_serve p w pl ~stmt_base =
  let cache = Cgqp.Plan_cache.create () in
  let prng = Storage.Prng.create ~seed:p.seed in
  let live =
    List.map
      (fun (spec : Service.Script.session_spec) ->
        let cg = Cgqp.create ~catalog:w.cat ~database:w.db () in
        Cgqp.set_template_cache cg true;
        Cgqp.set_plan_cache cg (Some cache);
        (spec.Service.Script.sid, cg, ref spec.Service.Script.actions, ref 0., ref 0))
      w.script.Service.Script.sessions
  in
  let sigs = ref [] and n = ref 0 and busy = ref 0. and ships = ref [] in
  let rec loop () =
    match List.filter (fun (_, _, acts, _, _) -> !acts <> []) live with
    | [] -> ()
    | alive ->
      let min_ready =
        List.fold_left (fun m (_, _, _, r, _) -> Float.min m !r) infinity alive
      in
      let sid, cg, acts, ready, seq =
        match List.filter (fun (_, _, _, r, _) -> !r = min_ready) alive with
        | [ l ] -> l
        | ties -> List.nth ties (Storage.Prng.int prng (List.length ties))
      in
      (match List.hd !acts with
      | Service.Script.Submit sql ->
        let o, dt =
          time (fun () ->
              guard (fun () ->
                  of_traced (decompose pl ~stmt:(stmt_base + !n) ~session:cg ~exec:w.db sql)))
        in
        busy := !busy +. dt;
        (match o with
        | Answer a ->
          ready := !ready +. a.makespan_ms;
          ships := a.ship_ms :: !ships
        | Rejected | Failed _ -> ());
        sigs := (sid, !seq, signature o) :: !sigs;
        incr seq;
        incr n
      | a -> apply_action w cg a);
      acts := List.tl !acts;
      loop ()
  in
  loop ();
  {
    sigs = List.rev !sigs;
    cache_stats = Cgqp.Plan_cache.stats cache;
    busy_s = !busy;
    ship_ms = !ships;
  }

(* Traced: per batch the width-1 scheduler and its decomposed twin
   untraced (in alternating order, so neither always runs on the other's
   leftovers), then the twin traced. Both twins must reproduce the
   report's statement order, digests and cache counters exactly. Every
   batch does the same work, so counters come from the last one. *)
let trace_serve p chk w =
  let pl = pipeline (Spans.create ()) in
  let off = pipeline (Spans.create ~enabled:false ()) in
  let sched_s = ref 0. and untraced_s = ref 0. and batches = ref 0 in
  let last = ref None in
  let spill0 = start_pass () in
  let t_start = now () in
  while !batches = 0 || now () -. t_start < p.window do
    let scheduled () =
      reset_verdict_caches ();
      let report, dt = time (fun () -> schedule p w ~domains:1) in
      sched_s := !sched_s +. dt;
      report
    in
    let replay pl ~stmt_base =
      reset_verdict_caches ();
      replay_serve p w pl ~stmt_base
    in
    let report, u =
      if !batches mod 2 = 0 then
        let r = scheduled () in
        (r, replay off ~stmt_base:0)
      else
        let u = replay off ~stmt_base:0 in
        (scheduled (), u)
    in
    untraced_s := !untraced_s +. u.busy_s;
    let t = replay pl ~stmt_base:(!batches * w.batch) in
    answered chk w report;
    List.iter
      (fun (label, (r : replay)) ->
        if r.sigs <> report_sigs report then
          stmt_failed chk ~n:w.batch "%s replay differs from the scheduler's report" label;
        if Some r.cache_stats <> report.Service.Scheduler.cache then
          problem chk "%s replay's cache counters differ from the scheduler's" label)
      [ ("untraced", u); ("traced", t) ];
    (* the verdict caches count since their last reset *)
    last :=
      Some
        ( report,
          t,
          Policy.Evaluator.cache_stats (),
          Policy.Implication.cache_stats () );
    incr batches
  done;
  let report, t, eval_cache, impl_cache = Option.get !last in
  let x =
    {
      stmts = !batches * w.batch;
      cache = Some t.cache_stats;
      eval_cache;
      impl_cache;
      rejected = 0;
      spill = spill_since spill0;
      load_s = w.load_s;
      segment_write_s = 0.;
      sim_ship_ms = mean t.ship_ms;
      sim_latency_p95_ms = report.Service.Scheduler.p95_ms;
      service_overhead = (!sched_s -. !untraced_s) /. !sched_s;
    }
  in
  (x.stmts, layer_metrics pl x, pl.sp)

(* ------------------------------------------------------------------ *)
(* Entry point *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Run one workload, untraced (end-to-end metrics) or traced (per-layer
   metrics and the recorded spans). Segments and spill runs live under
   [p.tmp], which must be empty once the segments are removed: a
   leftover spill directory is an error. *)
let run ~name ~trace p =
  let chk = { failed = 0; errors = [] } in
  if not (Sys.file_exists p.tmp) then Sys.mkdir p.tmp 0o755;
  Filename.set_temp_dir_name p.tmp;
  let info = ref [ ("engine", Exec.Engine.to_string (Exec.Engine.default ())) ] in
  let spans = ref None in
  let traced (n, metrics, sp) =
    spans := Some sp;
    (n, metrics)
  in
  let measure (w, setup_s) ~traced:trace_run ~untraced =
    if trace then traced (trace_run p chk w)
    else
      let n, metrics = untraced p chk w in
      (n, ("setup_s", setup_s ()) :: metrics)
  in
  let stream setup =
    measure (setup_sampler p (setup p)) ~traced:trace_stream ~untraced:run_stream
  in
  let attempted, metrics =
    Fun.protect ~finally:(fun () -> rm_rf (segment_dir p)) @@ fun () ->
    match name with
    | "tpch-resident" -> stream setup_tpch_resident
    | "adhoc-compile" -> stream setup_adhoc_compile
    | "paged-spill" -> stream setup_paged_spill
    | "serve-churn" ->
      info := ("pool_width", string_of_int pool_width) :: !info;
      measure (setup_sampler p (setup_serve p)) ~traced:trace_serve ~untraced:run_serve
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  (match Sys.readdir p.tmp with
  | [||] -> ()
  | left ->
    problem chk "leftover files in %s: %s" p.tmp (String.concat " " (Array.to_list left)));
  rm_rf p.tmp;
  (if trace then
     match List.assoc_opt "trace.unattributed_frac" metrics with
     | Some f when f > 0.05 ->
       problem chk "the named layers cover only %.1f%% of statement time"
         (100. *. (1. -. f))
     | _ -> ());
  ( { attempted; failed = chk.failed; errors = List.rev chk.errors; metrics; info = !info },
    !spans )
