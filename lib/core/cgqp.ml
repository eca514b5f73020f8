(* Compliant geo-distributed query processing — the end-to-end system of
   the paper (Figure 2).

   A {!session} bundles the geo-distributed catalog, the policy catalog
   populated by the data officers' policy expressions, and (optionally)
   the physical data. Queries submitted as SQL are parsed, bound,
   optimized by the compliance-based two-phase optimizer, certified, and
   executed against the in-memory engine with simulated wide-area SHIP
   costs.

   {[
     let session = Cgqp.create ~catalog () in
     Cgqp.add_policies session [ "ship custkey, name from customer to Europe" ];
     match Cgqp.run session "SELECT ..." with
     | Ok r -> ...
     | Error (`Rejected reason) -> ...
   ]} *)

module Plan_cache = Plan_cache
module Feedback = Feedback
module Sset = Set.Make (String)

type session = {
  mutable catalog : Catalog.t;
      (* mutable for cardinality feedback: a fold installs a corrected
         catalog (new stamp) mid-session; see set_catalog *)
  mutable policies : Policy.Pcatalog.t;
  mutable database : Storage.Database.t option;
  mutable mode : Optimizer.Memo.mode;
  mutable faults : Catalog.Network.Fault.schedule;
  mutable retry : Exec.Interp.retry_policy;
  mutable engine : Exec.Engine.t;
      (* which executor runs the plans; resolved from CGQP_ENGINE at
         session creation, overridable per session *)
  mutable budget : int option;
      (* memory budget in bytes for the executor's byte account; [None]
         defers to CGQP_MEM_BUDGET at execution time *)
  mutable cache : Plan_cache.t option;
      (* plan cache consulted by [optimize]/[run]; possibly shared with
         other sessions of a serving layer. [None] (the default) is the
         paper's one-shot behavior. *)
  mutable template : bool;
      (* when true (CGQP_TEMPLATE_CACHE or set_template_cache), cache
         lookups first try the literal-normalized template table *)
  mutable feedback : Feedback.t option;
      (* cardinality feedback store; folds replace [catalog] and bump
         the cache epoch. The serving scheduler drives its own shared
         store instead (see Service.Scheduler). *)
  mutable sens : (Policy.Pcatalog.t * Sset.t) option;
      (* memoized sensitive-column set; keyed on physical equality of
         the policy catalog, which is replaced wholesale on mutation *)
}

type error =
  [ `Parse of string  (** SQL or policy syntax error *)
  | `Bind of string  (** unknown table/column, ambiguity *)
  | `Rejected of string  (** no compliant plan exists (Figure 2 "reject") *)
  | `Unsatisfiable of string
    (** a compliant plan existed but no compliant alternative survives
        the failures encountered at execution time *)
  ]

type recovery = Optimizer.Explain.recovery = {
  failovers : int;
  masked_links : (Catalog.Location.t * Catalog.Location.t) list;
  masked_sites : Catalog.Location.t list;
  masked_replicas : (string * Catalog.Location.t) list;
}

type run_result = {
  relation : Storage.Relation.t;
  plan : Exec.Pplan.t;
  ship_cost_ms : float;  (** simulated network cost actually incurred *)
  shipped_bytes : int;
  makespan_ms : float;  (** simulated response time (critical path) *)
  planned : Optimizer.Planner.planned;
  interp : Exec.Interp.result;  (** raw executor output incl. per-node profile *)
  recovery : recovery;  (** what the degradation path did, if anything *)
}

(* Failover re-plans triggered by permanent SHIP failures. *)
let c_failovers = Obs.Metrics.counter "cgqp_exec_ship_failovers_total"

(* Runs that needed at least one failover (or aborted as unsatisfiable
   after one) — exposed as a sampled gauge so dashboards can alert on
   "the system is currently degrading queries". *)
let degraded_runs = ref 0

let () =
  Obs.Metrics.gauge "cgqp_session_degraded_runs" (fun () ->
      float_of_int !degraded_runs)

(* CGQP_TEMPLATE_CACHE=1 force-enables template caching for every
   session (the CI matrix runs the whole suite this way). *)
let template_env () =
  match Sys.getenv_opt "CGQP_TEMPLATE_CACHE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let create ?database ~catalog () =
  {
    catalog;
    policies = Policy.Pcatalog.empty;
    database;
    mode = Optimizer.Memo.Compliant;
    faults = Catalog.Network.Fault.empty;
    retry = Exec.Interp.default_retry;
    engine = Exec.Engine.default ();
    budget = None;
    cache = None;
    template = template_env ();
    feedback = None;
    sens = None;
  }

let set_mode session mode = session.mode <- mode
let catalog session = session.catalog

(* Install a (e.g. feedback-corrected) catalog. No epoch bump here:
   cache keys carry the catalog stamp, so entries certified under the
   old catalog can never be served — the feedback paths bump the epoch
   themselves (once per fold) to purge them eagerly. *)
let set_catalog session cat = session.catalog <- cat
let set_template_cache session b = session.template <- b
let template_cache session = session.template
let set_feedback session fb = session.feedback <- fb
let feedback session = session.feedback
let policies session = session.policies
let set_faults session sched = session.faults <- sched
let faults session = session.faults
let set_retry session policy = session.retry <- policy
let retry session = session.retry
let set_engine session engine = session.engine <- engine
let engine session = session.engine
let set_mem_budget session b = session.budget <- b
let mem_budget session = session.budget
let set_plan_cache session cache = session.cache <- cache
let plan_cache session = session.cache

(* A policy mutation starts a new epoch: every cached plan was certified
   under the old catalog and must never be served again. *)
let bump_cache session reason =
  Option.iter (fun c -> Plan_cache.bump_epoch ~reason c) session.cache

(* Install the physical data the engine executes against. *)
let attach_database session db = session.database <- Some db

(* [add_policies session texts] parses and installs policy expressions
   (the data officer's offline step in Figure 2). Idempotent for
   duplicate statements: the catalog dedupes structurally equal
   expressions, so re-adding a policy changes neither the fingerprint
   nor the evaluator's work. *)
let add_policies session texts =
  let parsed =
    List.map
      (fun text ->
        try Policy.Expression.parse session.catalog text
        with Policy.Expression.Bind_error m -> raise (Invalid_argument m))
      texts
  in
  session.policies <-
    Policy.Pcatalog.make (Policy.Pcatalog.all session.policies @ parsed);
  bump_cache session "add_policies"

let clear_policies session =
  session.policies <- Policy.Pcatalog.empty;
  bump_cache session "clear_policies"

(* Install a pre-built (e.g. deny-preprocessed) policy catalog
   wholesale. *)
let set_policy_catalog session pc =
  session.policies <- pc;
  bump_cache session "set_policy_catalog"

let table_cols_opt session t =
  match Catalog.find_table session.catalog t with
  | Some e -> Some (Catalog.Table_def.col_names e.Catalog.def)
  | None -> None

(* Parse and bind; also return the ORDER BY / LIMIT decoration, which
   is applied to the final result outside the optimizer (the paper's
   optimizer scope is Select-Project-Join-GroupBy). *)
let parse_and_bind session sql :
    (Relalg.Plan.t * (Relalg.Attr.t * bool) list * int option, error) result =
  match Sqlfront.Parser.query sql with
  | exception Sqlfront.Parser.Error m -> Error (`Parse m)
  | ast -> (
    match Sqlfront.Binder.bind_query ~table_cols:(table_cols_opt session) ast with
    | plan -> Ok (plan, ast.Sqlfront.Ast.order_by, ast.Sqlfront.Ast.limit)
    | exception Sqlfront.Binder.Error m -> Error (`Bind m))

(* Parse and bind only. *)
let plan_of_sql session sql : (Relalg.Plan.t, error) result =
  Result.map (fun (p, _, _) -> p) (parse_and_bind session sql)

(* Columns that occur in some policy predicate: a literal bound to one
   of these can flip a SHIP verdict, so its value must join the
   template key (the verdict-fingerprint guard). *)
let sensitive_cols session =
  match session.sens with
  | Some (p, set) when p == session.policies -> set
  | _ ->
    let set =
      List.fold_left
        (fun acc (e : Policy.Expression.t) ->
          Relalg.Attr.Set.fold
            (fun a acc -> Sset.add a.Relalg.Attr.name acc)
            (Relalg.Pred.cols e.Policy.Expression.pred)
            acc)
        Sset.empty
        (Policy.Pcatalog.all session.policies)
    in
    session.sens <- Some (session.policies, set);
    set

(* The session's whole cache conversation for one optimizer step, as
   one function: template lookup (when enabled and the statement
   normalizes), then the exact key, then [compute] + inserts. The key
   is (normalized SQL, policy fingerprint, catalog stamp, [mask_fp],
   mode): [mask_fp] is 0 for the healthy network and the fingerprint
   of the accumulated failover masks during degraded re-planning, so a
   plan certified against one topology is never served for another.
   Only optimizer outcomes (including rejections) are cached, and
   execution always runs, keeping cache-on results byte-identical to
   cache-off. *)
let consult_cache session ~mask_fp ~sql compute =
  match session.cache with
  | None -> compute ()
  | Some cache -> (
    let exact_key () =
      Plan_cache.key ~sql ~policies:session.policies ~catalog:session.catalog
        ~mask_fp ~mode:session.mode ()
    in
    let exact ~on_compute () =
      let key = exact_key () in
      match Plan_cache.find cache key with
      | Some outcome -> outcome
      | None ->
        let outcome = compute () in
        Plan_cache.add cache key outcome;
        on_compute outcome;
        outcome
    in
    let no_template _ = () in
    if not session.template then exact ~on_compute:no_template ()
    else
      match Sqlfront.Normalizer.normalize sql with
      | None -> exact ~on_compute:no_template ()
      | Some { Sqlfront.Normalizer.template; params } -> (
        let bind =
          Array.of_list
            (List.map
               (fun (p : Sqlfront.Normalizer.param) -> (p.column, p.value))
               params)
        in
        let sens = sensitive_cols session in
        let tkey =
          Plan_cache.template_key ~template ~params:bind
            ~sensitive:(fun c -> Sset.mem c sens)
            ~policies:session.policies ~catalog:session.catalog ~mask_fp
            ~mode:session.mode ()
        in
        match Plan_cache.find_template cache tkey ~params:bind with
        | Some planned -> Optimizer.Planner.Planned planned
        | None ->
          (* populate the template table only from a fresh, clean
             optimization: violation-free Planned outcomes *)
          let on_compute = function
            | Optimizer.Planner.Planned p
              when p.Optimizer.Planner.violations = [] ->
              Plan_cache.add_template cache tkey ~params:bind p
            | _ -> ()
          in
          exact ~on_compute ()))

(* Optimize against [cat], going through the session's plan cache when
   one is attached. Parsing/binding happen before this point. *)
let cached_optimize session ~cat ~mask_fp ~order_by ~sql lplan =
  consult_cache session ~mask_fp ~sql (fun () ->
      Optimizer.Planner.optimize ~mode:session.mode ~required_order:order_by
        ~cat ~policies:session.policies lplan)

(* Optimize a query under the session's dataflow policies. The ORDER BY
   clause becomes the root's required sort order — part of the
   optimization goal's physical properties (§6.2); the optimizer adds a
   Sort enforcer only when the chosen plan does not already deliver
   it. *)
let optimize session sql : (Optimizer.Planner.planned, error) result =
  match parse_and_bind session sql with
  | Error e -> Error e
  | Ok (lplan, order_by, _) -> (
    match
      cached_optimize session ~cat:session.catalog ~mask_fp:0 ~order_by ~sql lplan
    with
    | Optimizer.Planner.Planned p -> Ok p
    | Optimizer.Planner.Rejected reason -> Error (`Rejected reason))

(* [is_legal session sql] — does the query admit at least one compliant
   execution plan? *)
let is_legal session sql =
  match optimize session sql with Ok _ -> true | Error _ -> false

(* Mask the failed topology element. The masks are the degradation
   path's accumulated knowledge: every failover adds a link or site the
   planner must avoid, so the loop strictly shrinks the search space
   and terminates (a repeated failure on an already-masked element
   would be a planner bug, reported as unsatisfiable rather than
   looping). *)
let extend_masks (recovery : recovery) (f : exn) =
  match f with
  | Exec.Interp.Ship_failed { from_loc; to_loc; reason; _ } -> (
    match reason with
    | `Site_down l ->
      if List.mem l recovery.masked_sites then Error "already-masked site failed again"
      else
        Ok
          {
            recovery with
            failovers = recovery.failovers + 1;
            masked_sites = recovery.masked_sites @ [ l ];
          }
    | `Link_down | `Attempts_exhausted | `Budget_exhausted ->
      let pair =
        if String.compare from_loc to_loc <= 0 then (from_loc, to_loc)
        else (to_loc, from_loc)
      in
      if List.mem pair recovery.masked_links then
        Error "already-masked link failed again"
      else
        Ok
          {
            recovery with
            failovers = recovery.failovers + 1;
            masked_links = recovery.masked_links @ [ pair ];
          })
  | Exec.Interp.Replica_stale { table; site; _ } ->
    (* Mask the stale copy, not the whole site: the re-plan prefers a
       fresh compliant sibling replica and only widens to link/site
       masks if that sibling fails too. *)
    let key = (String.lowercase_ascii table, site) in
    if List.mem key recovery.masked_replicas then
      Error "already-masked replica failed again"
    else
      Ok
        {
          recovery with
          failovers = recovery.failovers + 1;
          masked_replicas = recovery.masked_replicas @ [ key ];
        }
  | _ -> invalid_arg "extend_masks: not a Ship_failed/Replica_stale exception"

(* A network masked by everything the degradation path has learned so
   far. [Catalog.with_network] keeps the catalog stamp: policy verdicts
   do not depend on link costs, so the optimizer's caches stay valid. *)
let masked_catalog session (recovery : recovery) =
  let events =
    List.map
      (fun (a, b) -> Catalog.Network.Fault.Link_down (a, b))
      recovery.masked_links
    @ List.map (fun l -> Catalog.Network.Fault.Site_down l) recovery.masked_sites
    @ List.map
        (fun (table, site) ->
          Catalog.Network.Fault.Replica_lag { table; site; lag_ms = Float.infinity })
        recovery.masked_replicas
  in
  let mask =
    Catalog.Network.Fault.make
      ~seed:(Catalog.Network.Fault.seed session.faults)
      events
  in
  Catalog.with_network session.catalog
    (Catalog.Network.with_faults (Catalog.network session.catalog) mask)

(* Optimize and execute; ORDER BY / LIMIT are applied to the result.

   Execution runs under the session's fault schedule. When a SHIP fails
   permanently (link/site down, retries or budget exhausted) the
   degradation path masks the failed element and re-invokes the full
   compliance-based optimizer against the masked network — so a
   failover lands on the cheapest alternative plan that is still
   compliant, never on a merely-cheap one. If no compliant plan
   survives, the run aborts with [`Unsatisfiable]: degraded execution
   must not become an exfiltration channel (see docs/FAULTS.md). *)
let run session sql : (run_result, error) result =
  match parse_and_bind session sql with
  | Error e -> Error e
  | Ok (lplan, order_by, limit) -> (
    (* Both the healthy plan and every degraded re-plan go through the
       plan cache (when attached): a re-plan is keyed by the fingerprint
       of the masks it was certified against, so repeated failovers over
       the same masked topology reuse the certified alternative instead
       of re-running the optimizer from scratch. *)
    let optimize_against ?(recovery = Optimizer.Explain.no_recovery) cat =
      let mask_fp =
        Plan_cache.mask_fingerprint ~replicas:recovery.masked_replicas
          ~links:recovery.masked_links ~sites:recovery.masked_sites ()
      in
      cached_optimize session ~cat ~mask_fp ~order_by ~sql lplan
    in
    match optimize_against session.catalog with
    | Optimizer.Planner.Rejected reason -> Error (`Rejected reason)
    | Optimizer.Planner.Planned planned -> (
      match session.database with
      | None -> Error (`Rejected "no database attached to the session")
      | Some db ->
        let network = Catalog.network session.catalog in
        let table_cols = Catalog.table_cols session.catalog in
        let rec attempt (recovery : recovery) (planned : Optimizer.Planner.planned)
            =
          match
            Exec.Engine.run ~engine:session.engine ?budget:session.budget
              ~faults:session.faults ~retry:session.retry ~network ~db
              ~table_cols planned.Optimizer.Planner.plan
          with
          | interp -> Ok (planned, interp, recovery)
          | exception
              ((Exec.Interp.Ship_failed _ | Exec.Interp.Replica_stale _) as exn)
            -> (
            Obs.Metrics.inc c_failovers;
            let failure =
              (* what failed, for trace events and the Unsatisfiable
                 message when no compliant alternative survives *)
              match exn with
              | Exec.Interp.Ship_failed { from_loc; to_loc; attempts; reason } ->
                if Obs.Trace.enabled () then
                  Obs.Trace.instant "session.ship_failover"
                    [
                      ("from", Obs.Json.Str from_loc);
                      ("to", Obs.Json.Str to_loc);
                      ( "reason",
                        Obs.Json.Str (Exec.Interp.ship_failure_to_string reason) );
                      ("attempts", Obs.Json.Num (float_of_int attempts));
                    ];
                Printf.sprintf "%s -> %s (%s)" from_loc to_loc
                  (Exec.Interp.ship_failure_to_string reason)
              | Exec.Interp.Replica_stale { table; partition; site } ->
                if Obs.Trace.enabled () then
                  Obs.Trace.instant "session.replica_failover"
                    [
                      ("table", Obs.Json.Str table);
                      ("partition", Obs.Json.Num (float_of_int partition));
                      ("site", Obs.Json.Str site);
                    ];
                Printf.sprintf "the replica of %s at %s (stale)" table site
              | _ -> assert false
            in
            match extend_masks recovery exn with
            | Error why -> Error (`Unsatisfiable why)
            | Ok recovery -> (
              match optimize_against ~recovery (masked_catalog session recovery) with
              | Optimizer.Planner.Rejected reason' ->
                Error
                  (`Unsatisfiable
                    (Printf.sprintf
                       "no compliant plan survives the failure of %s: %s" failure
                       reason'))
              | Optimizer.Planner.Planned planned' -> attempt recovery planned'))
        in
        (match attempt Optimizer.Explain.no_recovery planned with
        | Error e ->
          incr degraded_runs;
          Error e
        | Ok (planned, interp, recovery) ->
          if recovery.failovers > 0 then
            incr degraded_runs;
          (* cardinality feedback: record the executed scans; when the
             evidence clears the fold threshold, install the corrected
             catalog and start a new cache epoch (exactly one bump per
             fold) so stale plans are re-optimized on the next
             submission *)
          (match session.feedback with
          | None -> ()
          | Some fb -> (
            Feedback.observe fb ~cat:session.catalog
              ~plan:planned.Optimizer.Planner.plan
              ~profile:interp.Exec.Interp.profile;
            match Feedback.fold fb session.catalog with
            | None -> ()
            | Some cat' ->
              session.catalog <- cat';
              bump_cache session "feedback"));
          let { Exec.Interp.relation; stats; makespan_ms; profile = _ } = interp in
          (* ORDER BY is enforced inside the plan (Sort enforcer); only
             LIMIT remains a result decoration *)
          ignore order_by;
          let relation =
            match limit with
            | None -> relation
            | Some n -> Storage.Relation.take relation n
          in
          Ok
            {
              relation;
              plan = planned.Optimizer.Planner.plan;
              ship_cost_ms = Exec.Interp.total_ship_cost stats;
              shipped_bytes = Exec.Interp.total_ship_bytes stats;
              makespan_ms;
              planned;
              interp;
              recovery;
            })))

(* EXPLAIN: optimize only, render the annotated plan tree. The session
   catalog enables the replica-read annotations (a no-op for catalogs
   without replica sets). *)
let explain session sql : (string, error) result =
  Result.map
    (fun p -> Optimizer.Explain.render ~cat:session.catalog p)
    (optimize session sql)

(* EXPLAIN ANALYZE: optimize, execute, render with actual rows/bytes
   per operator. Requires an attached database. *)
let explain_analyze session sql : (string, error) result =
  Result.map
    (fun r ->
      Optimizer.Explain.render ~analyze:r.interp ~recovery:r.recovery
        ~cat:session.catalog r.planned)
    (run session sql)

let pp_error ppf = function
  | `Parse m -> Fmt.pf ppf "syntax error: %s" m
  | `Bind m -> Fmt.pf ppf "binding error: %s" m
  | `Rejected m -> Fmt.pf ppf "rejected: %s" m
  | `Unsatisfiable m -> Fmt.pf ppf "unsatisfiable under failures: %s" m

let error_to_string e = Fmt.str "%a" pp_error e
