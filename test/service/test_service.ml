(* Serving-layer suite.

   The load-bearing test is the transparency property: a plan cache in
   a compliance-based optimizer may never change what a statement
   returns — not its plan, not its SHIP bytes, not its verdict — only
   how fast the optimizer answers. Every random action sequence
   (submits interleaved with policy mutations) is replayed against a
   cached and an uncached session and compared step by step; the
   directed regressions then pin the two ways the property could rot:
   a stale plan surviving a policy change, and a failover re-plan
   served for the wrong mask.

   The qcheck cases are deterministic: the generator PRNG is seeded
   from CGQP_SEED (default 42) like the chaos suite. *)

module PC = Cgqp.Plan_cache
module A = Service.Admission
module Sc = Service.Script
module Sd = Service.Scheduler

let service_seed = Storage.Seed.resolve ()

let run_ok s sql =
  match Cgqp.run s sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "run failed: %s" (Cgqp.error_to_string e)

(* ---------------- plan cache mechanics ---------------- *)

let test_hit_on_repeat () =
  let cache = PC.create () in
  let s = Fixture.session ~cache () in
  let p1 = run_ok s Fixture.q in
  let p2 = run_ok s Fixture.q in
  let st = PC.stats cache in
  Alcotest.(check int) "one miss" 1 st.PC.misses;
  Alcotest.(check int) "one hit" 1 st.PC.hits;
  (* the cache returns the certified outcome itself, so a hit reuses
     the very same planned record *)
  Alcotest.(check bool) "physically reused" true (p1.Cgqp.planned == p2.Cgqp.planned);
  Alcotest.(check string) "same answer"
    (Storage.Relation.to_csv p1.Cgqp.relation)
    (Storage.Relation.to_csv p2.Cgqp.relation)

let test_normalization () =
  let cache = PC.create () in
  let s = Fixture.session ~cache () in
  ignore (run_ok s "SELECT name FROM customer");
  ignore (run_ok s "  select  NAME
 from customer");
  let st = PC.stats cache in
  Alcotest.(check int) "whitespace/case/; variants share an entry" 1 st.PC.hits;
  Alcotest.(check string) "normalize collapses" "select name from customer"
    (PC.normalize_sql "  SELECT  name
FROM customer ;");
  (* quoted literals keep their case: merging them would change results *)
  Alcotest.(check bool) "literals are case-sensitive" true
    (PC.normalize_sql "select 'ABC'" <> PC.normalize_sql "select 'abc'")

let test_lru_eviction () =
  let cache = PC.create ~capacity:2 () in
  let s = Fixture.session ~cache () in
  ignore (run_ok s (List.nth Fixture.query_pool 1));
  ignore (run_ok s (List.nth Fixture.query_pool 2));
  ignore (run_ok s (List.nth Fixture.query_pool 3));
  Alcotest.(check int) "bounded" 2 (PC.size cache);
  Alcotest.(check int) "one eviction" 1 (PC.stats cache).PC.evictions;
  (* the first (least recently used) entry is the one that left *)
  ignore (run_ok s (List.nth Fixture.query_pool 1));
  Alcotest.(check int) "evicted entry misses again" 4 (PC.stats cache).PC.misses

let test_mask_fingerprint () =
  Alcotest.(check int) "healthy mask is 0" 0
    (PC.mask_fingerprint ~links:[] ~sites:[] ());
  let fp l s = PC.mask_fingerprint ~links:l ~sites:s () in
  Alcotest.(check bool) "non-empty is non-zero" true
    (fp [ ("NA", "EU") ] [] <> 0 && fp [] [ "AS" ] <> 0);
  Alcotest.(check int) "undirected links"
    (fp [ ("NA", "EU") ] [])
    (fp [ ("EU", "NA") ] []);
  Alcotest.(check int) "order-insensitive"
    (fp [ ("NA", "EU"); ("EU", "AS") ] [ "NA"; "AS" ])
    (fp [ ("EU", "AS"); ("NA", "EU") ] [ "AS"; "NA" ]);
  Alcotest.(check bool) "links and sites are distinct dimensions" true
    (fp [ ("NA", "EU") ] [] <> fp [] [ "NA" ])

(* ---------------- policy epochs ---------------- *)

(* The acceptance regression: a policy mutation between two identical
   submissions must force a re-optimize — a stale hit here would ship
   data the new catalog forbids. *)
let test_stale_policy_regression () =
  let cache = PC.create () in
  let s = Fixture.session ~policies:Fixture.strict_policies ~cache () in
  ignore (run_ok s Fixture.q);
  Cgqp.clear_policies s;
  (match Cgqp.run s Fixture.q with
  | Error (`Rejected _) -> ()
  | Ok _ -> Alcotest.fail "stale compliant plan served after clear_policies"
  | Error e -> Alcotest.failf "expected rejection, got: %s" (Cgqp.error_to_string e));
  Alcotest.(check bool) "epoch purge counted" true
    ((PC.stats cache).PC.invalidations >= 1);
  (* and the reverse direction: adding policies back re-plans *)
  Cgqp.add_policies s Fixture.open_policies;
  let r = run_ok s Fixture.q in
  let fresh = run_ok (Fixture.session ()) Fixture.q in
  Alcotest.(check string) "re-optimized plan matches an uncached session"
    (Exec.Pplan.to_string fresh.Cgqp.plan)
    (Exec.Pplan.to_string r.Cgqp.plan)

let test_set_policy_catalog_bumps () =
  let cache = PC.create () in
  let s = Fixture.session ~cache () in
  ignore (run_ok s Fixture.q);
  let e0 = PC.epoch cache in
  Cgqp.set_policy_catalog s
    (Policy.Pcatalog.of_texts (Cgqp.catalog s) Fixture.strict_policies);
  Alcotest.(check bool) "epoch bumped" true (PC.epoch cache > e0);
  Alcotest.(check int) "purged" 0 (PC.size cache)

(* A failover re-plan is certified against a masked network; it must be
   cached under that mask's fingerprint and reused on the next run that
   degrades the same way — never for a different (or healthy) mask. *)
let test_failover_mask_reuse () =
  let sched =
    Catalog.Network.Fault.make ~seed:5 [ Catalog.Network.Fault.Link_down ("NA", "EU") ]
  in
  let cache = PC.create () in
  let cached = Fixture.session ~cache () in
  Cgqp.set_faults cached sched;
  let plain = Fixture.session () in
  Cgqp.set_faults plain sched;
  let r1 = run_ok cached Fixture.q in
  Alcotest.(check bool) "degraded" true (r1.Cgqp.recovery.Cgqp.failovers >= 1);
  let st1 = PC.stats cache in
  Alcotest.(check int) "healthy plan + masked re-plan are distinct entries" 2
    st1.PC.misses;
  let r2 = run_ok cached Fixture.q in
  let st2 = PC.stats cache in
  Alcotest.(check int) "second degraded run is all hits" (st1.PC.misses) st2.PC.misses;
  Alcotest.(check int) "two lookups served" (st1.PC.hits + 2) st2.PC.hits;
  let r0 = run_ok plain Fixture.q in
  List.iter
    (fun (r : Cgqp.run_result) ->
      Alcotest.(check string) "same executed plan as uncached"
        (Exec.Pplan.to_string r0.Cgqp.plan)
        (Exec.Pplan.to_string r.Cgqp.plan);
      Alcotest.(check int) "same bytes" r0.Cgqp.shipped_bytes r.Cgqp.shipped_bytes)
    [ r1; r2 ]

(* ---------------- transparency property ---------------- *)

type step = Submit of int | Set_pool of int | Clear

let pp_step = function
  | Submit i -> Printf.sprintf "submit q%d" i
  | Set_pool j -> Printf.sprintf "set-policies p%d" j
  | Clear -> "clear-policies"

let gen_steps =
  QCheck.Gen.(
    list_size (int_range 2 6)
      (frequency
         [
           (4, map (fun i -> Submit i) (int_bound (List.length Fixture.query_pool - 1)));
           (1, map (fun j -> Set_pool j) (int_bound (List.length Fixture.policy_pool - 1)));
           (1, return Clear);
         ]))

let arb_steps =
  QCheck.make ~print:(fun steps -> String.concat "; " (List.map pp_step steps)) gen_steps

let observe s = function
  | Submit i -> (
    match Cgqp.run s (List.nth Fixture.query_pool i) with
    | Ok r ->
      Printf.sprintf "ok plan=%s bytes=%d cost=%.4f rows=%s"
        (Digest.to_hex (Digest.string (Exec.Pplan.to_string r.Cgqp.plan)))
        r.Cgqp.shipped_bytes r.Cgqp.ship_cost_ms
        (Fmt.str "%a" (Fmt.Dump.list (Fmt.Dump.list Relalg.Value.pp))
           (Fixture.canon r.Cgqp.relation))
    | Error e -> "error " ^ Cgqp.error_to_string e)
  | Set_pool j ->
    Cgqp.clear_policies s;
    Cgqp.add_policies s (List.nth Fixture.policy_pool j);
    "set"
  | Clear ->
    Cgqp.clear_policies s;
    "clear"

let prop_transparent =
  QCheck.Test.make ~count:250
    ~name:"cache-on and cache-off sessions are observationally identical" arb_steps
    (fun steps ->
      let cached = Fixture.session ~cache:(PC.create ~capacity:4 ()) () in
      let plain = Fixture.session () in
      List.for_all
        (fun step ->
          let a = observe cached step and b = observe plain step in
          if a <> b then
            QCheck.Test.fail_reportf "diverged on [%s]:
  cached: %s
  plain:  %s"
              (pp_step step) a b
          else true)
        steps)

(* ---------------- admission control ---------------- *)

let quota ?in_flight ?budget ?(window = 1000.) ?(on_deny = A.Reject) () =
  { A.max_in_flight = in_flight; ship_budget_bytes = budget; window_ms = window; on_deny }

let check_admit = function
  | A.Admit -> ()
  | A.Deny { reason; _ } -> Alcotest.failf "denied: %s" (A.reason_to_string reason)

let retry_at = function
  | A.Admit -> Alcotest.fail "expected a denial"
  | A.Deny { retry_at; _ } -> retry_at

let test_admission_in_flight () =
  let a = A.create () in
  A.set_quota a ~tenant:"t" (quota ~in_flight:1 ());
  check_admit (A.admit a ~tenant:"t" ~now:0.);
  A.started a ~tenant:"t" ~finish_ms:100.;
  (match A.admit a ~tenant:"t" ~now:50. with
  | A.Deny { reason = A.In_flight { in_flight = 1; limit = 1; _ }; retry_at } ->
    Alcotest.(check (option (float 1e-9))) "retry at completion" (Some 100.) retry_at
  | A.Deny { reason; _ } -> Alcotest.failf "wrong reason: %s" (A.reason_to_string reason)
  | A.Admit -> Alcotest.fail "limit not enforced");
  check_admit (A.admit a ~tenant:"t" ~now:150.);
  (* other tenants are unaffected *)
  check_admit (A.admit a ~tenant:"other" ~now:50.)

let test_admission_budget () =
  let a = A.create () in
  A.set_quota a ~tenant:"t" (quota ~budget:100 ());
  check_admit (A.admit a ~tenant:"t" ~now:0.);
  A.charge a ~tenant:"t" ~now:0. ~bytes:150;
  (* post-paid: the overrun blocks the next admission until the window rolls *)
  (match A.admit a ~tenant:"t" ~now:10. with
  | A.Deny { reason = A.Ship_budget { used = 150; budget = 100; _ }; retry_at } ->
    Alcotest.(check (option (float 1e-9))) "retry at window end" (Some 1000.) retry_at
  | A.Deny { reason; _ } -> Alcotest.failf "wrong reason: %s" (A.reason_to_string reason)
  | A.Admit -> Alcotest.fail "budget not enforced");
  check_admit (A.admit a ~tenant:"t" ~now:1000.)

let test_admission_zero_budget () =
  let a = A.create () in
  A.set_quota a ~tenant:"t" (quota ~budget:0 ~on_deny:A.Queue ());
  Alcotest.(check (option (float 1e-9)))
    "a zero budget can never lift: no retry time" None
    (retry_at (A.admit a ~tenant:"t" ~now:0.))

let sched_env ?cache () =
  let cat = Fixture.catalog () in
  Sd.env ~catalog:cat ~database:(Fixture.data cat) ?cache ()

let two_session_script ~on_deny =
  let actions =
    List.map (fun t -> Sc.Add_policy t) Fixture.open_policies @ [ Sc.Submit Fixture.q ]
  in
  {
    Sc.seed = Some 1;
    tenants = [ ("t", quota ~in_flight:1 ~on_deny ()) ];
    sessions =
      [
        { Sc.sid = "s1"; tenant = "t"; actions };
        { Sc.sid = "s2"; tenant = "t"; actions };
      ];
  }

let test_scheduler_queueing () =
  let r = Sd.run ~env:(sched_env ()) (two_session_script ~on_deny:A.Queue) in
  Alcotest.(check int) "both completed" 2 r.Sd.ok;
  Alcotest.(check int) "none denied" 0 r.Sd.denied;
  let waited =
    List.filter (fun (s : Sd.stmt_record) -> s.Sd.started_ms > s.Sd.submitted_ms)
      r.Sd.statements
  in
  Alcotest.(check int) "one statement queued behind the other" 1 (List.length waited)

let test_scheduler_reject () =
  let r = Sd.run ~env:(sched_env ()) (two_session_script ~on_deny:A.Reject) in
  Alcotest.(check int) "one completed" 1 r.Sd.ok;
  Alcotest.(check int) "one denied" 1 r.Sd.denied;
  match
    List.find_opt
      (fun (s : Sd.stmt_record) ->
        match s.Sd.outcome with Sd.Denied _ -> true | _ -> false)
      r.Sd.statements
  with
  | Some { Sd.outcome = Sd.Denied { reason = A.In_flight _; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected an in-flight denial"

(* Directed retry_at coverage under the discrete-event clock: a queued
   statement must re-enter admission exactly at the denial's retry_at —
   the in-flight completion time or the window boundary — while a
   Reject tenant records the denial immediately, with zero retries. *)

let test_queue_retry_at_completion () =
  let r = Sd.run ~env:(sched_env ()) (two_session_script ~on_deny:A.Queue) in
  Alcotest.(check int) "both completed" 2 r.Sd.ok;
  let first, queued =
    match
      List.partition
        (fun (s : Sd.stmt_record) -> s.Sd.started_ms = s.Sd.submitted_ms)
        r.Sd.statements
    with
    | [ f ], [ q ] -> (f, q)
    | _ -> Alcotest.fail "expected exactly one queued statement"
  in
  (* retry_at of an in-flight denial is the blocking statement's
     completion; the queued statement starts exactly then, not later *)
  Alcotest.(check (float 1e-9)) "queued until the in-flight completion"
    first.Sd.finished_ms queued.Sd.started_ms;
  Alcotest.(check bool) "the wait is real" true
    (queued.Sd.started_ms > queued.Sd.submitted_ms)

let test_reject_records_denial_at_submission () =
  let r = Sd.run ~env:(sched_env ()) (two_session_script ~on_deny:A.Reject) in
  match
    List.find_opt
      (fun (s : Sd.stmt_record) ->
        match s.Sd.outcome with Sd.Denied _ -> true | _ -> false)
      r.Sd.statements
  with
  | Some ({ Sd.outcome = Sd.Denied { reason = A.In_flight _; retries }; _ } as s) ->
    Alcotest.(check int) "no retries under Reject" 0 retries;
    Alcotest.(check (float 1e-9)) "denied at submission time" s.Sd.submitted_ms
      s.Sd.finished_ms
  | _ -> Alcotest.fail "expected an in-flight denial"

(* Ship-budget boundary: the first statement's post-paid charge exhausts
   the window's budget, so the session's next submission is denied with
   retry_at at the window boundary. Queue mode re-admits exactly there;
   Reject mode records the denial. *)
let budget_script ~on_deny =
  {
    Sc.seed = Some 1;
    tenants = [ ("t", quota ~budget:1 ~window:1000. ~on_deny ()) ];
    sessions =
      [
        {
          Sc.sid = "s1";
          tenant = "t";
          actions =
            List.map (fun t -> Sc.Add_policy t) Fixture.open_policies
            @ [ Sc.Submit Fixture.q; Sc.Submit Fixture.q ];
        };
      ];
  }

let test_queue_retry_at_window () =
  let r = Sd.run ~env:(sched_env ()) (budget_script ~on_deny:A.Queue) in
  Alcotest.(check int) "both completed" 2 r.Sd.ok;
  let first = List.find (fun (s : Sd.stmt_record) -> s.Sd.seq = 0) r.Sd.statements in
  let second = List.find (fun (s : Sd.stmt_record) -> s.Sd.seq = 1) r.Sd.statements in
  (match first.Sd.outcome with
  | Sd.Done { shipped_bytes; _ } ->
    Alcotest.(check bool) "first overran the budget" true (shipped_bytes > 1)
  | _ -> Alcotest.fail "first statement should complete");
  Alcotest.(check (float 1e-9)) "submitted when the first completed"
    first.Sd.finished_ms second.Sd.submitted_ms;
  Alcotest.(check (float 1e-9)) "queued until the window boundary" 1000.
    second.Sd.started_ms

let test_reject_at_window_boundary () =
  let r = Sd.run ~env:(sched_env ()) (budget_script ~on_deny:A.Reject) in
  Alcotest.(check int) "first completed" 1 r.Sd.ok;
  Alcotest.(check int) "second denied" 1 r.Sd.denied;
  match
    List.find (fun (s : Sd.stmt_record) -> s.Sd.seq = 1) r.Sd.statements
  with
  | { Sd.outcome = Sd.Denied { reason = A.Ship_budget _; retries = 0 }; _ } -> ()
  | { Sd.outcome = Sd.Denied { reason; retries }; _ } ->
    Alcotest.failf "wrong denial: %s after %d retries" (A.reason_to_string reason)
      retries
  | _ -> Alcotest.fail "expected a ship-budget denial"

(* ---------------- scheduler determinism + differential ---------------- *)

let mix_script =
  let submits qs = List.map (fun i -> Sc.Submit (List.nth Fixture.query_pool i)) qs in
  {
    Sc.seed = None;
    tenants = [ ("t", quota ~in_flight:2 ~on_deny:A.Queue ()) ];
    sessions =
      [
        {
          Sc.sid = "s1";
          tenant = "t";
          actions = Sc.Set_policy_set "open" :: submits [ 0; 1; 0; 3 ];
        };
        {
          Sc.sid = "s2";
          tenant = "t";
          actions =
            (Sc.Set_policy_set "open" :: submits [ 0; 2 ])
            @ [ Sc.Set_policy_set "strict" ]
            @ submits [ 0; 0 ];
        };
        {
          Sc.sid = "s3";
          tenant = "u";
          actions = Sc.Set_policy_set "open" :: submits [ 3; 1; 0 ];
        };
      ];
  }

let mix_env ?cache () =
  let cat = Fixture.catalog () in
  Sd.env ~catalog:cat ~database:(Fixture.data cat) ?cache
    ~resolve_policy_set:(function
      | "strict" -> Some Fixture.strict_policies
      | "open" -> Some Fixture.open_policies
      | _ -> None)
    ()

let test_scheduler_deterministic () =
  let show r = Fmt.str "%a" Sd.pp_report r in
  let once = show (Sd.run ~env:(mix_env ()) ~seed:9 mix_script) in
  let again = show (Sd.run ~env:(mix_env ()) ~seed:9 mix_script) in
  Alcotest.(check string) "same seed, same report" once again

(* a statement's outcome without its cache flag: what cache-on and
   cache-off runs must agree on *)
let observed (s : Sd.stmt_record) =
  match s.Sd.outcome with
  | Sd.Done { plan_sig; result_sig; rows; shipped_bytes; _ } ->
    Printf.sprintf "done %s %s %d %d" plan_sig result_sig rows shipped_bytes
  | Sd.Failed e -> "failed " ^ Cgqp.error_to_string e
  | Sd.Denied { reason; _ } -> "denied " ^ A.reason_to_string reason

let test_scheduler_differential () =
  let key (s : Sd.stmt_record) = (s.Sd.sid, s.Sd.seq) in
  let cached =
    Sd.run ~env:(mix_env ~cache:(PC.create ()) ()) ~seed:(service_seed) mix_script
  in
  let plain = Sd.run ~env:(mix_env ()) ~seed:(service_seed) mix_script in
  Alcotest.(check int) "same statement count"
    (List.length plain.Sd.statements)
    (List.length cached.Sd.statements);
  List.iter
    (fun (s : Sd.stmt_record) ->
      match
        List.find_opt (fun p -> key p = key s) plain.Sd.statements
      with
      | None -> Alcotest.failf "statement %s#%d missing uncached" s.Sd.sid s.Sd.seq
      | Some p ->
        Alcotest.(check string)
          (Printf.sprintf "%s#%d identical" s.Sd.sid s.Sd.seq)
          (observed p) (observed s))
    cached.Sd.statements;
  (* the policy churn in the script must show up as both misses and
     invalidations — and still leave repeats to hit on *)
  match cached.Sd.cache with
  | None -> Alcotest.fail "no cache stats"
  | Some st ->
    Alcotest.(check bool) "hits happened" true (st.PC.hits > 0);
    Alcotest.(check bool) "churn invalidated" true (st.PC.invalidations > 0)

(* one width is left: any other is a caller bug, not a silent fallback *)
let test_scheduler_single_width () =
  Alcotest.check_raises "domains:2 rejected"
    (Invalid_argument
       "Scheduler.run: domains must be 1 (multicore serving was removed)")
    (fun () -> ignore (Sd.run ~env:(mix_env ()) ~seed:9 ~domains:2 mix_script))

(* Random scripts through the whole scheduler: sessions interleaving
   submits with policy churn and waits, under a fault schedule and each
   admission policy. Two properties at once: a same-seed rerun renders
   a byte-identical report, and the shared plan cache changes no
   statement's timing, plan, result or verdict. *)

type pstep = P_submit of int | P_pool of int | P_clear | P_wait of int

let pp_pstep = function
  | P_submit i -> Printf.sprintf "submit q%d" i
  | P_pool j -> Printf.sprintf "set-policies p%d" j
  | P_clear -> "clear-policies"
  | P_wait w -> Printf.sprintf "wait %d" w

type pcase = {
  steps : pstep list list;  (* one list per session *)
  case_seed : int;
  with_faults : bool;
  adm : int;  (* 0 unlimited, 1 in-flight 1 + queue, 2 in-flight 1 + reject *)
}

let gen_pcase =
  QCheck.Gen.(
    let step =
      frequency
        [
          (5, map (fun i -> P_submit i) (int_bound (List.length Fixture.query_pool - 1)));
          (1, map (fun j -> P_pool j) (int_bound (List.length Fixture.policy_pool - 1)));
          (1, return P_clear);
          (1, map (fun w -> P_wait (10 * (w + 1))) (int_bound 20));
        ]
    in
    map
      (fun (steps, case_seed, with_faults, adm) ->
        { steps; case_seed; with_faults; adm })
      (quad
         (list_size (int_range 2 3) (list_size (int_range 1 6) step))
         (int_bound 9999) bool (int_bound 2)))

let pp_pcase c =
  Printf.sprintf "seed=%d faults=%b adm=%d [%s]" c.case_seed c.with_faults
    c.adm
    (String.concat " | "
       (List.map (fun s -> String.concat "; " (List.map pp_pstep s)) c.steps))

let arb_pcase = QCheck.make ~print:pp_pcase gen_pcase

let presolve name =
  match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
  | Some j when String.length name > 1 && name.[0] = 'p' ->
    List.nth_opt Fixture.policy_pool j
  | _ -> None

let pscript c =
  let action = function
    | P_submit i -> Sc.Submit (List.nth Fixture.query_pool i)
    | P_pool j -> Sc.Set_policy_set (Printf.sprintf "p%d" j)
    | P_clear -> Sc.Clear_policies
    | P_wait w -> Sc.Wait (float_of_int w)
  in
  {
    Sc.seed = None;
    tenants =
      (match c.adm with
      | 0 -> []
      | 1 -> [ ("t", quota ~in_flight:1 ~on_deny:A.Queue ()) ]
      | _ -> [ ("t", quota ~in_flight:1 ~on_deny:A.Reject ()) ]);
    sessions =
      List.mapi
        (fun k steps ->
          {
            Sc.sid = Printf.sprintf "s%d" k;
            tenant = "t";
            actions = Sc.Set_policy_set "p0" :: List.map action steps;
          })
        c.steps;
  }

let run_pcase c ~cache =
  let cat = Fixture.catalog () in
  let env =
    Sd.env ~catalog:cat ~database:(Fixture.data cat)
      ?cache:(if cache then Some (PC.create ~capacity:8 ()) else None)
      ~faults:
        (if c.with_faults then
           Catalog.Network.Fault.make ~seed:5
             [ Catalog.Network.Fault.Link_down ("NA", "EU") ]
         else Catalog.Network.Fault.empty)
      ~resolve_policy_set:presolve ()
  in
  Sd.run ~env ~seed:c.case_seed (pscript c)

let show_report r =
  Fmt.str "%a" Sd.pp_report r ^ "\n" ^ Obs.Json.to_string (Sd.report_to_json r)

(* everything a statement record says except its cache flag *)
let stmt_sig (s : Sd.stmt_record) =
  Printf.sprintf "%s#%d [%h %h %h] %s" s.Sd.sid s.Sd.seq s.Sd.submitted_ms
    s.Sd.started_ms s.Sd.finished_ms (observed s)

let prop_random_scripts =
  QCheck.Test.make ~count:200
    ~name:"random scripts: same-seed rerun identical, cache-on sigs = cache-off"
    arb_pcase (fun c ->
      let cached = run_pcase c ~cache:true in
      let again = show_report (run_pcase c ~cache:true) in
      let plain = run_pcase c ~cache:false in
      let sigs r = String.concat "\n" (List.map stmt_sig r.Sd.statements) in
      if show_report cached <> again then
        QCheck.Test.fail_reportf
          "same-seed rerun diverged:\n%s\n=== first run ===\n%s" again
          (show_report cached)
      else if sigs cached <> sigs plain then
        QCheck.Test.fail_reportf
          "cache-on diverged from cache-off:\n%s\n=== cache-off ===\n%s"
          (sigs cached) (sigs plain)
      else true)

(* ---------------- script grammar ---------------- *)

let sample =
  "# sample workload
seed 7
tenant a max-inflight 2 ship-budget 4096 window 500 on-deny queue
open s1 tenant a policies CR
submit s1 Q3
policy s1 ship custkey, name from customer to EU
wait s1 100
mode s1 traditional
submit s1 SELECT name FROM customer
clear-policies s1
close s1
"

let test_script_parse () =
  match Sc.parse sample with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok t ->
    Alcotest.(check (option int)) "seed" (Some 7) t.Sc.seed;
    let q = List.assoc "a" t.Sc.tenants in
    Alcotest.(check (option int)) "max-inflight" (Some 2) q.A.max_in_flight;
    Alcotest.(check (option int)) "ship-budget" (Some 4096) q.A.ship_budget_bytes;
    Alcotest.(check bool) "on-deny queue" true (q.A.on_deny = A.Queue);
    (match t.Sc.sessions with
    | [ { Sc.sid = "s1"; tenant = "a"; actions } ] ->
      Alcotest.(check int) "actions (open-sugar included)" 7 (List.length actions);
      (match actions with
      | Sc.Set_policy_set "CR" :: _ -> ()
      | _ -> Alcotest.fail "open ... policies CR must lead with set-policies")
    | _ -> Alcotest.fail "expected one session")

let test_script_round_trip () =
  match Sc.parse sample with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok t -> (
    match Sc.parse (Sc.to_string t) with
    | Error m -> Alcotest.failf "re-parse failed: %s" m
    | Ok t' -> Alcotest.(check bool) "round-trips structurally" true (t = t'))

let test_script_errors () =
  let bad text frag =
    match Sc.parse text with
    | Ok _ -> Alcotest.failf "accepted: %S" text
    | Error m ->
      if not (Astring.String.is_infix ~affix:frag m) then
        Alcotest.failf "error %S does not mention %S" m frag
  in
  bad "submit ghost Q1" "line 1";
  bad "open s1
open s1" "line 2";
  bad "open s1
close s1
submit s1 Q1" "line 3";
  bad "frobnicate the cache" "line 1"

(* ---------------- policy catalog fingerprints ---------------- *)

let test_fingerprint () =
  let cat = Fixture.catalog () in
  let fp texts = Policy.Pcatalog.fingerprint (Policy.Pcatalog.of_texts cat texts) in
  Alcotest.(check int) "order-insensitive"
    (fp Fixture.open_policies)
    (fp (List.rev Fixture.open_policies));
  Alcotest.(check int) "duplicate-insensitive"
    (fp Fixture.open_policies)
    (fp (Fixture.open_policies @ Fixture.open_policies));
  Alcotest.(check bool) "content-sensitive" true
    (fp Fixture.open_policies <> fp Fixture.strict_policies);
  (* identity stamps still differ where content fingerprints agree *)
  let a = Policy.Pcatalog.of_texts cat Fixture.open_policies in
  let b = Policy.Pcatalog.of_texts cat Fixture.open_policies in
  Alcotest.(check bool) "stamp is identity, fingerprint is content" true
    (Policy.Pcatalog.stamp a <> Policy.Pcatalog.stamp b
    && Policy.Pcatalog.fingerprint a = Policy.Pcatalog.fingerprint b)

let test_add_policies_idempotent () =
  let s = Fixture.session () in
  let size0 = Policy.Pcatalog.size (Cgqp.policies s) in
  let fp0 = Policy.Pcatalog.fingerprint (Cgqp.policies s) in
  Cgqp.add_policies s Fixture.open_policies;
  Alcotest.(check int) "size unchanged" size0 (Policy.Pcatalog.size (Cgqp.policies s));
  Alcotest.(check int) "fingerprint unchanged" fp0
    (Policy.Pcatalog.fingerprint (Cgqp.policies s))

(* ---------------- runner ---------------- *)

let () =
  Fmt.epr "service seed: %d (set %s to replay)@." service_seed Storage.Seed.env_var;
  let rand = Random.State.make [| service_seed |] in
  Alcotest.run "service"
    [
      ( "cache",
        [
          Alcotest.test_case "hit on repeat" `Quick test_hit_on_repeat;
          Alcotest.test_case "sql normalization" `Quick test_normalization;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "mask fingerprint" `Quick test_mask_fingerprint;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "stale policy regression" `Quick test_stale_policy_regression;
          Alcotest.test_case "set_policy_catalog bumps" `Quick test_set_policy_catalog_bumps;
          Alcotest.test_case "failover mask reuse" `Quick test_failover_mask_reuse;
        ] );
      ("transparency", [ QCheck_alcotest.to_alcotest ~rand prop_transparent ]);
      ( "admission",
        [
          Alcotest.test_case "in-flight limit" `Quick test_admission_in_flight;
          Alcotest.test_case "byte budget window" `Quick test_admission_budget;
          Alcotest.test_case "zero budget is terminal" `Quick test_admission_zero_budget;
          Alcotest.test_case "scheduler queues" `Quick test_scheduler_queueing;
          Alcotest.test_case "scheduler rejects" `Quick test_scheduler_reject;
          Alcotest.test_case "queue retries at the in-flight completion" `Quick
            test_queue_retry_at_completion;
          Alcotest.test_case "reject records the denial at submission" `Quick
            test_reject_records_denial_at_submission;
          Alcotest.test_case "queue retries at the window boundary" `Quick
            test_queue_retry_at_window;
          Alcotest.test_case "reject at the window boundary" `Quick
            test_reject_at_window_boundary;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "deterministic replay" `Quick test_scheduler_deterministic;
          Alcotest.test_case "cache-on/off differential" `Quick test_scheduler_differential;
          Alcotest.test_case "one width only" `Quick test_scheduler_single_width;
          QCheck_alcotest.to_alcotest ~rand prop_random_scripts;
        ] );
      ( "script",
        [
          Alcotest.test_case "parse" `Quick test_script_parse;
          Alcotest.test_case "round trip" `Quick test_script_round_trip;
          Alcotest.test_case "errors name the line" `Quick test_script_errors;
        ] );
      ( "policies",
        [
          Alcotest.test_case "content fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "add_policies idempotent" `Quick test_add_policies_idempotent;
        ] );
    ]
