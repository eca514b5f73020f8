(* Deterministic multi-session scheduler over the simulated clock.
   Discrete-event: the session with the smallest ready time acts next,
   ties broken by a splitmix64 stream seeded from the run seed (the
   fault scheduler's discipline), so a contended run replays
   bit-for-bit from its seed. See scheduler.mli and docs/SERVICE.md. *)

type env = {
  catalog : Catalog.t;
  database : Storage.Database.t option;
  cache : Cgqp.Plan_cache.t option;
  template : bool option;
  feedback : Cgqp.Feedback.t option;
  faults : Catalog.Network.Fault.schedule;
  retry : Exec.Interp.retry_policy;
  engine : Exec.Engine.t;
  resolve_query : string -> string;
  resolve_policy_set : string -> string list option;
}

let env ?database ?cache ?template ?feedback
    ?(faults = Catalog.Network.Fault.empty)
    ?(retry = Exec.Interp.default_retry) ?engine ?(resolve_query = fun s -> s)
    ?(resolve_policy_set = fun _ -> None) ~catalog () =
  let engine =
    match engine with Some e -> e | None -> Exec.Engine.default ()
  in
  {
    catalog;
    database;
    cache;
    template;
    feedback;
    faults;
    retry;
    engine;
    resolve_query;
    resolve_policy_set;
  }

let max_queue_retries = 100

type cache_flag = Hit | Miss | Off

type outcome =
  | Done of {
      rows : int;
      shipped_bytes : int;
      makespan_ms : float;
      failovers : int;
      cache : cache_flag;
      plan_sig : string;
      result_sig : string;
    }
  | Failed of Cgqp.error
  | Denied of { reason : Admission.reason; retries : int }

type stmt_record = {
  sid : string;
  tenant : string;
  seq : int;
  sql : string;
  submitted_ms : float;
  started_ms : float;
  finished_ms : float;
  outcome : outcome;
}

type report = {
  seed : int;
  statements : stmt_record list;
  makespan_ms : float;
  ok : int;
  rejected : int;
  unsatisfiable : int;
  denied : int;
  failed : int;
  cache : Cgqp.Plan_cache.stats option;
  p50_ms : float;
  p95_ms : float;
}

let c_statements = Obs.Metrics.counter "cgqp_service_statements_total"
let h_latency = Obs.Metrics.histogram "cgqp_service_latency_ms"

(* Live session state of the event loop. *)
type live = {
  spec : Script.session_spec;
  cg : Cgqp.session;
  mutable actions : Script.action list;
  mutable ready : float;  (* simulated time of the next action *)
  mutable seq : int;  (* submitted-statement counter *)
  mutable retries : int;  (* re-admissions of the queued head statement *)
  mutable submitted_at : float option;  (* first admission attempt of the head *)
}

(* nearest-rank percentile over Done latencies *)
let percentile p xs =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let hit_rate r =
  match r.cache with
  | Some { Cgqp.Plan_cache.hits; misses; _ } when hits + misses > 0 ->
    float_of_int hits /. float_of_int (hits + misses)
  | _ -> 0.

let template_hit_rate r =
  match r.cache with
  | Some { Cgqp.Plan_cache.template_hits = th; template_misses = tm; _ }
    when th + tm > 0 ->
    float_of_int th /. float_of_int (th + tm)
  | _ -> 0.

let run ~env ?seed ?(domains = 1) (script : Script.t) : report =
  if domains <> 1 then
    invalid_arg "Scheduler.run: domains must be 1 (multicore serving was removed)";
  let seed =
    match seed with
    | Some s -> s
    | None -> (
      match script.Script.seed with
      | Some s -> s
      | None -> Storage.Seed.resolve ())
  in
  let prng = Storage.Prng.create ~seed in
  let adm = Admission.create () in
  List.iter
    (fun (tenant, quota) -> Admission.set_quota adm ~tenant quota)
    script.Script.tenants;
  let mk_live spec =
    let cg = Cgqp.create ~catalog:env.catalog () in
    Option.iter (Cgqp.attach_database cg) env.database;
    Cgqp.set_faults cg env.faults;
    Cgqp.set_retry cg env.retry;
    Cgqp.set_engine cg env.engine;
    Option.iter (Cgqp.set_template_cache cg) env.template;
    Cgqp.set_plan_cache cg env.cache;
    {
      spec;
      cg;
      actions = spec.Script.actions;
      ready = 0.;
      seq = 0;
      retries = 0;
      submitted_at = None;
    }
  in
  let sessions = List.map mk_live script.Script.sessions in
  let cache_before = Option.map Cgqp.Plan_cache.stats env.cache in
  let records = ref [] (* reversed *) in
  let makespan = ref 0. in
  let record r =
    records := r :: !records;
    makespan := Float.max !makespan r.finished_ms;
    Obs.Metrics.inc c_statements
  in
  (* cache flag from the shared cache's counter movement around one
     statement: a pure [Hit] did not run the optimizer at all *)
  let with_cache_flag f =
    match env.cache with
    | None ->
      let r = f () in
      (r, Off)
    | Some c ->
      let s0 = Cgqp.Plan_cache.stats c in
      let r = f () in
      let s1 = Cgqp.Plan_cache.stats c in
      let flag =
        if s1.Cgqp.Plan_cache.misses = s0.Cgqp.Plan_cache.misses
           && s1.Cgqp.Plan_cache.hits > s0.Cgqp.Plan_cache.hits
        then Hit
        else Miss
      in
      (r, flag)
  in
  let exec_submit (s : live) raw =
    let now = s.ready in
    let sql = env.resolve_query raw in
    let tenant = s.spec.Script.tenant in
    let submitted = Option.value s.submitted_at ~default:now in
    let finish_stmt outcome ~finished =
      record
        {
          sid = s.spec.Script.sid;
          tenant;
          seq = s.seq;
          sql;
          submitted_ms = submitted;
          started_ms = now;
          finished_ms = finished;
          outcome;
        };
      s.seq <- s.seq + 1;
      s.retries <- 0;
      s.submitted_at <- None;
      s.actions <- List.tl s.actions
    in
    match Admission.admit adm ~tenant ~now with
    | Admission.Deny { reason; retry_at } -> (
      let quota = Admission.quota_of adm ~tenant in
      match retry_at with
      | Some t
        when quota.Admission.on_deny = Admission.Queue
             && s.retries < max_queue_retries && t > now ->
        (* stay at the head of the queue; re-attempt when the denial
           can lift *)
        s.retries <- s.retries + 1;
        s.submitted_at <- Some submitted;
        s.ready <- t
      | _ -> finish_stmt (Denied { reason; retries = s.retries }) ~finished:now)
    | Admission.Admit -> (
      let result, cache = with_cache_flag (fun () -> Cgqp.run s.cg sql) in
      match result with
      | Error e ->
        (* optimizer-time failures cost no simulated time: the plan
           never executed *)
        finish_stmt (Failed e) ~finished:now
      | Ok r ->
        let makespan_ms = r.Cgqp.makespan_ms in
        let finished = now +. makespan_ms in
        Admission.started adm ~tenant ~finish_ms:finished;
        Admission.charge adm ~tenant ~now ~bytes:r.Cgqp.shipped_bytes;
        (* cardinality feedback (shared store): observe the executed
           scans; on a fold, install the one corrected catalog into
           every live session — they must stay in stamp lockstep for
           the shared cache's keys to make sense — and bump the shared
           epoch exactly once *)
        (match env.feedback with
        | None -> ()
        | Some fb -> (
          Cgqp.Feedback.observe fb ~cat:(Cgqp.catalog s.cg) ~plan:r.Cgqp.plan
            ~profile:r.Cgqp.interp.Exec.Interp.profile;
          match Cgqp.Feedback.fold fb (Cgqp.catalog s.cg) with
          | None -> ()
          | Some cat' ->
            List.iter (fun l -> Cgqp.set_catalog l.cg cat') sessions;
            Option.iter
              (Cgqp.Plan_cache.bump_epoch ~reason:"feedback")
              env.cache));
        Obs.Metrics.observe h_latency (finished -. submitted);
        finish_stmt
          (Done
             {
               rows = Storage.Relation.cardinality r.Cgqp.relation;
               shipped_bytes = r.Cgqp.shipped_bytes;
               makespan_ms;
               failovers = r.Cgqp.recovery.Cgqp.failovers;
               cache;
               plan_sig = Digest.to_hex (Digest.string (Exec.Pplan.to_string r.Cgqp.plan));
               result_sig =
                 Digest.to_hex (Digest.string (Storage.Relation.to_csv r.Cgqp.relation));
             })
          ~finished;
        s.ready <- finished)
  in
  let exec_action (s : live) = function
    | Script.Submit raw -> exec_submit s raw
    | Script.Add_policy text ->
      Cgqp.add_policies s.cg [ text ];
      s.actions <- List.tl s.actions
    | Script.Set_policy_set name -> (
      match env.resolve_policy_set name with
      | Some texts ->
        Cgqp.set_policy_catalog s.cg (Policy.Pcatalog.of_texts env.catalog texts);
        s.actions <- List.tl s.actions
      | None -> invalid_arg (Printf.sprintf "unknown policy set %S" name))
    | Script.Clear_policies ->
      Cgqp.clear_policies s.cg;
      s.actions <- List.tl s.actions
    | Script.Set_mode m ->
      Cgqp.set_mode s.cg m;
      s.actions <- List.tl s.actions
    | Script.Wait ms ->
      s.ready <- s.ready +. ms;
      s.actions <- List.tl s.actions
  in
  let rec loop () =
    let alive = List.filter (fun s -> s.actions <> []) sessions in
    match alive with
    | [] -> ()
    | _ ->
      let min_ready =
        List.fold_left (fun acc s -> Float.min acc s.ready) infinity alive
      in
      let ties = List.filter (fun s -> s.ready = min_ready) alive in
      let s =
        match ties with
        | [ s ] -> s
        | ties -> List.nth ties (Storage.Prng.int prng (List.length ties))
      in
      exec_action s (List.hd s.actions);
      loop ()
  in
  loop ();
  let statements = List.rev !records in
  let count f = List.length (List.filter f statements) in
  let cache =
    match (cache_before, env.cache) with
    | Some b, Some c ->
      let a = Cgqp.Plan_cache.stats c in
      Some
        {
          Cgqp.Plan_cache.hits = a.Cgqp.Plan_cache.hits - b.Cgqp.Plan_cache.hits;
          misses = a.Cgqp.Plan_cache.misses - b.Cgqp.Plan_cache.misses;
          invalidations =
            a.Cgqp.Plan_cache.invalidations - b.Cgqp.Plan_cache.invalidations;
          evictions = a.Cgqp.Plan_cache.evictions - b.Cgqp.Plan_cache.evictions;
          template_hits =
            a.Cgqp.Plan_cache.template_hits - b.Cgqp.Plan_cache.template_hits;
          template_misses =
            a.Cgqp.Plan_cache.template_misses
            - b.Cgqp.Plan_cache.template_misses;
        }
    | _ -> None
  in
  let latencies =
    List.filter_map
      (fun r ->
        match r.outcome with
        | Done _ -> Some (r.finished_ms -. r.submitted_ms)
        | _ -> None)
      statements
  in
  {
    seed;
    statements;
    makespan_ms = !makespan;
    ok = count (fun r -> match r.outcome with Done _ -> true | _ -> false);
    rejected =
      count (fun r -> match r.outcome with Failed (`Rejected _) -> true | _ -> false);
    unsatisfiable =
      count (fun r ->
          match r.outcome with Failed (`Unsatisfiable _) -> true | _ -> false);
    denied = count (fun r -> match r.outcome with Denied _ -> true | _ -> false);
    failed =
      count (fun r ->
          match r.outcome with
          | Failed (`Parse _ | `Bind _) -> true
          | _ -> false);
    cache;
    p50_ms = percentile 50. latencies;
    p95_ms = percentile 95. latencies;
  }

let outcome_label = function
  | Done { cache = Hit; _ } -> "ok(hit)"
  | Done { cache = Miss; _ } -> "ok(miss)"
  | Done { cache = Off; _ } -> "ok"
  | Failed (`Rejected _) -> "rejected"
  | Failed (`Unsatisfiable _) -> "unsatisfiable"
  | Failed (`Parse _) -> "parse-error"
  | Failed (`Bind _) -> "bind-error"
  | Denied _ -> "denied"

let pp_report ppf r =
  Fmt.pf ppf "serve report (seed %d): %d statements in %.2f simulated ms@."
    r.seed (List.length r.statements) r.makespan_ms;
  List.iter
    (fun s ->
      Fmt.pf ppf "  [%8.2f -> %8.2f] %s/%s #%d %-13s %s@." s.started_ms s.finished_ms
        s.tenant s.sid s.seq (outcome_label s.outcome)
        (match s.outcome with
        | Done d ->
          Fmt.str "%d rows, %d bytes shipped, %.2f ms%s" d.rows d.shipped_bytes
            d.makespan_ms
            (if d.failovers > 0 then Fmt.str " (%d failovers)" d.failovers else "")
        | Failed e -> Cgqp.error_to_string e
        | Denied { reason; retries } ->
          Fmt.str "%s after %d retries" (Admission.reason_to_string reason) retries))
    r.statements;
  Fmt.pf ppf "  ok %d, rejected %d, unsatisfiable %d, denied %d, errors %d@." r.ok
    r.rejected r.unsatisfiable r.denied r.failed;
  (match r.cache with
  | Some c ->
    let total = c.Cgqp.Plan_cache.hits + c.Cgqp.Plan_cache.misses in
    Fmt.pf ppf "  cache: %d/%d hits (%.1f%%), %d invalidations, %d evictions@."
      c.Cgqp.Plan_cache.hits total
      (100. *. hit_rate r)
      c.Cgqp.Plan_cache.invalidations c.Cgqp.Plan_cache.evictions;
    let tlooks =
      c.Cgqp.Plan_cache.template_hits + c.Cgqp.Plan_cache.template_misses
    in
    if tlooks > 0 then
      Fmt.pf ppf "  template: %d/%d hits (%.1f%%)@."
        c.Cgqp.Plan_cache.template_hits tlooks
        (100. *. template_hit_rate r)
  | None -> Fmt.pf ppf "  cache: off@.");
  Fmt.pf ppf "  latency p50 %.2f ms, p95 %.2f ms@." r.p50_ms r.p95_ms

let report_to_json r =
  let open Obs.Json in
  let stmt s =
    Obj
      [
        ("sid", Str s.sid);
        ("tenant", Str s.tenant);
        ("seq", Num (float_of_int s.seq));
        ("sql", Str s.sql);
        ("submitted_ms", Num s.submitted_ms);
        ("started_ms", Num s.started_ms);
        ("finished_ms", Num s.finished_ms);
        ("outcome", Str (outcome_label s.outcome));
        ( "detail",
          match s.outcome with
          | Done d ->
            Obj
              [
                ("rows", Num (float_of_int d.rows));
                ("shipped_bytes", Num (float_of_int d.shipped_bytes));
                ("makespan_ms", Num d.makespan_ms);
                ("failovers", Num (float_of_int d.failovers));
                ("plan_sig", Str d.plan_sig);
                ("result_sig", Str d.result_sig);
              ]
          | Failed e -> Str (Cgqp.error_to_string e)
          | Denied { reason; retries } ->
            Obj
              [
                ("reason", Str (Admission.reason_to_string reason));
                ("retries", Num (float_of_int retries));
              ] );
      ]
  in
  Obj
    [
      ("seed", Num (float_of_int r.seed));
      ("makespan_ms", Num r.makespan_ms);
      ("ok", Num (float_of_int r.ok));
      ("rejected", Num (float_of_int r.rejected));
      ("unsatisfiable", Num (float_of_int r.unsatisfiable));
      ("denied", Num (float_of_int r.denied));
      ("failed", Num (float_of_int r.failed));
      ( "cache",
        match r.cache with
        | None -> Null
        | Some c ->
          Obj
            [
              ("hits", Num (float_of_int c.Cgqp.Plan_cache.hits));
              ("misses", Num (float_of_int c.Cgqp.Plan_cache.misses));
              ("invalidations", Num (float_of_int c.Cgqp.Plan_cache.invalidations));
              ("evictions", Num (float_of_int c.Cgqp.Plan_cache.evictions));
              ("hit_rate", Num (hit_rate r));
              ("template_hits", Num (float_of_int c.Cgqp.Plan_cache.template_hits));
              ( "template_misses",
                Num (float_of_int c.Cgqp.Plan_cache.template_misses) );
              ("template_hit_rate", Num (template_hit_rate r));
            ] );
      ("p50_ms", Num r.p50_ms);
      ("p95_ms", Num r.p95_ms);
      ("statements", Arr (List.map stmt r.statements));
    ]
