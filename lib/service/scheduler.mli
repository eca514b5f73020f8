(** Deterministic multi-session scheduler: interleaves N concurrent
    sessions on the simulated clock.

    Each session executes its script actions in order, closed-loop (a
    session submits its next statement when the previous one
    completes); different sessions overlap in simulated time, which is
    what admission control's in-flight and per-window limits bite on.
    The discrete-event loop always picks the session with the smallest
    ready time; ties are broken by a splitmix64 generator seeded from
    the run seed — the same seeding discipline as the fault scheduler —
    so contended runs replay bit-for-bit from [--seed] and compose with
    the chaos suite ([env.faults]).

    Statement latency is queueing delay plus the executed plan's
    simulated makespan; policy mutations and waits take zero simulated
    time. Admission denials follow the tenant's [on_deny] policy:
    [Queue] re-submits at the denial's [retry_at] (up to
    {!max_queue_retries} attempts), [Reject] records a [Denied]
    outcome. *)

type env = {
  catalog : Catalog.t;
  database : Storage.Database.t option;
      (** attached to every session; [None] makes every submit fail
          with [`Rejected] (optimize-only scripts are still useful for
          cache experiments) *)
  cache : Cgqp.Plan_cache.t option;  (** shared by all sessions *)
  template : bool option;
      (** [Some b] forces template-level caching on/off for every
          session; [None] (default) leaves each session's
          [CGQP_TEMPLATE_CACHE]-derived default in place *)
  feedback : Cgqp.Feedback.t option;
      (** shared cardinality-feedback store: every [Done] statement's
          scans are observed, and a fold installs the corrected catalog
          into {e all} sessions (stamp lockstep for the shared cache)
          and bumps the shared cache's epoch exactly once. *)
  faults : Catalog.Network.Fault.schedule;
  retry : Exec.Interp.retry_policy;
  engine : Exec.Engine.t;
      (** executor every session runs on (reference interpreter or the
          vectorized engine — byte-identical, see [docs/EXECUTOR.md]) *)
  resolve_query : string -> string;
      (** maps a submitted name (e.g. [Q3]) to SQL; identity for plain
          SQL *)
  resolve_policy_set : string -> string list option;
      (** maps a [set-policies] name (e.g. [CR]) to policy texts *)
}

val env :
  ?database:Storage.Database.t ->
  ?cache:Cgqp.Plan_cache.t ->
  ?template:bool ->
  ?feedback:Cgqp.Feedback.t ->
  ?faults:Catalog.Network.Fault.schedule ->
  ?retry:Exec.Interp.retry_policy ->
  ?engine:Exec.Engine.t ->
  ?resolve_query:(string -> string) ->
  ?resolve_policy_set:(string -> string list option) ->
  catalog:Catalog.t ->
  unit ->
  env
(** Environment with identity resolvers, no cache and no faults unless
    given; [engine] defaults to {!Exec.Engine.default} (honoring
    [CGQP_ENGINE]). *)

val max_queue_retries : int
(** Re-admission attempts before a queued statement is recorded as
    denied (100). *)

type cache_flag =
  | Hit  (** served entirely from the plan cache *)
  | Miss  (** at least one optimizer invocation ran *)
  | Off  (** no cache attached *)

type outcome =
  | Done of {
      rows : int;
      shipped_bytes : int;
      makespan_ms : float;
      failovers : int;
      cache : cache_flag;
      plan_sig : string;  (** digest of the executed plan's rendering *)
      result_sig : string;  (** digest of the result relation's CSV *)
    }
  | Failed of Cgqp.error
  | Denied of { reason : Admission.reason; retries : int }

type stmt_record = {
  sid : string;
  tenant : string;
  seq : int;  (** statement index within the session, 0-based *)
  sql : string;  (** resolved SQL *)
  submitted_ms : float;  (** first admission attempt *)
  started_ms : float;  (** admission time ([= submitted_ms] unless queued) *)
  finished_ms : float;
  outcome : outcome;
}

type report = {
  seed : int;
  statements : stmt_record list;  (** in execution order *)
  makespan_ms : float;  (** when the last session went idle *)
  ok : int;
  rejected : int;
  unsatisfiable : int;
  denied : int;
  failed : int;  (** parse/bind errors *)
  cache : Cgqp.Plan_cache.stats option;
      (** the shared cache's counter deltas over this run *)
  p50_ms : float;  (** latency percentiles over [Done] statements (0 if none) *)
  p95_ms : float;
}

val run : env:env -> ?seed:int -> ?domains:int -> Script.t -> report
(** Execute a workload script. The effective seed is [seed] if given,
    else the script's own [seed] statement, else
    {!Storage.Seed.resolve} — and it is reported back in
    [report.seed]. Raises [Invalid_argument] on unresolvable policy
    sets or malformed policy texts (script bugs, not workload
    outcomes).

    Statements run inline, one at a time, on the calling domain: each
    admitted [Submit] is one {!Cgqp.run} on its session.

    [domains] stays only for source compatibility with callers that
    pass [~domains:1] (the benchmark suite in [bench/suite] does): the
    scheduler has one width. Raises [Invalid_argument] for any other
    value. *)

val hit_rate : report -> float
(** [hits / (hits + misses)] of the run's cache deltas (0 with no cache
    or no lookups). Template hits count as hits. *)

val template_hit_rate : report -> float
(** [template_hits / (template_hits + template_misses)] of the run's
    cache deltas (0 with no cache or no template lookups). *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable summary: per-statement lines, then aggregates. *)

val report_to_json : report -> Obs.Json.t
