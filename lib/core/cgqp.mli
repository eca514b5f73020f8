(** Compliant geo-distributed query processing — the end-to-end system
    of the paper (Figure 2).

    A {!session} bundles the geo-distributed catalog, the policy catalog
    populated by the data officers' policy expressions, and (optionally)
    the physical data. Queries submitted as SQL are parsed, bound,
    optimized by the compliance-based two-phase optimizer, certified,
    and executed against the in-memory engine with simulated wide-area
    SHIP costs.

    {[
      let session = Cgqp.create ~catalog () in
      Cgqp.add_policies session
        [ "ship custkey, name from customer to Europe" ];
      match Cgqp.run session "SELECT ..." with
      | Ok r -> ...
      | Error (`Rejected reason) -> ...
    ]} *)

(** The policy-epoch plan cache (the serving layer's reuse of certified
    plans). Attach one with {!set_plan_cache}; policy mutations on the
    session bump its epoch automatically. *)
module Plan_cache : module type of Plan_cache

(** The cardinality-feedback store (est-vs-actual folding back into
    catalog statistics). Attach one with {!set_feedback}; see
    [docs/FEEDBACK.md]. *)
module Feedback : module type of Feedback

type session

type error =
  [ `Parse of string  (** SQL or policy syntax error *)
  | `Bind of string  (** unknown table/column, ambiguity *)
  | `Rejected of string
    (** no compliant plan exists — the "reject" arrow of Figure 2 *)
  | `Unsatisfiable of string
    (** a compliant plan existed, but no compliant alternative survives
        the permanent failures encountered at execution time. The
        degradation path never falls back to a non-compliant plan: it
        aborts instead. *) ]

type recovery = Optimizer.Explain.recovery = {
  failovers : int;  (** failover re-plans performed during the run *)
  masked_links : (Catalog.Location.t * Catalog.Location.t) list;
      (** undirected links masked as down while re-planning *)
  masked_sites : Catalog.Location.t list;
  masked_replicas : (string * Catalog.Location.t) list;
      (** (table, site) replicas masked as stale while re-planning —
          a stale copy fails over to a fresh compliant sibling before
          any whole-site mask is considered *)
}
(** What the degradation path did to complete a run (all zero/empty on
    a healthy run). *)

type run_result = {
  relation : Storage.Relation.t;  (** the query's answer *)
  plan : Exec.Pplan.t;  (** the executed placed plan *)
  ship_cost_ms : float;  (** simulated network cost actually incurred *)
  shipped_bytes : int;
  makespan_ms : float;  (** simulated response time (critical path) *)
  planned : Optimizer.Planner.planned;  (** full optimizer output *)
  interp : Exec.Interp.result;
      (** raw executor output, including the per-node profile that
          {!explain_analyze} renders *)
  recovery : recovery;
}

val create : ?database:Storage.Database.t -> catalog:Catalog.t -> unit -> session

val set_mode : session -> Optimizer.Memo.mode -> unit
(** Switch between the compliance-based optimizer (default) and the
    purely cost-based baseline. *)

val catalog : session -> Catalog.t

val set_catalog : session -> Catalog.t -> unit
(** Install a replacement catalog — the cardinality-feedback fold path
    ({!set_feedback}, [Service.Scheduler]). No epoch bump happens here:
    cache keys carry the catalog stamp, so entries certified under the
    old catalog can never be served; the feedback paths bump the epoch
    themselves (exactly once per fold) to purge them eagerly. *)

val policies : session -> Policy.Pcatalog.t

val set_faults : session -> Catalog.Network.Fault.schedule -> unit
(** Install the fault schedule {!run} executes under (default empty —
    and an empty schedule makes {!run} byte-identical to a session that
    never heard of faults). The planner stays oblivious: faults are
    runtime surprises, handled by retries and compliant failover. *)

val faults : session -> Catalog.Network.Fault.schedule

val set_retry : session -> Exec.Interp.retry_policy -> unit
(** Tune SHIP retry/backoff (default {!Exec.Interp.default_retry}). *)

val retry : session -> Exec.Interp.retry_policy

val set_engine : session -> Exec.Engine.t -> unit
(** Choose which executor {!run} uses: the vectorized engine (default)
    or the row-at-a-time reference interpreter. Both are byte-identical
    on results, SHIP accounting and profiles (see
    [docs/EXECUTOR.md]); sessions start from
    {!Exec.Engine.default}, which honors the [CGQP_ENGINE] environment
    variable. *)

val engine : session -> Exec.Engine.t

val set_mem_budget : session -> int option -> unit
(** Byte-accounted memory budget for the executor: hash join/aggregation
    spill to disk (Grace-style, byte-identical results — see
    [docs/STORAGE.md]) when their scratch state would trip it. [None]
    (the default) defers to the [CGQP_MEM_BUDGET] environment variable
    at execution time; [Some Exec.Runtime.unlimited_budget] disables
    accounting outright. *)

val mem_budget : session -> int option

val set_plan_cache : session -> Plan_cache.t option -> unit
(** Attach (or detach, with [None]) a plan cache. {!optimize} and
    {!run} then reuse certified optimizer outcomes keyed by
    (normalized SQL, policy fingerprint, catalog stamp, failover mask,
    mode); every policy mutation ({!add_policies}, {!clear_policies},
    {!set_policy_catalog}) bumps the cache's epoch, purging all
    entries. The cache may be shared between sessions — the serving
    layer's multi-tenant setup (see [docs/SERVICE.md]). Default:
    [None], the paper's one-shot behavior. *)

val plan_cache : session -> Plan_cache.t option

val set_template_cache : session -> bool -> unit
(** Enable template-level caching on the attached plan cache: lookups
    first try the literal-normalized template table
    ([Sqlfront.Normalizer] template + parameter fingerprint over the
    compliance-sensitive literals), falling back to the exact key. A
    template hit substitutes the bound literals into the stored plan
    and is byte-identical to a fresh optimization
    ([test/test_feedback.ml]'s transparency property). Defaults to the
    [CGQP_TEMPLATE_CACHE] environment variable; a no-op without an
    attached cache. *)

val template_cache : session -> bool

val set_feedback : session -> Feedback.t option -> unit
(** Attach (or detach) a cardinality-feedback store. After every
    successful {!run}, executed scan cardinalities are
    {!Feedback.observe}d; when {!Feedback.fold} fires, the corrected
    catalog replaces the session's ({!set_catalog}) and the attached
    plan cache's epoch is bumped exactly once (reason ["feedback"]),
    so subsequent submissions re-optimize under the corrected
    statistics. The serving scheduler wires a shared store across
    sessions itself — use [Service.Scheduler.env ?feedback] there. *)

val feedback : session -> Feedback.t option

val attach_database : session -> Storage.Database.t -> unit

val add_policies : session -> string list -> unit
(** Parse and install policy expressions (the data officer's offline
    step). Raises [Invalid_argument] on malformed statements.
    Idempotent for duplicate statements: structurally equal expressions
    are installed once, so re-adding a policy changes neither the
    catalog's fingerprint nor the evaluator's work. Bumps the attached
    plan cache's epoch. *)

val clear_policies : session -> unit

val set_policy_catalog : session -> Policy.Pcatalog.t -> unit
(** Install a pre-built policy catalog wholesale (e.g. one preprocessed
    by {!Policy.Negation}). *)

val plan_of_sql : session -> string -> (Relalg.Plan.t, error) result
(** Parse and bind only. *)

val optimize : session -> string -> (Optimizer.Planner.planned, error) result

val is_legal : session -> string -> bool
(** Does the query admit at least one compliant execution plan under
    the session's policies? *)

val run : session -> string -> (run_result, error) result
(** Optimize and execute. Requires an attached database.

    Execution runs under the session's fault schedule ({!set_faults}).
    Transient drops and timeouts are retried per {!retry}; when a SHIP
    fails permanently, the session masks the failed link or site,
    re-invokes the full compliance-based optimizer against the masked
    network, and fails over to the cheapest plan that is still
    compliant. Each failover increments
    [cgqp_exec_ship_failovers_total] and is recorded in
    [run_result.recovery]; if no compliant alternative exists the run
    returns [`Unsatisfiable] rather than ship data a policy forbids. *)

val explain : session -> string -> (string, error) result
(** Optimize only and render the {!Optimizer.Explain} plan tree —
    execution sites, estimated rows, SHIP sizes and compliance
    verdicts. *)

val explain_analyze : session -> string -> (string, error) result
(** Optimize, execute, and render the plan tree annotated with actual
    per-operator row counts, SHIP bytes and simulated transfer costs.
    Requires an attached database. *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string
