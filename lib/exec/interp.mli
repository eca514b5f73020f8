(** Reference interpreter for placed physical plans.

    Row-at-a-time operator kernels over boxed relations, kept as the
    semantic baseline: the vectorized executor ({!Vector}) is
    differentially tested against it and must produce byte-identical
    results, SHIP accounting and profiles (see [docs/EXECUTOR.md]).
    Both engines run the same plan walk ({!Runtime.compile}); they
    differ only in their kernels. Use {!Engine.run} to select an
    engine; this module re-exports the shared {!Runtime} scaffolding,
    so [Exec.Interp.Ship_failed] is the {e same} exception either
    engine raises.

    Executes bottom-up against a {!Storage.Database.t} and accounts the
    bytes, rows and simulated cost of every SHIP operator under the
    message cost model (§7.4 of the paper). SHIPs optionally run under
    a deterministic {!Catalog.Network.Fault.schedule}: transient drops
    and per-attempt timeouts are retried with capped exponential
    backoff on the simulated clock; permanent link/site outages (or
    exhausted retry budgets) raise {!Ship_failed}, which the session
    layer turns into a compliant failover re-plan (see [Cgqp.run] and
    [docs/FAULTS.md]). *)

type ship_record = Runtime.ship_record = {
  from_loc : Catalog.Location.t;
  to_loc : Catalog.Location.t;
  bytes : int;  (** serialized size of the shipped relation *)
  rows : int;
  cost_ms : float;
      (** simulated transfer time under the message cost model,
          including failed attempts and backoff waits *)
  attempts : int;  (** 1 = first try succeeded; [n > 1] means [n-1] retries *)
}
(** One executed SHIP: an intermediate result crossing sites. *)

type stats = Runtime.stats = {
  mutable ships : ship_record list;
  mutable rows_processed : int;  (** total rows materialized, all operators *)
  mutable ship_retries : int;  (** total retried attempts across all ships *)
}

type retry_policy = Runtime.retry_policy = {
  max_attempts : int;  (** total tries per SHIP (>= 1) *)
  base_backoff_ms : float;
      (** backoff before retry [k] is [base * 2^(k-1)], capped below *)
  max_backoff_ms : float;
  attempt_timeout_ms : float;
      (** an attempt whose simulated transfer time exceeds this is
          abandoned (charged the timeout) and retried *)
  budget_ms : float;
      (** simulated-clock budget per SHIP, backoffs included; exceeding
          it raises {!Ship_failed} with [`Budget_exhausted] *)
}

val default_retry : retry_policy
(** 4 attempts, 50 ms base backoff capped at 1600 ms, no per-attempt
    timeout, unlimited budget. *)

type ship_failure = Runtime.ship_failure

exception
  Ship_failed of {
    from_loc : Catalog.Location.t;
    to_loc : Catalog.Location.t;
    attempts : int;
    reason : ship_failure;
  }
(** A SHIP could not complete under the fault schedule. The degradation
    path masks the link (or site) and re-plans; plain callers see the
    exception. Same constructor as {!Runtime.Ship_failed} — handlers
    catch it whichever engine raised. *)

val ship_failure_to_string : ship_failure -> string

exception
  Replica_stale of {
    table : string;
    partition : int;
    site : Catalog.Location.t;
  }
(** The copy of [table]/[partition] the plan reads at [site] is stale
    under the fault schedule ([replica-lag]). The degradation path
    masks the replica and re-plans onto a fresh compliant sibling.
    Same constructor as {!Runtime.Replica_stale} — handlers catch it
    whichever engine raised. *)

(** Per-operator execution profile. [path] is the node's position in
    the plan tree as the list of child indices from the root (the root
    itself is [[]]), which is how [Optimizer.Explain] matches actuals
    back to plan nodes for EXPLAIN ANALYZE. *)
type node_profile = Runtime.node_profile = {
  path : int list;
  label : string;  (** {!Pplan.node_label} of the operator *)
  actual_rows : int;
  actual_bytes : int;  (** materialized output size *)
  ship : ship_record option;  (** set iff the operator is a SHIP *)
}

type result = Runtime.result = {
  relation : Storage.Relation.t;
  stats : stats;
  profile : node_profile list;  (** execution (post-) order *)
  makespan_ms : float;
      (** simulated response time: sibling subtrees proceed in parallel,
          transfers follow the message cost model, local processing is
          charged per materialized row *)
}

val row_cost_ms : float
(** Simulated local processing cost per materialized row (ms). *)

val total_ship_cost : stats -> float
(** Sum of {!ship_record.cost_ms} over all ships (the total-cost
    objective's measured counterpart; compare [result.makespan_ms]). *)

val total_ship_bytes : stats -> int
(** Sum of {!ship_record.bytes} over all ships — payload bytes, each
    counted once regardless of retries. *)

val total_traffic_bytes : stats -> int
(** Bytes the network actually carried: each ship's payload times its
    attempt count. Equals {!total_ship_bytes} on a retry-free run. *)

exception Runtime_error of string
(** Malformed plans (wrong arity, missing relations), or a spill
    directory in which a run file cannot be created; same constructor
    as {!Runtime.Runtime_error}. *)

val run :
  ?faults:Catalog.Network.Fault.schedule ->
  ?retry:retry_policy ->
  ?budget:int ->
  network:Catalog.Network.t ->
  db:Storage.Database.t ->
  table_cols:(string -> string list) ->
  Pplan.t ->
  result
(** Execute a placed plan bottom-up, materializing every operator.
    [budget] (default: [CGQP_MEM_BUDGET], else unlimited) is the
    byte-accounted memory budget — hash join/aggregation spill to disk
    when their scratch state would trip it, with byte-identical
    results (see {!Runtime.mem} and {!Spill}).
    [table_cols] resolves a table's stored column order, used to
    re-qualify scan schemas with the query alias. [faults] (default
    empty — a fault-free run is byte-identical to one without the
    parameter) injects deterministic failures per SHIP attempt, applied
    {e on top of} the network's own schedule: pass a healthy network
    plus an explicit schedule, or a pre-masked network and no schedule,
    never both. Emits trace events and metrics per operator and per
    SHIP (see [docs/TRACING.md]); raises {!Runtime_error} on malformed
    plans and on a spill directory in which a run file cannot be
    created, and {!Ship_failed} on permanent transfer failures. *)
