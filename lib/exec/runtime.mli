(** Execution scaffolding shared by the engines.

    The reference interpreter ({!Interp}) and the vectorized executor
    ({!Vector}) both route SHIPs, retries, per-operator profiles, the
    memory budget and metrics/trace emission through this module,
    which is what makes their stats, profiles and observability output
    byte-identical (see [docs/EXECUTOR.md]). The boxed aggregate
    accumulators ({!acc}, {!feed}, {!finish}) and the row-key table
    ({!Row_tbl}) serve {!Interp} and its row spill ({!Spill.join},
    {!Spill.agg}); {!Vector}'s kernels, in memory and spilled, use
    their own unboxed key table and typed accumulators, which fold in
    the same order and finish as {!finish} does, and take {!acc} only
    for a non-numeric aggregate argument. Predicate and scalar evaluation is per engine:
    {!Interp} evaluates the AST row by row, {!Vector} binds it to
    typed columns.

    {2 Child-iteration contract}

    Per-attempt SHIP drop fates are keyed by the ship's index in
    [stats.ships] (see {!do_ship}), and the row view handed to each
    operator ({!Storage.Relation.rows} or the equivalent column order)
    iterates rows in relation order — so both the {e order in which
    children execute} and the {e order in which rows are visited} are
    part of engine equivalence, not an implementation detail. Every
    engine MUST:

    - execute the {b right child first} for binary operators
      (joins) — the historical order was OCaml's right-to-left tuple
      evaluation, and all engines now make it explicit;
    - execute [Union_all] children {b left-to-right};
    - visit input rows in relation order (index [0] upward), emitting
      join matches for each probe row in the build table's
      reverse-insertion order (what [Row_tbl.find_all] yields);
    - key batch-local work off absolute row indices, so batching (the
      vectorized engine's 1024-row chunks) never reorders emission.

    [test/test_exec.ml]'s "ship order contract" unit test asserts the
    child-order half of this against all engines; the differential
    property locks the rest. *)

open Relalg

type ship_record = {
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

type stats = {
  mutable ships : ship_record list;
  mutable rows_processed : int;  (** total rows materialized, all operators *)
  mutable ship_retries : int;  (** total retried attempts across all ships *)
}

val fresh_stats : unit -> stats

type retry_policy = {
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

type ship_failure =
  [ `Link_down  (** the schedule marks the link permanently down *)
  | `Site_down of Catalog.Location.t  (** one endpoint site is down *)
  | `Attempts_exhausted  (** every allowed attempt dropped or timed out *)
  | `Budget_exhausted  (** the SHIP's simulated-clock budget ran out *) ]

exception
  Ship_failed of {
    from_loc : Catalog.Location.t;
    to_loc : Catalog.Location.t;
    attempts : int;
    reason : ship_failure;
  }
(** A SHIP could not complete under the fault schedule. The degradation
    path masks the link (or site) and re-plans; plain callers see the
    exception. *)

val ship_failure_to_string : ship_failure -> string

exception
  Replica_stale of {
    table : string;
    partition : int;
    site : Catalog.Location.t;
  }
(** The copy of [table]/[partition] the plan reads at [site] is stale —
    the fault schedule carries a [replica-lag] for it. The degradation
    path masks the replica and re-plans onto a fresh sibling (or, when
    none is compliant, aborts [`Unsatisfiable]); plain callers see the
    exception. *)

val check_replica :
  faults:Catalog.Network.Fault.schedule ->
  table:string ->
  partition:int ->
  site:Catalog.Location.t ->
  unit
(** Freshness gate every engine runs before reading a scan's rows;
    raises {!Replica_stale} when {!Catalog.Network.Fault.replica_stale}
    holds for [(table, site)]. Deliberately catalog-oblivious, so
    sessions without replica sets degrade identically. *)

(** Per-operator execution profile. [path] is the node's position in
    the plan tree as the list of child indices from the root (the root
    itself is [[]]), which is how [Optimizer.Explain] matches actuals
    back to plan nodes for EXPLAIN ANALYZE. *)
type node_profile = {
  path : int list;
  label : string;  (** {!Pplan.node_label} of the operator *)
  actual_rows : int;
  actual_bytes : int;  (** materialized output size *)
  ship : ship_record option;  (** set iff the operator is a SHIP *)
}

type result = {
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
(** Malformed plans (wrong arity, missing relations). *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

(** {2 Memory budget}

    A per-execution byte account over serialized sizes (the same
    [Value.byte_width] sums the SHIP ledger uses, so the numbers are
    engine-independent): every operator charges its materialized output
    and releases its children's after consuming them; hash join and
    aggregation additionally charge their scratch state (build side /
    input) for the kernel's duration, and switch to the Grace spill
    path ({!Spill}) when that charge would trip the budget. The spill
    decision is a pure function of (budget, deterministic byte counts)
    and the spill path re-emits in kernel order, so budget ∞ and
    budget ε produce byte-identical reports — locked by the qcheck
    differential in [test/test_exec.ml]. *)

type mem = {
  budget : int;  (** {!unlimited_budget} = no accounting at all *)
  mutable tracked : int;  (** currently charged bytes *)
  mutable peak : int;
  mutable spill_ops : int;  (** operators that took the spill path *)
  mutable spill_parts : int;  (** Grace partitions across those *)
  mutable spill_run_bytes : int;  (** bytes written to run files *)
}

val unlimited_budget : int
(** [max_int]: disables accounting (budget-free runs pay nothing). *)

val mem_create : budget:int -> mem
val mem_charge : mem -> int -> unit
val mem_release : mem -> int -> unit

val should_spill : mem -> int -> bool
(** Would charging this many more bytes exceed the budget? Always
    [false] under {!unlimited_budget}. *)

val spill_partitions_for : mem -> bytes:int -> int
(** Grace fan-out for spilling [bytes] of state: enough partitions
    that one plausibly fits in a quarter of the budget, in [2, 64]. *)

val parse_budget : string -> int option
(** ["64m"]-style byte counts: plain bytes or a [k]/[m]/[g] suffix
    (powers of 1024); ["unlimited"]/[""] mean no budget. [None] =
    unparseable, negative, or too large for an [int] once multiplied
    out. *)

val budget_from_env : unit -> int
(** [CGQP_MEM_BUDGET] via {!parse_budget}; {!unlimited_budget} when
    unset. Raises [Invalid_argument] on an unparseable value. *)

val mem_finish : mem -> unit
(** Fold a finished execution's account into the process-wide stats
    (peak gauge + spill counters). Engines call this on every exit
    path. *)

val peak_tracked_bytes : unit -> int
(** Process-wide high-water mark of tracked bytes (across executions
    since the last {!reset_mem_stats}). *)

val spilled_operators : unit -> int
val spill_partitions : unit -> int
val spill_run_bytes : unit -> int

val reset_mem_stats : unit -> unit
(** Zero the peak gauge (the spill counters live in {!Obs.Metrics} and
    reset with [Obs.Metrics.reset]). *)

(** {2 Aggregate accumulation} *)

type acc = {
  mutable sum : Value.t;
  mutable count : int;
  mutable vmin : Value.t;
  mutable vmax : Value.t;
}

val fresh_acc : unit -> acc

val feed : acc -> Value.t -> unit
(** Fold one value into the accumulator; [Null] is skipped. *)

val finish : Expr.agg_fn -> acc -> Value.t

(** {2 Row utilities} *)

module Row_key : sig
  type t = Value.t array

  val equal : t -> t -> bool
  val hash : t -> int
end

module Row_tbl : Hashtbl.S with type key = Value.t array

(** {2 Shared SHIP path and node bookkeeping} *)

val do_ship :
  faults:Catalog.Network.Fault.schedule ->
  retry:retry_policy ->
  network:Catalog.Network.t ->
  stats:stats ->
  from_loc:Catalog.Location.t ->
  to_loc:Catalog.Location.t ->
  bytes:int ->
  rows:int ->
  ship_record
(** Execute one SHIP: permanent-topology checks, the retry loop on the
    simulated clock, then stats, metrics and trace emission. The drop
    fate of each attempt is keyed by the ship's index in [stats.ships],
    so engines must execute ships in the same order to see the same
    fates. Raises {!Ship_failed} on permanent failures. *)

val record_node :
  stats:stats ->
  profile:node_profile list ref ->
  rpath:int list ->
  label:string ->
  loc:Catalog.Location.t ->
  ship:ship_record option ->
  card:int ->
  bytes:int ->
  unit
(** Post-order per-node bookkeeping, identical across engines:
    [rows_processed], the rows counter, the profile entry (pushed in
    execution order; [rpath] is the reversed root-to-node path) and the
    per-operator trace event. *)
