(** Execution scaffolding shared by the engines, and the one plan walk
    they both run.

    {!compile} walks a placed plan once for either engine: it visits
    children, runs the replica gate and every SHIP (with retries),
    records per-operator profiles, keeps the memory account and takes
    the spill decision, computes finish times, and emits metrics and
    trace events. The reference interpreter ({!Interp}) and the
    vectorized executor ({!Vector}) supply only {!kernels}, the
    operators over their own output type — which is what makes their
    stats, profiles and observability output byte-identical by
    construction (see [docs/EXECUTOR.md]). Over budget, both engines'
    hash kernels run under the one Grace spill driver ({!Spill}). The
    boxed aggregate accumulators ({!acc}, {!feed}, {!finish}) serve
    {!Interp}; {!Vector}'s kernels use typed accumulators, which fold
    in the same order and finish as {!finish} does, and take {!acc}
    only for a non-numeric aggregate argument. Predicate and scalar
    evaluation is per engine: {!Interp} evaluates the AST row by row,
    {!Vector} binds it to typed columns.

    {2 Child-iteration contract}

    Per-attempt SHIP drop fates are keyed by the ship's index in
    [stats.ships] (see {!compile}), and the row view handed to each
    operator ({!Storage.Relation.rows} or the equivalent column order)
    iterates rows in relation order — so both the {e order in which
    children execute} and the {e order in which rows are visited} are
    part of engine equivalence, not an implementation detail.

    The walk enforces the child order for every engine:

    - the {b right child first} for binary operators (joins) — the
      historical order was OCaml's right-to-left tuple evaluation;
    - [Union_all] children {b left-to-right}.

    Every engine's kernels MUST:

    - visit input rows in relation order (index [0] upward), emitting
      join matches for each probe row in the build table's
      reverse-insertion order (what [Hashtbl.find_all] yields);
    - key batch-local work off absolute row indices, so batching (the
      vectorized engine's batches) never reorders emission.

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
(** Malformed plans (wrong arity, missing relations), or a spill
    directory in which a run file cannot be created. *)

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
  mutable spill_run_bytes : int;  (** bytes appended to run files *)
}
(** One execution's byte account and spill counters. It holds no
    files: each spilled operator owns its run file ({!Spill}). *)

val unlimited_budget : int
(** [max_int]: disables accounting (budget-free runs pay nothing). *)

val mem_charge : mem -> int -> unit
val mem_release : mem -> int -> unit

val should_spill : mem -> int -> bool
(** Would charging this many more bytes exceed the budget? Always
    [false] under {!unlimited_budget}. *)

val parse_budget : string -> int option
(** ["64m"]-style byte counts: plain bytes or a [k]/[m]/[g] suffix
    (powers of 1024); ["unlimited"], ["none"], ["inf"] and [""] mean
    no budget (case and surrounding blanks ignored). [None] =
    unparseable, negative, or too large for an [int] once multiplied
    out. *)

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

(** A growable int vector: row positions and match lists. *)
module Ivec : sig
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> int -> unit
  val to_array : t -> int array
end

(** {2 The plan walk}

    {!compile} is the one walk over a placed plan that both engines
    run. It visits children in contract order and, per operator:

    - at a scan, raises {!Replica_stale} if the fault schedule marks
      the copy read stale (catalog-oblivious, so sessions without
      replica sets degrade identically);
    - at a SHIP, runs the transfer: permanent-topology checks, the
      retry loop on the simulated clock (each attempt's drop fate keyed
      by the ship's index in [stats.ships]), then stats, metrics and an
      [exec.ship] trace event; raises {!Ship_failed} on permanent
      failures;
    - records [rows_processed], the rows counter, the profile entry
      and an [exec.op] trace event;
    - charges the output and releases the children's charges (a SHIP
      aliases its child: it charges and releases nothing);
    - takes the spill decision ({!should_spill}) for hash joins on the
      build side's bytes and for keyed aggregations on the input's;
    - finishes at the latest child's finish time plus the SHIP's cost
      or {!row_cost_ms} per output row.

    An engine supplies {!kernels}: the operators' semantics over its
    own output type. *)

type hash_mode =
  | In_memory
  | Spilled of { mem : mem; bytes : int }
      (** run the Grace spill path under [mem]; [bytes] is the state
          that would have tripped the budget (it sizes the fan-out) *)
(** How a hash join or aggregation runs. *)

type 'o kernels = {
  scan :
    Storage.Relation.t -> Attr.t list -> project:(Expr.scalar * Attr.t) list option -> unit -> 'o;
      (** [scan r schema ~project] reads the stored relation [r] under
          its alias-qualified [schema]; [project] is the parent
          [Project]'s items, if any (a paged scan may decode only the
          columns they read) *)
  filter : Attr.t list -> Pred.t -> 'o -> 'o;
  project : Attr.t list -> (Expr.scalar * Attr.t) list -> 'o -> 'o;
  hash_join :
    Attr.t list -> Attr.t list -> (Attr.t * Attr.t) list -> Pred.t -> hash_mode -> 'o -> 'o -> 'o;
      (** build on the right, probe from the left *)
  merge_join : Attr.t list -> Attr.t list -> (Attr.t * Attr.t) list -> Pred.t -> 'o -> 'o -> 'o;
  nl_join : Attr.t list -> Attr.t list -> Pred.t -> 'o -> 'o -> 'o;
  hash_agg : Attr.t list -> Attr.t list -> Expr.agg list -> hash_mode -> 'o -> 'o;
  sort : Attr.t list -> (Attr.t * bool) list -> 'o -> 'o;
  union : Attr.t list -> 'o list -> 'o;
  card : 'o -> int;  (** rows of an output *)
  byte_size : 'o -> int;
      (** serialized size of an output: the same [Value.byte_width]
          sum as {!Storage.Relation.byte_size} *)
  to_relation : Attr.t list -> 'o -> Storage.Relation.t;
      (** the root's output as the result relation *)
}
(** An engine's operator kernels. Each takes its children's schemas
    (the left's, then the right's for joins; the common one for a
    union) and the operator's arguments, and is applied to them once,
    at compile time; the closure it returns runs per execution. *)

val agg_schema : Attr.t list -> Expr.agg list -> Attr.t list
(** An aggregation's output schema: its keys, then one unqualified
    column per aggregate alias. *)

type 'o plan
(** A compiled plan: reusable across executions. *)

val plan_schema : 'o plan -> Attr.t list

val compile :
  'o kernels ->
  db:Storage.Database.t ->
  table_cols:(string -> string list) ->
  Pplan.t ->
  'o plan
(** Walk the plan once, binding every kernel. [table_cols] resolves a
    table's stored column order, used to re-qualify scan schemas with
    the query alias. Raises {!Runtime_error} on malformed plans and
    [Invalid_argument] on unknown tables. *)

val execute :
  ?faults:Catalog.Network.Fault.schedule ->
  ?retry:retry_policy ->
  ?budget:int ->
  network:Catalog.Network.t ->
  'o plan ->
  result
(** Run a compiled plan inside one [exec.run] trace span. [budget]
    (default: [CGQP_MEM_BUDGET], else unlimited) is the byte-accounted
    memory budget; [faults] (default empty) injects deterministic
    failures per SHIP attempt on top of the network's own schedule.
    On every exit path the execution's peak and spill counts are
    folded into the process-wide stats (each spilled operator has
    already closed and removed its own run file). Raises
    {!Ship_failed} and {!Replica_stale}. *)
