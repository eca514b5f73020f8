(** Cardinality feedback: fold observed scan cardinalities from
    executor profiles back into catalog statistics.

    The optimizer's scan estimates come from [Catalog.Table_def]
    [row_count]s that are set independently of the attached data (e.g.
    the TPC-H catalog carries SF-10 statistics while a session attaches
    SF-0.01 data), so estimated and actual rows can disagree by orders
    of magnitude — visible as the est-vs-actual columns of
    [EXPLAIN ANALYZE]. A feedback store accumulates, per base table,
    the {e global} row count implied by each executed scan
    ([actual_rows / placement.fraction]); once a table has enough
    observations ([min_obs]) and the implied mean disagrees with the
    catalog by more than [threshold] (relative), {!fold} builds a new
    catalog with the corrected [row_count]s.

    Folding never mutates the current catalog — catalogs are immutable
    with process-unique stamps, so the new catalog has a new stamp and
    every plan-cache key referencing the old one goes stale on its
    own. Callers additionally bump the cache epoch
    ([Plan_cache.bump_epoch ~reason:"feedback"]) so the stale entries
    are purged eagerly; see [docs/FEEDBACK.md] for the invalidation
    flow and [Cgqp] / [Service.Scheduler] for the wiring.

    Everything here is deterministic: observations arrive in statement
    order, means are exact sums, and {!fold} rebuilds tables in
    [Catalog.all_tables] order — so feedback-driven re-optimization
    replays bit-for-bit from one seed. *)

type t

val create : ?min_obs:int -> unit -> t
(** A fresh store. [min_obs] (default 3) is the per-table observation
    count required before folding. A table whose relative
    est-vs-actual gap — mean implied rows vs catalog [row_count] — is
    at most 0.5 is left alone (re-optimizing on noise would thrash the
    plan cache). *)

val observe :
  t ->
  cat:Catalog.t ->
  plan:Exec.Pplan.t ->
  profile:Exec.Interp.node_profile list ->
  unit
(** Record every [Table_scan] of an executed plan. [profile] is the
    executor's per-node profile ([Exec.Interp.result.profile]); nodes
    are matched by tree path, the same convention EXPLAIN ANALYZE
    uses. Scans of partitions with fraction 0, or missing from the
    profile, are ignored. *)

val fold : t -> Catalog.t -> Catalog.t option
(** [fold t cat] is [Some cat'] — a new catalog (new stamp, same
    network) with corrected [row_count]s — when at least one table has
    [min_obs] observations and a gap above [threshold]; [None]
    otherwise. Folded tables' accumulators reset so the next fold needs
    fresh evidence against the corrected statistics. *)

val observations : t -> int
(** Total scan observations recorded. *)

val folds : t -> int
(** Number of times {!fold} returned [Some _]. *)

val converged : t -> actual:(string -> int option) -> bool
(** Have the statistics converged onto the ground truth? True iff no
    accumulated table with [min_obs] observations still shows a gap
    above [threshold] against [actual table] (the true row count —
    [None] skips the table). Once a fold has installed row counts that
    match the data, the post-fold observations agree with them and this
    stays true: no further fold can fire. Pure — accumulators are not
    touched. *)

val pending : t -> (string * int * float) list
(** [(table, observations, implied mean rows)] for every table with at
    least one observation since its last fold, sorted by table name
    (diagnostics and the feedback bench). *)
