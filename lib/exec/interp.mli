(** Reference interpreter for placed physical plans.

    Row-at-a-time operator kernels over plain boxed row arrays, kept as
    the semantic baseline: the vectorized executor ({!Vector}) is
    differentially tested against it and must produce byte-identical
    results, SHIP accounting and profiles (see [docs/EXECUTOR.md]).
    Both engines run the same plan walk ({!Runtime.compile}); they
    differ only in their kernels. Use {!Engine.run} to select an
    engine.

    This module re-exports the shared {!Runtime} scaffolding: its
    types are equal to {!Runtime}'s and its exceptions are the {e same}
    constructors, so [Exec.Interp.Ship_failed] is what either engine
    raises and a handler catches it whichever engine ran. *)

include module type of struct
  include Runtime
end

val run :
  ?faults:Catalog.Network.Fault.schedule ->
  ?retry:retry_policy ->
  ?budget:int ->
  network:Catalog.Network.t ->
  db:Storage.Database.t ->
  table_cols:(string -> string list) ->
  Pplan.t ->
  result
(** Execute a placed plan bottom-up, materializing every operator,
    through {!Runtime.compile} and {!Runtime.execute}: SHIPs are
    accounted under the message cost model (§7.4 of the paper) and may
    run under a deterministic [faults] schedule, applied on top of the
    network's own (pass a healthy network plus an explicit schedule, or
    a pre-masked network and no schedule, never both). [budget]
    (default: [CGQP_MEM_BUDGET], else unlimited) is the byte-accounted
    memory budget: hash join/aggregation spill to disk ({!Spill}) with
    byte-identical results. [table_cols] resolves a table's stored
    column order, used to re-qualify scan schemas with the query alias.
    Raises {!Runtime_error} on malformed plans and on a spill directory
    in which a run file cannot be created, {!Ship_failed} on permanent
    transfer failures and {!Replica_stale} on a stale replica read. *)
