(** Vectorized executor for placed physical plans.

    The production engine (the {!Engine.run} default): where the
    reference interpreter {!Interp} walks the plan over one boxed row
    at a time, this engine executes over the column-major storage
    ({!Storage.Column}) directly in batches of up to 256 rows. Filters refine
    per-batch selection vectors without materializing, hash joins build
    and probe a batch of key codes at a time (through a key table
    addressed directly when the keys span a small int range, hashed
    otherwise) and materialize once with typed gathers, join residuals
    refine candidate pairs a batch at a time through the same predicate
    loops filters use, aggregation runs
    fused accumulator loops bound to the columns per batch, and sort
    produces a permutation selvec instead of moving rows. Predicate
    atoms over typed columns (against a constant, a same-variant
    column, an IN list or a LIKE pattern) run as typed loops over the
    unboxed arrays; merge join and sort compare typed key cells without
    boxing them.

    The vectorized engine is {e byte-identical} to {!Interp}: same
    result rows in the same order, same SHIP records (order, bytes,
    simulated cost, retry fates — ship fates are keyed by ship index,
    so the child-iteration contract in runtime.mli applies), same
    per-operator profiles and bit-equal makespans. The engine supplies
    only its operator kernels: the plan walk, the SHIP path, profiles,
    the memory account and the spill decision are {!Runtime.compile}'s,
    shared with {!Interp}. The invariant is enforced by the
    differential properties and golden tests in [test/test_exec.ml].
    See [docs/EXECUTOR.md]. *)

open Relalg

type t
(** A compiled vectorized plan: reusable across executions. *)

val schema : t -> Attr.t list
(** Output schema, fixed at compile time. *)

val compile :
  db:Storage.Database.t -> table_cols:(string -> string list) -> Pplan.t -> t
(** Compile a placed plan against the column-major base tables through
    {!Runtime.compile}: resolve every attribute to a column index, build
    per-operator binders that specialize on the concrete column
    representation at execution time, and precompute join/group key
    index vectors. [table_cols] resolves
    a table's stored column order, used to re-qualify scan schemas with
    the query alias (as in {!Interp.run}). Raises
    {!Runtime.Runtime_error} on malformed plans and [Invalid_argument]
    on unknown tables. *)

val execute :
  ?faults:Catalog.Network.Fault.schedule ->
  ?retry:Runtime.retry_policy ->
  ?budget:int ->
  network:Catalog.Network.t ->
  t ->
  Runtime.result
(** Execute a compiled vectorized plan. Semantics, SHIP accounting,
    fault injection and observability are exactly those of
    {!Interp.run}, including the [budget] memory account (default
    [CGQP_MEM_BUDGET], else unlimited) with byte-identical spilling;
    raises {!Runtime.Ship_failed} on permanent transfer failures. *)

val run :
  ?faults:Catalog.Network.Fault.schedule ->
  ?retry:Runtime.retry_policy ->
  ?budget:int ->
  network:Catalog.Network.t ->
  db:Storage.Database.t ->
  table_cols:(string -> string list) ->
  Pplan.t ->
  Runtime.result
(** [compile] then [execute] — drop-in replacement for {!Interp.run}. *)
