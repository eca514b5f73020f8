(** Grace-style spill-to-disk for hash join and hash aggregation: the
    one implementation both engines run.

    When {!Runtime.should_spill} says an operator's scratch state would
    trip the execution's memory budget, the plan walk ({!Runtime.compile})
    runs the engine's spilled kernel, which calls {!join} or {!agg}
    here. They hash-partition the input's logical row positions into up
    to 64 partitions (enough that one plausibly fits in a quarter of
    the budget) and append one block per non-empty partition (its
    positions and the engine's key data gathered at them; a join skips
    a partition with no build or no probe rows) to the operator's one
    run file. They then run the engine's in-memory kernel on one
    partition at a time with only that partition resident, and put the
    output back in {e exactly} the in-memory kernel's order (probe rows
    by position, matches in reverse insertion order; groups in
    first-seen order, each fed its rows in input order) — so spilling
    is byte-invisible to results, SHIP ledgers, profiles and EXPLAIN
    ANALYZE.

    The run file is created under [CGQP_SPILL_DIR] (default: the system
    temp dir) when the operator starts, and closed and removed on every
    exit path, a raising kernel or [gather] included; a directory in
    which it cannot be created raises {!Runtime.Runtime_error} naming
    it.

    Everything but the key data and the kernels is this module's: the
    partitioning, the run file, the resident charge (a
    partition's key bytes plus 8 per row, under either engine) and the
    order restore. An engine describes each input as a {!side} and
    supplies its kernel over {!block}s. See [docs/STORAGE.md] and the
    differentials in [test/test_exec.ml]. *)

type 'k side = {
  rows : int;  (** logical row count *)
  hashes : (int -> int) array;
      (** one per key component: [Value.hash] of the component at a
          logical position, or [-1] for NULL *)
  gather : int array -> 'k;  (** the key data at the given logical positions *)
  key_bytes : 'k -> int;  (** the [Value.byte_width] sum of gathered key data *)
}
(** One input of a spilled operator, as its engine sees it. *)

type 'k block = {
  pos : int array;  (** ascending logical positions *)
  keys : 'k;  (** the side's key data gathered at [pos] *)
}
(** One partition of a side, or a whole side ({!whole}). *)

val whole : 'k side -> 'k block
(** All of a side's rows as one block: an in-memory kernel's input. *)

val join :
  Runtime.mem ->
  bytes:int ->
  kernel:('k block -> 'k block -> (int -> int -> unit) -> unit) ->
  'k side ->
  'k side ->
  (int -> int -> unit) ->
  unit
(** [join mem ~bytes ~kernel probe build emit] hash-joins [probe]
    against [build] with run files and calls [emit l r] with logical
    probe and build positions in the in-memory kernel's sequence. Rows
    with a NULL key component never join and are dropped while
    partitioning. [kernel p b e] is the engine's in-memory hash join of
    probe block [p] against build block [b]: it calls [e i j] with
    indices into the blocks, probe rows in order, each one's matches in
    reverse build order. [bytes] (the build side's) sizes the fan-out. *)

val agg :
  Runtime.mem ->
  bytes:int ->
  kernel:('k block -> 'g * int array) ->
  'k side ->
  ('g * int) array
(** [agg mem ~bytes ~kernel input] groups [input] with run files.
    [kernel b] is the engine's in-memory grouping of block [b]: its
    groups, and for each group id (dense, first-seen order) the block
    index of the group's first row. The result names every group as
    its partition's groups and its id there, in first-seen input
    order. A NULL key component is a group value like any other. *)
