(** Grace-style spill-to-disk for hash join and hash aggregation.

    When {!Runtime.should_spill} says an operator's scratch state would
    trip the execution's memory budget, the plan walk ({!Runtime.compile})
    runs the engine's spilled kernel, which hash-partitions its inputs
    into on-disk run files here, process each partition with
    only its own state resident, and re-emit outputs in {e exactly}
    the in-memory kernel's order (probe rows by input position,
    matches in reverse insertion order; groups in first-seen order,
    each fed its rows in input order) — so spilling is byte-invisible
    to results, SHIP ledgers, profiles and EXPLAIN ANALYZE.

    Two users, one directory and byte account: {!Interp} hands boxed
    rows to {!join} and {!agg}, which partition by
    {!Runtime.Row_key.hash} and write one [Marshal] record per row;
    {!Vector} partitions typed key columns itself and writes one
    block per partition through {!begin_op}, {!write_block} and
    {!read_block}. See [docs/STORAGE.md] and the differentials in
    [test/test_exec.ml]. *)

open Relalg

val begin_op : Runtime.mem -> bytes:int -> int * (string -> int -> string)
(** [begin_op mem ~bytes] starts one spilled operator whose state is
    [bytes]: counts it and its {!Runtime.spill_partitions_for} fan-out
    [np] in [mem], and returns [np] with [path kind p], the run file of
    partition [p] for the operator's [kind] of block, in
    {!Runtime.run_dir}. *)

val write_block : Runtime.mem -> string -> 'a -> unit
(** [write_block mem path v] writes [v] to run file [path] with one
    [Marshal] call and counts its bytes; the channel is closed on every
    path. *)

val read_block : string -> 'a
(** [read_block path] reads back the value {!write_block} wrote to
    [path] and removes the file. Like [Marshal.from_channel] it is
    untyped: annotate the result with the type that was written. *)

val join :
  Runtime.mem ->
  build_bytes:int ->
  lkey:(Value.t array -> Value.t array option) ->
  rkey:(Value.t array -> Value.t array option) ->
  emit:(Value.t array -> Value.t array -> unit) ->
  Value.t array array ->
  Value.t array array ->
  unit
(** [join mem ~build_bytes ~lkey ~rkey ~emit lrows rrows] hash-joins
    probe side [lrows] against build side [rrows] with run files,
    calling [emit lrow rrow] in the in-memory kernel's exact sequence.
    [lkey]/[rkey] box a row's key ([None] = NULL component, row drops
    out); [build_bytes] sizes the partition fan-out. *)

val agg :
  Runtime.mem ->
  input_bytes:int ->
  key:(Value.t array -> Value.t array) ->
  na:int ->
  feed_row:(Runtime.acc array -> Value.t array -> unit) ->
  emit_group:(Value.t array -> Runtime.acc array -> unit) ->
  Value.t array array ->
  unit
(** [agg mem ~input_bytes ~key ~na ~feed_row ~emit_group rows] groups
    [rows] by [key] with run files, calling [emit_group] per group in
    first-seen input order, accumulators fed in input order ([na]
    accumulators per group). *)
