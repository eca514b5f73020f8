(** Execution engine selection.

    Two engines execute placed physical plans through one shared plan
    walk ({!Runtime.compile}): the row-at-a-time reference interpreter
    ({!Interp}) and the vectorized executor ({!Vector}). They are
    byte-identical on results, SHIP accounting, profiles and
    observability output (see [docs/EXECUTOR.md]); the
    vectorized engine is the default. Select per session via
    [Cgqp.set_engine], per process via the [CGQP_ENGINE] environment
    variable, or per CLI invocation with [--engine]. *)

type t = Reference | Vector

val to_string : t -> string
(** ["reference"] / ["vector"]. *)

val of_string : string -> t option
(** Case-insensitive; recognizes ["reference"]/["interp"]/
    ["interpreter"] and ["vector"]/["vectorized"]. *)

val default : unit -> t
(** The process default: [CGQP_ENGINE] if set (raising
    [Invalid_argument] on an unrecognized value), else {!Vector}. *)

val run :
  ?engine:t ->
  ?faults:Catalog.Network.Fault.schedule ->
  ?retry:Runtime.retry_policy ->
  ?budget:int ->
  network:Catalog.Network.t ->
  db:Storage.Database.t ->
  table_cols:(string -> string list) ->
  Pplan.t ->
  Runtime.result
(** Execute a plan on the chosen engine (default {!Vector} — note,
    {e not} {!default}, which reads the environment; session layers
    resolve the env default once at session creation). Signature and
    semantics are those of {!Interp.run}. *)
