(** Deterministic TPC-H-shaped data generator. Follows dbgen's value
    domains (names, segments, types, date ranges, pricing rules) closely
    enough that query selectivities behave like the original, while
    staying small and fully seeded. *)

(** dbgen value domains, exposed for the workload generators. *)

val regions : string list
val nations : (string * int) list
(** Nation name and region index. *)

val segments : string list
val priorities : string list
val type_syl1 : string list
val type_syl2 : string list
val type_syl3 : string list

type tables = {
  region : Storage.Column.t array;
  nation : Storage.Column.t array;
  supplier : Storage.Column.t array;
  part : Storage.Column.t array;
  partsupp : Storage.Column.t array;
  customer : Storage.Column.t array;
  orders : Storage.Column.t array;
  lineitem : Storage.Column.t array;
}
(** Each table's typed columns in schema order; a column's length is the
    row count. *)

val generate : ?seed:int -> sf:float -> unit -> tables
(** All eight tables at scale factor [sf], deterministic in [seed]
    (default {!Storage.Seed.resolve}: the [CGQP_SEED] environment
    variable, else 42); each row goes straight into column builders.
    Referential integrity holds across the tables. *)

val load : cat:Catalog.t -> tables -> Storage.Database.t
(** Load the tables into a database, splitting partitioned tables
    round-robin according to the catalog's placements. *)
