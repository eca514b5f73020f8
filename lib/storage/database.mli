(** Physical storage: maps (table, partition index) to a materialized
    relation. Partition 0 is the sole partition of unpartitioned
    tables. Table names are case-insensitive. *)

type t

val create : unit -> t
val add : t -> table:string -> ?partition:int -> Relation.t -> unit
(** Store [table]'s partition (default 0) as is: a resident relation
    is already typed columns, so a scan of it converts nothing. *)

val add_round_robin : t -> table:string -> partitions:int -> Relation.t -> unit
(** {!add} row [j] to partition [j mod partitions], in order, by
    {!Column.gather}; one partition stores the relation whole. A column
    keeps its variant: an empty partition of a typed column holds a
    zero-length typed array, never [Values [||]]. *)

val find : t -> table:string -> ?partition:int -> unit -> Relation.t option

val find_exn : t -> table:string -> ?partition:int -> unit -> Relation.t
(** Raises [Invalid_argument] when absent. *)

val tables : t -> (string * int) list
(** All stored (table, partition) pairs. *)

val total_rows : t -> int

val paged : t -> dir:string -> t
(** Write every stored relation as column segments under
    [dir/<table>_<partition>/] ({!Segment.write}) and return a new
    database whose relations are disk-backed ({!Segment.relation}) —
    same tables, same data, resident working set near zero. *)
