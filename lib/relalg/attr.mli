(** Column references.

    An attribute names a column of a relation, qualified by the alias
    (or base-table name) it belongs to. Names are case-insensitive and
    stored lowercased. *)

type t = { rel : string; name : string }
(** [rel = ""] denotes an unqualified reference awaiting name
    resolution. *)

val make : rel:string -> name:string -> t
(** [make ~rel ~name] is the qualified reference [rel.name],
    lowercased. A string with no ASCII uppercase letter is kept as it
    is, not copied. *)

val unqualified : string -> t
(** A bare column name, to be bound later (or the output of a
    projection/aggregation). *)

val is_qualified : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
