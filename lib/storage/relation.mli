(** In-memory materialized relations: a schema of qualified column
    names over column-major storage ({!Column.t} per attribute), with
    a cached row-view shim for the row-at-a-time engines. A relation
    can be built from either representation; the other is materialized
    lazily on first access. *)

open Relalg

type resolver
(** Precomputed attribute→position index over a schema. *)

val resolver : Attr.t list -> resolver

val resolve : resolver -> Attr.t -> int option
(** Column position: exact match first (last occurrence wins on
    duplicates), then a unique match on the bare column name. *)

val lookup_of_schema : Attr.t list -> Attr.t -> Value.t array -> Value.t
(** [lookup_of_schema schema] is an accessor over rows of [schema]
    suitable for [Pred.eval] / [Expr.eval] without materializing a
    relation; unknown attributes read as NULL. The index is built once,
    at partial application. *)

type t

val make : schema:Attr.t list -> rows:Value.t array array -> t
(** Build from rows (the row view is the stored representation; columns
    materialize on first {!cols}). Raises [Invalid_argument] if some
    row's arity differs from the schema. *)

val of_cols : schema:Attr.t list -> card:int -> Column.t array -> t
(** Build from columns. [card] is the row count (needed explicitly for
    width-0 relations). Raises [Invalid_argument] on arity or
    cardinality mismatch. *)

val paged :
  schema:Attr.t list ->
  card:int ->
  load:(bool array -> Column.t array) ->
  byte_size:(unit -> int) ->
  t
(** A disk-backed relation. [load needed] pages in, in schema order,
    the columns whose [needed] bit is set (each of length [card]);
    every other column comes back as a zero-length placeholder.
    [byte_size ()] is the relation's {!byte_size}, obtained without
    paging anything in. Paged relations never cache a materialized
    view — every {!rows}/{!cols}/{!read_cols} access re-reads through
    [load], so the resident working set is only what operators
    materialize, not the base table. See {!Segment.relation}. *)

val is_paged : t -> bool

val empty : schema:Attr.t list -> t
val schema : t -> Attr.t list

val rows : t -> Value.t array array
(** The row-view shim: materialized from the columns on first access
    and cached. Treat the result as read-only. *)

val cols : t -> Column.t array
(** Column-major view: materialized from the rows on first access and
    cached. Stored base tables are columnarized up front by
    {!Database.add}. *)

val read_cols : t -> needed:bool array -> Column.t array
(** Column-major view restricted to a mask, one bit per schema
    column: a paged relation pages in only the columns whose bit is
    set and returns zero-length placeholders for the rest; a resident
    relation returns {!cols} (the mask costs nothing to honour there).
    Raises [Invalid_argument] on a paged relation if the mask's length
    is not the schema's width. *)

val columnarize : t -> unit
(** Force the column-major view to be materialized now. No-op on paged
    relations, which deliberately never cache. *)

val cardinality : t -> int

val order_by : t -> (Attr.t * bool) list -> t
(** Stable sort by (attribute, descending?) keys; unknown attributes
    read as NULL and sort first. *)

val take : t -> int -> t
(** First [n] rows. *)

val byte_size : t -> int
(** Total serialized size — what a SHIP of this relation moves. For a
    paged relation it comes from the pager (a segment store's [meta]) and
    pages nothing in. *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
val to_csv : t -> string
