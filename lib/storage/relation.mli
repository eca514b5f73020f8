(** Materialized relations: a schema of qualified column names over
    exactly one representation — boxed rows ({!make}), typed columns
    ({!of_cols}, one {!Column.t} per attribute) or a pager over a
    segment store ({!paged}). A relation is immutable and caches
    nothing: {!rows} of a columnar relation and {!cols} of a row
    relation convert on every call. *)

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
(** Build from rows, the relation's one representation. Raises
    [Invalid_argument] if some row's arity differs from the schema. *)

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
    paging anything in. Every {!rows}/{!cols}/{!read_cols} access
    re-reads through [load], so the resident working set is only what
    operators materialize, not the base table. See {!Segment.relation}. *)

val is_paged : t -> bool

val schema : t -> Attr.t list

val rows : t -> Value.t array array
(** The row view. A row relation returns its own rows (treat them as
    read-only); a columnar or paged relation builds fresh rows on every
    call. *)

val cols : t -> Column.t array
(** The column view. A columnar relation returns its own columns, the
    same array on every call; a row relation converts on every call
    (sniffing each column's type, {!Column.of_values}); a paged
    relation pages every column in. Stored base tables are columnar
    ({!Database.add}), so a scan of one converts nothing. *)

val read_cols : t -> needed:bool array -> Column.t array
(** Column-major view restricted to a mask, one bit per schema
    column: a paged relation pages in only the columns whose bit is
    set and returns zero-length placeholders for the rest; a resident
    relation returns {!cols} (the mask costs nothing to honour there).
    Raises [Invalid_argument] on a paged relation if the mask's length
    is not the schema's width. *)

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
