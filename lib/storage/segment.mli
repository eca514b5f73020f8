(** Disk-backed column segment store.

    Persists a relation as one directory: a text [meta] file (schema,
    cardinality, serialized byte size, per-column representation tags)
    plus one
    [col<j>.seg] file per column holding append-only segments of up to
    {!segment_rows} rows. Fixed-width columns (ints / floats / dates /
    bools) store one little-endian word per row; strings are
    offset-indexed (offset array + payload heap); the boxed fallback
    uses a tagged per-value codec. Every segment carries its null
    bitmap.

    Round-trips are representation-exact — a read-back column is
    variant-, value- and [byte_size]-identical to what was written —
    and {!relation} wraps a stored directory as a paged
    {!Relation.t} that re-reads from disk on every access, so a
    relation is resident or disk-backed invisibly to both
    engines. See [docs/STORAGE.md]. *)

open Relalg

val segment_rows : int
(** Rows per segment: 64K (65536). *)

val write : dir:string -> Relation.t -> unit
(** Persist a relation into [dir] (created if needed, existing files
    overwritten). *)

type handle
(** An opened segment directory (metadata only; column files are read
    on demand). *)

val openh : dir:string -> handle
(** Open a directory written by {!write}. Raises [Failure] on a
    missing/corrupt [meta] or a segment-size mismatch, [Sys_error] if
    the directory does not exist. *)

val schema : handle -> Attr.t list
val cardinality : handle -> int

val num_segments : handle -> int
(** Segments per column: [ceil (cardinality / segment_rows)]. *)

val read_all : ?needed:bool array -> handle -> Column.t array
(** Page the relation in: per-column concatenation of all segments of
    the [needed] columns (default: all; one bit per schema column,
    [Invalid_argument] otherwise), representation-identical to the
    columns that were written. A masked-out column's file is never
    opened or read; it reads as a shared zero-length placeholder.
    Fixed-width, string and bool payloads decode straight into their
    typed arrays; only the boxed fallback decodes value by value. On
    corrupt or truncated segment data the column file is closed, then
    [Failure] is raised. *)

val byte_size : handle -> int
(** The written relation's {!Relation.byte_size}, recorded in [meta]
    by {!write}: no column file is opened and no page read is
    counted. *)

val relation : handle -> Relation.t
(** The stored relation as a paged {!Relation.t}: every [rows]/[cols]/
    [read_cols] access re-reads from disk ({!Relation.is_paged}
    holds), so the resident working set is only what operators
    materialize; its [byte_size] is {!byte_size}. *)

val page_reads : unit -> int
(** Process-wide count of segment page-ins (one per column segment
    decoded from disk). *)

val page_read_bytes : unit -> int
(** Process-wide payload bytes decoded from disk. *)

val reset_page_reads : unit -> unit
