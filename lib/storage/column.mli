(** Column-major storage: one typed, unboxed array per column plus a
    packed, [Bytes]-backed null bitmap.

    This is the physical layout behind {!Relation.t} and the data the
    vectorized engine's kernels run over. A column whose non-null
    values share one {!Relalg.Value.ty} is stored unboxed (with NULL
    slots marked in the bitmap); heterogeneous, empty or all-NULL
    columns fall back to a boxed [Value.t array]. Columns are
    immutable after construction. *)

open Relalg

(** The physical payload. Pattern-match on this in engine fast paths;
    always honor the null bitmap alongside it. *)
type data =
  | Ints of int array
  | Floats of float array
  | Strs of string array
  | Dates of int array
  | Bools of Bytes.t  (** one byte per row: 0 = false *)
  | Values of Value.t array  (** heterogeneous / all-NULL fallback; NULLs inline *)

type t = private {
  data : data;
  nulls : Bytes.t;
      (** packed bitmap, bit [i] = row [i] is NULL; [Bytes.empty] = no
          nulls (always the case for [Values]) *)
  mutable bytes : int;  (** memoized {!byte_size}; [-1] = not yet computed *)
}

val length : t -> int
val has_nulls : t -> bool

val is_null : t -> int -> bool
(** Bitmap test only — a [Values] column stores its NULLs inline, so
    use {!get} (or check the variant) when the fallback matters. *)

val get : t -> int -> Value.t
(** Boxed read of row [i]; NULL slots read as [Value.Null] whichever
    representation holds them. *)

val of_values : Value.t array -> t
(** Sniff the uniform type and build the typed representation, falling
    back to boxed values for heterogeneous/empty/all-NULL input. The
    input array is not retained. *)

val of_value_array : Value.t array -> t
(** Wrap an array as a boxed column without sniffing (retains the
    array — do not mutate it afterwards). For freshly computed
    per-row results where a sniffing pass is not worth it. *)

val of_values_typed : Value.ty -> Value.t array -> t
(** Typed build for a column declared as [ty] (e.g. from a CSV schema):
    values of another type are stored as NULL. *)

val of_decoded : data -> Bytes.t -> t
(** [of_decoded data nulls] wraps a decoded payload and its null
    bitmap as-is, retaining both. Internal to the segment reader: the
    caller guarantees what {!of_values_typed} would build — NULL slots
    of [data] hold its dummies (0 / 0. / "" / false), [nulls] is
    [Bytes.empty] when no row is NULL and otherwise
    [(length + 7) / 8] bytes marking exactly the NULL rows, and a
    [Values] payload carries no bitmap. *)

val to_values : t -> Value.t array
(** Materialize the boxed row view of this column. *)

val byte_size : t -> int
(** Serialized size: the sum of [Value.byte_width] over all rows,
    memoized; O(1) for fixed-width columns without nulls. *)

val sel_byte_size : t -> int array -> int
(** [sel_byte_size c sel] is {!byte_size} of [gather c sel], computed
    without gathering or boxing: the sum of [Value.byte_width] over the
    rows [sel] names. O(1) for fixed-width columns without nulls. *)

val gather : t -> int array -> t
(** [gather c ixs] selects rows by index — the materialization
    primitive behind selection vectors, sort permutations and join
    outputs. Typed columns stay typed. *)

val concat : t list -> t
(** Row-wise concatenation (UNION ALL); same-variant inputs stay
    typed. *)

(** Incremental typed column construction for streaming loaders (the
    CSV reader feeds parsed values row-by-row without materializing the
    whole file as boxed rows first). Same NULL discipline as
    {!of_values_typed}: a value of another type is stored as NULL. *)
module Builder : sig
  type column := t

  type t

  val create : ?hint:int -> Value.ty -> t
  (** Fresh builder for a column of type [ty]; [hint] pre-sizes the
      buffer (default 1024). *)

  val add : t -> Value.t -> unit
  (** Append one value; amortized O(1). *)

  val length : t -> int

  val finish : t -> column
  (** Seal into an immutable column — identical to what
      [of_values_typed ty] over the same boxed values would build. The
      builder must not be reused afterwards. *)
end
