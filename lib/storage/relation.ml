(* An in-memory materialized relation: a schema of qualified column
   names over column-major storage (one [Column.t] per attribute, see
   column.ml), with a row-view shim for row-at-a-time consumers (the
   reference interpreter, [Geodsl], data generation).

   A relation can be constructed from rows ([make]) or from columns
   ([of_cols]); the other representation is materialized lazily on
   first access and cached. Relations are immutable, so the caches are
   safe to share; the reference interpreter ([Interp]) pays no
   conversion cost on intermediates it builds and consumes as rows,
   while the vectorized engine reads stored base tables column-major
   (the conversion happens once per stored relation, not per query). *)

open Relalg

(* --- attribute resolution ---------------------------------------

   Column positions are resolved through a precomputed index: one
   hashtable keyed by the full qualified attribute (last occurrence
   wins, like the historical linear scan), and one keyed by the bare
   column name holding the position iff that name is unique in the
   schema. Resolution rule (unchanged): exact match first, then a
   unique match on the bare column name. *)

type resolver = {
  by_attr : (Attr.t, int) Hashtbl.t;
  by_name : (string, int option) Hashtbl.t;
      (* [Some i] = unique bare name at [i]; [None] = ambiguous *)
}

let resolver (schema : Attr.t list) : resolver =
  let n = List.length schema in
  let by_attr = Hashtbl.create (max 8 n) in
  let by_name = Hashtbl.create (max 8 n) in
  List.iteri
    (fun i a ->
      Hashtbl.replace by_attr a i;
      (match Hashtbl.find_opt by_name a.Attr.name with
      | None -> Hashtbl.replace by_name a.Attr.name (Some i)
      | Some _ -> Hashtbl.replace by_name a.Attr.name None))
    schema;
  { by_attr; by_name }

let resolve r (a : Attr.t) : int option =
  match Hashtbl.find_opt r.by_attr a with
  | Some _ as hit -> hit
  | None -> (
    match Hashtbl.find_opt r.by_name a.Attr.name with
    | Some (Some _ as hit) ->
      (* the unique bare-name position; never an exact duplicate of
         [a], or [by_attr] would have hit *)
      hit
    | Some None | None -> None)

let lookup_of_schema schema : Attr.t -> Value.t array -> Value.t =
  let r = resolver schema in
  fun a row ->
    match resolve r a with
    | Some ix when ix < Array.length row -> row.(ix)
    | Some _ | None -> Value.Null

type t = {
  schema : Attr.t list;
  width : int;
  card : int;
  mutable rows_v : Value.t array array option;  (* row-view cache *)
  mutable cols_v : Column.t array option;  (* column-major cache *)
  pager : pager option;
      (* [Some _] = disk-backed (segment store). Paged relations never
         cache a materialized view — every [rows]/[cols] access
         re-reads, which is the out-of-core contract (resident working
         set stays the operator's output, not the base table). *)
}

and pager = {
  load : bool array -> Column.t array;
      (* page in the columns whose mask bit is set; the others come
         back as zero-length placeholders *)
  bytes : unit -> int;  (* [byte_size] without paging anything in *)
}

let make ~schema ~rows =
  let n = List.length schema in
  Array.iter
    (fun r ->
      if Array.length r <> n then invalid_arg "Relation.make: row arity mismatch")
    rows;
  { schema; width = n; card = Array.length rows; rows_v = Some rows; cols_v = None; pager = None }

let of_cols ~schema ~card cols =
  let n = List.length schema in
  if Array.length cols <> n then invalid_arg "Relation.of_cols: column arity mismatch";
  Array.iter
    (fun c ->
      if Column.length c <> card then
        invalid_arg "Relation.of_cols: column cardinality mismatch")
    cols;
  { schema; width = n; card; rows_v = None; cols_v = Some cols; pager = None }

let paged ~schema ~card ~load ~byte_size =
  { schema; width = List.length schema; card; rows_v = None; cols_v = None;
    pager = Some { load; bytes = byte_size } }

let is_paged t = t.pager <> None

let empty ~schema = make ~schema ~rows:[||]
let schema t = t.schema
let cardinality t = t.card

(* The row-view shim: row-major [Value.t array array], materialized
   from the columns on first access and cached. Callers must not
   mutate the result. *)
let rows_of_cols t cols =
  Array.init t.card (fun i -> Array.init t.width (fun j -> Column.get cols.(j) i))

let rows t =
  match t.rows_v with
  | Some rows -> rows
  | None -> (
    match t.pager with
    | Some p -> rows_of_cols t (p.load (Array.make t.width true)) (* never cached *)
    | None ->
      let cols = match t.cols_v with Some c -> c | None -> assert false in
      let rows = rows_of_cols t cols in
      t.rows_v <- Some rows;
      rows)

(* Column-major view, materialized from the rows on first access and
   cached; stored base tables are columnarized up front by
   [Database.add], so queries never pay this. Paged relations re-read
   from disk on every access and cache nothing. *)
let cols t =
  match t.cols_v with
  | Some cols -> cols
  | None -> (
    match t.pager with
    | Some p -> p.load (Array.make t.width true)
    | None ->
      let rows = match t.rows_v with Some r -> r | None -> assert false in
      let cols =
        Array.init t.width (fun j ->
            Column.of_values (Array.init t.card (fun i -> rows.(i).(j))))
      in
      t.cols_v <- Some cols;
      cols)

let read_cols t ~needed =
  match t.pager with
  | Some p ->
    if Array.length needed <> t.width then
      invalid_arg "Relation.read_cols: mask width differs from the schema's";
    p.load needed
  | None -> cols t

let columnarize t = if t.pager = None then ignore (cols t)

(* Total serialized size in bytes (what a SHIP of this relation moves).
   Computed on whichever representation is materialized — both sum
   [Value.byte_width] over every cell, so they agree; a paged relation
   asks its pager (a segment store's [meta] records it). *)
let byte_size t =
  match t.cols_v, t.pager with
  | Some cols, _ -> Array.fold_left (fun acc c -> acc + Column.byte_size c) 0 cols
  | None, Some p -> p.bytes ()
  | None, None ->
    Array.fold_left
      (fun acc row -> Array.fold_left (fun acc v -> acc + Value.byte_width v) acc row)
      0 (rows t)

(* Order rows by the given (attribute, descending) keys. Key positions
   are resolved once; unknown attributes read as NULL for every row. *)
let order_by t (keys : (Attr.t * bool) list) =
  let r = resolver t.schema in
  let kix =
    List.map (fun (a, desc) -> ((match resolve r a with Some i -> i | None -> -1), desc)) keys
  in
  let get ix (row : Value.t array) =
    if ix >= 0 && ix < Array.length row then row.(ix) else Value.Null
  in
  let cmp r1 r2 =
    let rec go = function
      | [] -> 0
      | (ix, desc) :: rest ->
        let c = Value.compare (get ix r1) (get ix r2) in
        if c <> 0 then if desc then -c else c else go rest
    in
    go kix
  in
  let rows = Array.copy (rows t) in
  Array.stable_sort cmp rows;
  make ~schema:t.schema ~rows

(* First [n] rows. *)
let take t n =
  if cardinality t <= n then t
  else make ~schema:t.schema ~rows:(Array.sub (rows t) 0 n)

let pp ?(max_rows = 20) ppf t =
  Fmt.pf ppf "%a@." Fmt.(list ~sep:(any " | ") Attr.pp) t.schema;
  Array.iteri
    (fun i row ->
      if i < max_rows then
        Fmt.pf ppf "%a@." Fmt.(array ~sep:(any " | ") Value.pp) row)
    (rows t);
  if cardinality t > max_rows then Fmt.pf ppf "... (%d rows)@." (cardinality t)

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (String.concat "," (List.map Attr.to_string t.schema));
  Buffer.add_char buf '\n';
  Array.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat ","
           (Array.to_list (Array.map Value.to_string row)));
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf
