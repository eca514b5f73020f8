(* An in-memory materialized relation: a schema of qualified column
   names over exactly one representation — boxed rows ([make]), typed
   columns ([of_cols], one [Column.t] per attribute, see column.ml) or
   a pager over a segment store ([paged]).

   Nothing is cached: [rows] on a columnar relation and [cols] on a row
   relation convert on every call. Stored base tables are columnar
   ([Database.add] stores a row relation's columns), so the vectorized
   engine's scans convert nothing, while the reference interpreter
   ([Interp]) builds a row view of a base table at each scan and keeps
   its own intermediates as rows. *)

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
  repr : repr;
}

and repr =
  | Rows of Value.t array array
  | Cols of Column.t array
  | Paged of pager
      (* disk-backed (segment store): every access re-reads, which is
         the out-of-core contract (the resident working set stays the
         operators' output, not the base table) *)

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
  { schema; width = n; card = Array.length rows; repr = Rows rows }

let of_cols ~schema ~card cols =
  let n = List.length schema in
  if Array.length cols <> n then invalid_arg "Relation.of_cols: column arity mismatch";
  Array.iter
    (fun c ->
      if Column.length c <> card then
        invalid_arg "Relation.of_cols: column cardinality mismatch")
    cols;
  { schema; width = n; card; repr = Cols cols }

let paged ~schema ~card ~load ~byte_size =
  { schema; width = List.length schema; card; repr = Paged { load; bytes = byte_size } }

let is_paged t = match t.repr with Paged _ -> true | Rows _ | Cols _ -> false

let schema t = t.schema
let cardinality t = t.card

let rows_of_cols t cols =
  Array.init t.card (fun i -> Array.init t.width (fun j -> Column.get cols.(j) i))

let rows t =
  match t.repr with
  | Rows rows -> rows
  | Cols cols -> rows_of_cols t cols
  | Paged p -> rows_of_cols t (p.load (Array.make t.width true))

let cols t =
  match t.repr with
  | Cols cols -> cols
  | Rows rows ->
    Array.init t.width (fun j -> Column.of_values (Array.init t.card (fun i -> rows.(i).(j))))
  | Paged p -> p.load (Array.make t.width true)

let read_cols t ~needed =
  match t.repr with
  | Paged p ->
    if Array.length needed <> t.width then
      invalid_arg "Relation.read_cols: mask width differs from the schema's";
    p.load needed
  | Rows _ | Cols _ -> cols t

(* Total serialized size in bytes (what a SHIP of this relation moves):
   the sum of [Value.byte_width] over every cell, whichever the
   representation; a paged relation asks its pager (a segment store's
   [meta] records it). *)
let byte_size t =
  match t.repr with
  | Cols cols -> Array.fold_left (fun acc c -> acc + Column.byte_size c) 0 cols
  | Paged p -> p.bytes ()
  | Rows rows ->
    Array.fold_left
      (fun acc row -> Array.fold_left (fun acc v -> acc + Value.byte_width v) acc row)
      0 rows

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
