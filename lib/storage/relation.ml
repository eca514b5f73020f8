(* An in-memory materialized relation: a schema of qualified column
   names over exactly one representation — typed columns ([make],
   [of_cols]: one [Column.t] per attribute, see column.ml) or a pager
   over a segment store ([paged]).

   Nothing is cached: [rows] builds a fresh row view on every call and
   [cols] of a paged relation pages every column in. [make] keeps no
   row: it sniffs each column of its rows once into a typed column.
   The vectorized engine runs over the columns; the
   reference interpreter ([Interp]) builds a row view at each scan and
   keeps its intermediates as plain row arrays of its own. *)

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
  let cols = Array.init n (fun j -> Column.of_values (Array.map (fun r -> r.(j)) rows)) in
  { schema; width = n; card = Array.length rows; repr = Cols cols }

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

let is_paged t = match t.repr with Paged _ -> true | Cols _ -> false

let schema t = t.schema
let cardinality t = t.card

let cols t =
  match t.repr with
  | Cols cols -> cols
  | Paged p -> p.load (Array.make t.width true)

let rows t =
  let cols = cols t in
  Array.init t.card (fun i -> Array.init t.width (fun j -> Column.get cols.(j) i))

let read_cols t ~needed =
  match t.repr with
  | Paged p ->
    if Array.length needed <> t.width then
      invalid_arg "Relation.read_cols: mask width differs from the schema's";
    p.load needed
  | Cols cols -> cols

(* Total serialized size in bytes (what a SHIP of this relation moves):
   the sum of [Value.byte_width] over every cell; a paged relation asks
   its pager (a segment store's [meta] records it). *)
let byte_size t =
  match t.repr with
  | Cols cols -> Array.fold_left (fun acc c -> acc + Column.byte_size c) 0 cols
  | Paged p -> p.bytes ()

(* First [n] rows, each column gathered on its own, so a typed column
   stays typed. *)
let take t n =
  if t.card <= n then t
  else
    let ixs = Array.init n Fun.id in
    { t with card = n; repr = Cols (Array.map (fun c -> Column.gather c ixs) (cols t)) }

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
