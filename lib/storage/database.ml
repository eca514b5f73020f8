(* Physical storage: maps (table, partition index) to a materialized
   relation. Partition 0 is the sole partition of unpartitioned
   tables. *)

module Key = struct
  type t = string * int

  let compare = Stdlib.compare
end

module Key_map = Map.Make (Key)

type t = { mutable store : Relation.t Key_map.t }

let create () = { store = Key_map.empty }

let add t ~table ?(partition = 0) rel =
  t.store <- Key_map.add (String.lowercase_ascii table, partition) rel t.store

(* Row [j] goes to partition [j mod partitions], gathered column by
   column, so a typed column stays typed even in an empty partition. *)
let add_round_robin t ~table ~partitions rel =
  if partitions <= 1 then add t ~table rel
  else
    let cols = Relation.cols rel and n = Relation.cardinality rel in
    for i = 0 to partitions - 1 do
      let ixs = Array.init ((n - i + partitions - 1) / partitions) (fun r -> i + (r * partitions)) in
      add t ~table ~partition:i
        (Relation.of_cols ~schema:(Relation.schema rel) ~card:(Array.length ixs)
           (Array.map (fun c -> Column.gather c ixs) cols))
    done

let find t ~table ?(partition = 0) () =
  Key_map.find_opt (String.lowercase_ascii table, partition) t.store

let find_exn t ~table ?(partition = 0) () =
  match find t ~table ~partition () with
  | Some r -> r
  | None ->
    invalid_arg (Printf.sprintf "Database: no relation for %s[%d]" table partition)

let tables t =
  Key_map.bindings t.store |> List.map fst

let total_rows t =
  Key_map.fold (fun _ r acc -> acc + Relation.cardinality r) t.store 0

(* Persist every stored relation as column segments under
   [dir/<table>_<partition>/] and return a database of paged relations
   over them — the out-of-core twin of [t]. *)
let paged t ~dir =
  let out = create () in
  Key_map.iter
    (fun (table, partition) rel ->
      let d = Filename.concat dir (Printf.sprintf "%s_%d" table partition) in
      Segment.write ~dir:d rel;
      add out ~table ~partition (Segment.relation (Segment.openh ~dir:d)))
    t.store;
  out
