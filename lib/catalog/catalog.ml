(* The geo-distributed catalog: which tables exist, in which database at
   which location each (partition of a) table lives, and the network
   connecting the sites. The global schema is the union of local schemas
   (GAV mapping, §7.1): a global table maps to one local table per
   placement; a table with several placements is horizontally
   partitioned and is read as the union of its partitions (§7.5). *)

(* [catalog.ml] doubles as the library's root module: re-export the
   sibling modules so users write [Catalog.Network], [Catalog.Location],
   [Catalog.Table_def]. *)
module Location = Location
module Network = Network
module Table_def = Table_def

module String_map = Map.Make (String)

type placement = {
  db : string;  (* local database name, e.g. "db-1" *)
  location : Location.t;
  fraction : float;  (* share of the global rows stored here *)
}

type entry = { def : Table_def.t; placements : placement list }

type replica = {
  site : Location.t;
  lag_ms : float;  (* declared staleness bound of the copy *)
  pin : Location.t option;  (* jurisdiction pin: copy only valid there *)
}

(* Replica sets are keyed per (table, partition index): the primary copy
   is always the partition's placement, replicas are the alternatives. *)
module Replica_map = Map.Make (struct
  type t = string * int

  let compare = compare
end)

type t = {
  tables : entry String_map.t;
  network : Network.t;
  replicas : replica list Replica_map.t;
  stamp : int;  (* unique per catalog; keys cross-catalog caches *)
}

(* Catalogs are immutable after [make], so a construction-time stamp
   identifies one soundly for the lifetime of the process. *)
let next_stamp = ref 0

let fresh_stamp () =
  incr next_stamp;
  !next_stamp

let make ~network tables =
  let m =
    List.fold_left
      (fun m (def, placements) ->
        if placements = [] then invalid_arg "Catalog.make: table without placement";
        String_map.add def.Table_def.name { def; placements } m)
      String_map.empty tables
  in
  {
    tables = m;
    network;
    replicas = Replica_map.empty;
    stamp = fresh_stamp ();
  }

let stamp t = t.stamp

let network t = t.network

(* Swap the network (e.g. for a fault-masked copy during degraded
   re-planning). The stamp is kept: policy verdicts depend on tables,
   policies and the location list — all unchanged — so caches keyed by
   the stamp stay sound across the swap. *)
let with_network t network = { t with network }
let locations t = Network.locations t.network

let find_table t name = String_map.find_opt (String.lowercase_ascii name) t.tables

let table_exn t name =
  match find_table t name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Catalog: unknown table %s" name)

let table_def t name = (table_exn t name).def
let placements t name = (table_exn t name).placements

let is_partitioned t name = List.length (placements t name) > 1

(* Location of a non-partitioned table. *)
let home_location t name =
  match placements t name with
  | [ p ] -> p.location
  | ps -> (List.hd ps).location

let table_cols t name = Table_def.col_names (table_def t name)

let all_tables t = String_map.bindings t.tables |> List.map snd

(* The database housed at a location (the paper assumes one database per
   location); used to report which policy set applies. *)
let db_at t loc =
  String_map.fold
    (fun _ e acc ->
      List.fold_left
        (fun acc p -> if String.equal p.location loc then Some p.db else acc)
        acc e.placements)
    t.tables None

(* Tables (global names) whose placement includes [loc]. *)
let tables_at t loc =
  String_map.fold
    (fun name e acc ->
      if List.exists (fun p -> String.equal p.location loc) e.placements then name :: acc
      else acc)
    t.tables []
  |> List.rev

(* Resolve an aliased scan: all placements of the table. *)
let resolve t ~table = placements t table

(* ---- Replica sets -------------------------------------------------- *)

(* Attach replica sets. A fresh stamp is mandatory: replica assignment
   changes which plans the optimizer may produce, so every stamp-keyed
   cache (plan cache, verdict caches) must treat the result as a new
   catalog. An unattached catalog — and any single-replica set, whose
   only copy is the primary — behaves byte-for-byte like before. *)
let with_replicas t assignments =
  let locs = Network.locations t.network in
  let known l = List.exists (String.equal l) locs in
  let replicas =
    List.fold_left
      (fun m (table, partition, (rs : replica list)) ->
        let table = String.lowercase_ascii table in
        let ps = placements t table in
        if partition < 0 || partition >= List.length ps then
          invalid_arg
            (Printf.sprintf "Catalog.with_replicas: %s has no partition %d" table
               partition);
        (match rs with
        | [] -> invalid_arg "Catalog.with_replicas: empty replica set"
        | first :: _ ->
          let primary = (List.nth ps partition).location in
          if not (String.equal first.site primary) then
            invalid_arg
              (Printf.sprintf
                 "Catalog.with_replicas: first replica of %s/%d must be the \
                  primary placement %s (got %s)"
                 table partition primary first.site));
        List.iter
          (fun r ->
            if not (known r.site) then
              invalid_arg
                (Printf.sprintf "Catalog.with_replicas: unknown site %s" r.site);
            if r.lag_ms < 0. then
              invalid_arg "Catalog.with_replicas: negative lag_ms";
            match r.pin with
            | Some p when not (known p) ->
              invalid_arg
                (Printf.sprintf "Catalog.with_replicas: unknown pin %s" p)
            | _ -> ())
          rs;
        Replica_map.add (table, partition) rs m)
      t.replicas assignments
  in
  { t with replicas; stamp = fresh_stamp () }

let replicas t ~table ~partition =
  match Replica_map.find_opt (String.lowercase_ascii table, partition) t.replicas with
  | Some rs -> rs
  | None -> []

let has_replicas t = not (Replica_map.is_empty t.replicas)

let replica_map t =
  Replica_map.fold (fun (table, partition) rs acc -> (table, partition, rs) :: acc)
    t.replicas []
  |> List.rev

let pp ppf t =
  String_map.iter
    (fun _ e ->
      Fmt.pf ppf "%a @@ %a@."
        Table_def.pp e.def
        Fmt.(list ~sep:comma (using (fun p -> p.db ^ "/" ^ p.location) string))
        e.placements)
    t.tables
