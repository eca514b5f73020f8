(* Cardinality feedback store: per-table accumulators of the global
   row count implied by executed scans, folded into a fresh catalog
   once the evidence is strong enough. See feedback.mli and
   docs/FEEDBACK.md. *)

type acc = { mutable n : int; mutable sum : float }

type t = {
  min_obs : int;
  tables : (string, acc) Hashtbl.t;
  mutable observations : int;
  mutable folds : int;
}

let c_observations = Obs.Metrics.counter "cgqp_feedback_observations_total"
let c_folds = Obs.Metrics.counter "cgqp_feedback_folds_total"

(* The relative est-vs-actual gap below which a table is left alone. *)
let threshold = 0.5

let create ?(min_obs = 3) () =
  if min_obs <= 0 then invalid_arg "Feedback.create: min_obs must be positive";
  { min_obs; tables = Hashtbl.create 16; observations = 0; folds = 0 }

let observe t ~cat ~plan ~profile =
  (* per-node profiles are keyed by tree path (child indices from the
     root), the same convention EXPLAIN ANALYZE matches on *)
  let idx = Hashtbl.create 32 in
  List.iter
    (fun (p : Exec.Interp.node_profile) -> Hashtbl.replace idx p.path p)
    profile;
  let rec walk ~path (pl : Exec.Pplan.t) =
    (match pl.Exec.Pplan.node with
    | Exec.Pplan.Table_scan { table; partition; _ } -> (
      match Hashtbl.find_opt idx (List.rev path) with
      | None -> ()
      | Some prof -> (
        match List.nth_opt (Catalog.placements cat table) partition with
        | Some plc when plc.Catalog.fraction > 0. ->
          let implied =
            float_of_int prof.Exec.Interp.actual_rows /. plc.Catalog.fraction
          in
          let a =
            match Hashtbl.find_opt t.tables table with
            | Some a -> a
            | None ->
              let a = { n = 0; sum = 0. } in
              Hashtbl.add t.tables table a;
              a
          in
          a.n <- a.n + 1;
          a.sum <- a.sum +. implied;
          t.observations <- t.observations + 1;
          Obs.Metrics.inc c_observations
        | _ -> ()))
    | _ -> ());
    List.iteri (fun i c -> walk ~path:(i :: path) c) pl.Exec.Pplan.children
  in
  walk ~path:[] plan

let fold t cat =
  (* deterministic sweep: candidate selection and the rebuild both
     follow Catalog.all_tables order, never Hashtbl order *)
  let entries = Catalog.all_tables cat in
  let updates =
    List.filter_map
      (fun (e : Catalog.entry) ->
        let name = e.def.Catalog.Table_def.name in
        match Hashtbl.find_opt t.tables name with
        | Some a when a.n >= t.min_obs ->
          let mean = a.sum /. float_of_int a.n in
          let cur = float_of_int e.def.Catalog.Table_def.row_count in
          if Float.abs (mean -. cur) > threshold *. Float.max cur 1.0 then
            Some (name, max 1 (int_of_float (Float.round mean)))
          else None
        | _ -> None)
      entries
  in
  if updates = [] then None
  else begin
    let tables' =
      List.map
        (fun (e : Catalog.entry) ->
          let def = e.def in
          let def =
            match List.assoc_opt def.Catalog.Table_def.name updates with
            | Some rows -> { def with Catalog.Table_def.row_count = rows }
            | None -> def
          in
          (def, e.placements))
        entries
    in
    List.iter (fun (name, _) -> Hashtbl.remove t.tables name) updates;
    t.folds <- t.folds + 1;
    Obs.Metrics.inc c_folds;
    if Obs.Trace.enabled () then
      Obs.Trace.instant "feedback.fold"
        [
          ("tables", Obs.Json.Num (float_of_int (List.length updates)));
          ( "names",
            Obs.Json.Str (String.concat "," (List.map fst updates)) );
        ];
    Some (Catalog.make ~network:(Catalog.network cat) tables')
  end

let observations t = t.observations
let folds t = t.folds

let converged t ~actual =
  Hashtbl.fold
    (fun name a ok ->
      ok
      &&
      if a.n < t.min_obs then true
      else
        match actual name with
        | None -> true
        | Some rows ->
          let cur = float_of_int rows in
          Float.abs ((a.sum /. float_of_int a.n) -. cur)
          <= threshold *. Float.max cur 1.0)
    t.tables true

let pending t =
  Hashtbl.fold
    (fun name a acc ->
      if a.n > 0 then (name, a.n, a.sum /. float_of_int a.n) :: acc else acc)
    t.tables []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
