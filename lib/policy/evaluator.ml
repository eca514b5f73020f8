(* The policy evaluation algorithm 𝒜 (Algorithm 1 of the paper).

   Given the summary of a (sub)query pertaining to a single database and
   the policy catalog, it returns the set of locations to which the
   query's output can legally be shipped. The disclosure model is
   conservative (§4): an attribute is shippable nowhere unless some
   policy expression says otherwise, and any output whose derivation the
   summary analysis could not track ([opaque]) makes the result empty.

   Two refinements match the paper's worked examples (§3.1, §4.1):
   - the result always contains the home location of every
     (non-partitioned) referenced table — data may always "ship" to the
     site it already resides at (e.g. 𝒜(Π_n(σ_a=100(C)), D_N, P_N) =
     {N});
   - columns *accessed* by predicates are disclosed through filtering
     ("if a subquery accesses only the specified cells, then its output
     can be shipped"), so they carry obligations even when projected
     away — this is what restricts σ_a=100 above. *)

open Relalg
module Locset = Catalog.Location.Set

(* Mutable instrumentation, cf. §7.5: [eta] counts the (expression,
   evaluation) pairs for which ship attributes overlap the query's
   attributes and the implication test holds — the paper's η_{q,|E|}.
   [implication_tests] counts calls to the implication test. *)
type stats = { mutable eta : int; mutable implication_tests : int }

let fresh_stats () = { eta = 0; implication_tests = 0 }

(* Global observability instruments. Unlike the per-run [stats] record,
   these accumulate across the whole process and feed the metrics
   registry ([--metrics], CGQP_METRICS_OUT); cache hits replay their
   recorded increments so η stays exact either way. *)
let c_eta = Obs.Metrics.counter "cgqp_policy_eta_total"
let c_impl_tests = Obs.Metrics.counter "cgqp_policy_implication_tests_total"

let c_cache_hit =
  Obs.Metrics.counter
    ~labels:[ ("cache", "evaluator"); ("outcome", "hit") ]
    "cgqp_policy_cache_total"

let c_cache_miss =
  Obs.Metrics.counter
    ~labels:[ ("cache", "evaluator"); ("outcome", "miss") ]
    "cgqp_policy_cache_total"

(* One per-attribute obligation extracted from the query summary. *)
type requirement = {
  col : Summary.base_col;
  agg : Expr.agg_fn option;
  group_key : bool;
  accessed_only : bool;  (* read by a predicate, not part of the output *)
}

let requirements_of_summary (s : Summary.t) : requirement list option =
  (* None = some output is opaque: evaluate to the empty location set *)
  let exception Opaque in
  try
    let of_outputs =
      List.concat_map
        (fun (r : Summary.out_ref) ->
          if r.opaque then raise Opaque
          else
            List.map
              (fun col ->
                { col; agg = r.agg; group_key = r.group_key; accessed_only = false })
              r.sources)
        s.outputs
    in
    let of_group =
      match s.group_cols with
      | None -> []
      | Some gs ->
        List.map (fun col -> { col; agg = None; group_key = true; accessed_only = false }) gs
    in
    let of_accessed =
      List.map
        (fun (col, agg) -> { col; agg; group_key = false; accessed_only = true })
        s.accessed
    in
    let dedup rs =
      List.fold_left
        (fun acc r ->
          if
            List.exists
              (fun r' ->
                Summary.base_col_equal r.col r'.col
                && r.agg = r'.agg && r.group_key = r'.group_key
                && r.accessed_only = r'.accessed_only)
              acc
          then acc
          else r :: acc)
        [] rs
      |> List.rev
    in
    Some (dedup (of_outputs @ of_group @ of_accessed))
  with Opaque -> None

let mem_col c cols = List.exists (String.equal c) cols

(* Group-by columns of the summary that belong to [table]. *)
let group_cols_of s table =
  match s.Summary.group_cols with
  | None -> []
  | Some gs ->
    List.filter_map
      (fun (g : Summary.base_col) ->
        if String.equal g.table table then Some g.column else None)
      gs

(* Case 3 of Algorithm 1 (lines 6–10): does aggregate expression [e]
   sanction [r] for an aggregation query? The group-by attributes of the
   query restricted to [e]'s table must be a subset of G_e (the empty
   subset included); then the attribute must be a sanctioned grouping
   column, or a ship attribute aggregated by a sanctioned function. *)
let aggregate_case_grants (s : Summary.t) (e : Expression.t) (r : requirement) =
  let gq = group_cols_of s e.Expression.table in
  List.for_all (fun g -> mem_col g e.Expression.group_by) gq
  && (mem_col r.col.column e.Expression.group_by
     ||
     match r.agg with
     | Some f ->
       (not r.group_key)
       && mem_col r.col.column e.Expression.ship_cols
       && List.mem f e.Expression.agg_fns
     | None -> false)

(* Home locations: sites where a referenced table (non-partitioned)
   already resides. *)
let home_locations (catalog : Catalog.t) (s : Summary.t) =
  List.fold_left
    (fun acc (_, table) ->
      match Catalog.find_table catalog table with
      | Some { placements = [ p ]; _ } -> Locset.add p.Catalog.location acc
      | Some _ | None -> acc)
    Locset.empty s.Summary.tables

let locations_for_uncached ?stats ?(include_home = true) ~(catalog : Catalog.t)
    ~(policies : Pcatalog.t) (s : Summary.t) : Locset.t =
  let all_locations = Locset.of_list (Catalog.locations catalog) in
  let home = if include_home then home_locations catalog s else Locset.empty in
  if not s.valid then Locset.empty
  else
    match requirements_of_summary s with
    | None -> Locset.empty
    | Some [] ->
      (* No attribute obligations (e.g. a bare COUNT( * )): under the
         attribute-based disclosure model nothing restricted is
         shipped. *)
      all_locations
    | Some reqs ->
      let is_agg_query = Summary.is_aggregate s in
      let tables =
        List.sort_uniq String.compare (List.map (fun r -> r.col.Summary.table) reqs)
      in
      (* Per expression: does the implication hold? Evaluated once, with
         η updated when ship attributes overlap the query's attributes
         (Algorithm 1, line 2). Keyed by physical identity: the same
         expression values flow from the policy catalog to every
         lookup. *)
      let applicable : (Expression.t * bool) list ref = ref [] in
      List.iter
        (fun table ->
          List.iter
            (fun (e : Expression.t) ->
              let shares_attr =
                List.exists
                  (fun r ->
                    String.equal r.col.Summary.table e.Expression.table
                    && mem_col r.col.Summary.column e.Expression.ship_cols)
                  reqs
              in
              if shares_attr then begin
                (match stats with
                | Some st -> st.implication_tests <- st.implication_tests + 1
                | None -> ());
                Obs.Metrics.inc c_impl_tests;
                let holds = Implication.implies s.pred e.Expression.pred in
                if holds then begin
                  Option.iter (fun st -> st.eta <- st.eta + 1) stats;
                  Obs.Metrics.inc c_eta
                end;
                if Obs.Trace.enabled () then
                  Obs.Trace.instant "policy.verdict"
                    [
                      ("table", Obs.Json.Str e.Expression.table);
                      ("expr", Obs.Json.Str e.Expression.text);
                      ("holds", Obs.Json.Bool holds);
                    ];
                applicable := (e, holds) :: !applicable
              end
              else applicable := (e, false) :: !applicable)
            (Pcatalog.for_table policies table))
        tables;
      let locations_of_requirement r =
        List.fold_left
          (fun acc (e : Expression.t) ->
            if not (List.assq_opt e !applicable = Some true) then acc
            else if Expression.is_basic e then
              (* Cases 1 & 2: a basic expression covers the attribute in
                 raw form, hence also any aggregation of it. *)
              if mem_col r.col.Summary.column e.Expression.ship_cols then
                Locset.union acc e.Expression.to_locs
              else acc
            else if is_agg_query && aggregate_case_grants s e r then
              Locset.union acc e.Expression.to_locs
            else acc)
          Locset.empty
          (Pcatalog.for_table policies r.col.Summary.table)
      in
      let granted =
        List.fold_left
          (fun acc r -> Locset.inter acc (locations_of_requirement r))
          all_locations reqs
      in
      Locset.union granted home

(* -- Compliance-verdict cache -------------------------------------

   Algorithm 1 is pure in (catalog, policies, include_home, summary);
   both catalogs are immutable and carry construction-time stamps, and
   summaries are plain data, so the whole evaluation memoizes on a
   structural key. The key hashes with [Summary.hash], which reads the
   whole summary (the polymorphic hash stops after ten meaningful
   words, so summaries sharing their leading tables and outputs would
   share a bucket), and compares with [compare = 0]: [Pred.equal]
   would equate [Int 1] and [Float 1.] constants, which the summary
   keeps apart. Cached entries also record how much they bumped the
   instrumentation counters (η, implication tests), and hits replay
   those increments — E7-style η reports stay exact whether or not the
   cache is warm. The [enabled] switch exists for the differential
   suite. *)

type verdict = { locs : Locset.t; d_eta : int; d_tests : int }

type key = { cat : int; pols : int; home : bool; summary : Summary.t }

module Verdict_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.cat = b.cat && a.pols = b.pols && a.home = b.home
    && (a.summary == b.summary || Stdlib.compare a.summary b.summary = 0)

  let hash k = (((Summary.hash k.summary * 31) + k.cat) * 31) + k.pols + Bool.to_int k.home
end)

let cache : verdict Verdict_tbl.t = Verdict_tbl.create 1024
let enabled = ref true
let hits = ref 0
let misses = ref 0
let max_entries = 1 lsl 16

let set_cache_enabled b = enabled := b
let cache_stats () = (!hits, !misses)

let reset_cache () =
  Verdict_tbl.reset cache;
  hits := 0;
  misses := 0

let replay stats ~d_eta ~d_tests =
  match stats with
  | None -> ()
  | Some st ->
    st.eta <- st.eta + d_eta;
    st.implication_tests <- st.implication_tests + d_tests

let locations_for ?stats ?(include_home = true) ~(catalog : Catalog.t)
    ~(policies : Pcatalog.t) (s : Summary.t) : Locset.t =
  if not !enabled then locations_for_uncached ?stats ~include_home ~catalog ~policies s
  else
    let key =
      { cat = Catalog.stamp catalog; pols = Pcatalog.stamp policies; home = include_home;
        summary = s }
    in
    match Verdict_tbl.find_opt cache key with
    | Some v ->
      incr hits;
      Obs.Metrics.inc c_cache_hit;
      (* replay the recorded increments into the registry too, so the
         global η counter is cache-transparent like the stats record *)
      Obs.Metrics.inc ~by:v.d_eta c_eta;
      Obs.Metrics.inc ~by:v.d_tests c_impl_tests;
      replay stats ~d_eta:v.d_eta ~d_tests:v.d_tests;
      v.locs
    | None ->
      incr misses;
      Obs.Metrics.inc c_cache_miss;
      let local = fresh_stats () in
      let locs = locations_for_uncached ~stats:local ~include_home ~catalog ~policies s in
      if Verdict_tbl.length cache >= max_entries then Verdict_tbl.reset cache;
      Verdict_tbl.add cache key { locs; d_eta = local.eta; d_tests = local.implication_tests };
      replay stats ~d_eta:local.eta ~d_tests:local.implication_tests;
      locs
