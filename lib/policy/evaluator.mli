(** The policy evaluation algorithm 𝒜 — Algorithm 1 of the paper.

    Given the {!Relalg.Summary.t} of a (sub)query pertaining to a single
    database and the policy catalog, compute the set of locations to
    which the query's output can legally be shipped.

    The disclosure model is conservative (§4): an attribute ships
    nowhere unless some expression sanctions it, opaque derivations
    yield the empty set, and columns accessed by predicates carry
    obligations of their own. Matching the paper's worked examples, the
    result always includes the home location of every non-partitioned
    referenced table (data is already there). *)

open Relalg

type stats = {
  mutable eta : int;
      (** the paper's η: (expression, evaluation) pairs whose ship
          attributes overlap the query and whose implication holds *)
  mutable implication_tests : int;
}

val fresh_stats : unit -> stats

type requirement = {
  col : Summary.base_col;
  agg : Expr.agg_fn option;
  group_key : bool;
  accessed_only : bool;
}
(** One per-attribute obligation derived from the summary (exposed for
    testing). *)

val requirements_of_summary : Summary.t -> requirement list option
(** [None] when some output is opaque. *)

val locations_for :
  ?stats:stats ->
  ?include_home:bool ->
  catalog:Catalog.t ->
  policies:Pcatalog.t ->
  Summary.t ->
  Catalog.Location.Set.t
(** 𝒜(q, D, 𝒫). [include_home] (default true) adds the home locations
    of non-partitioned referenced tables; the optimizer passes [false]
    because rule AR1/AR3 already account for them via traits.

    Results are memoized on (catalog stamp, policy-catalog stamp,
    include_home, summary) unless the cache is disabled; the key hashes
    with {!Relalg.Summary.hash} and compares with [compare = 0]. Cache hits
    replay the instrumentation increments (η, implication tests) the
    original evaluation produced, so [stats] stay exact. *)

val locations_for_uncached :
  ?stats:stats ->
  ?include_home:bool ->
  catalog:Catalog.t ->
  policies:Pcatalog.t ->
  Summary.t ->
  Catalog.Location.Set.t
(** The same evaluation, bypassing the verdict cache — the baseline the
    differential suite compares against. *)

val set_cache_enabled : bool -> unit
(** Globally enable/disable the verdict cache (default enabled). *)

val cache_stats : unit -> int * int
(** [(hits, misses)] since the last {!reset_cache}. *)

val reset_cache : unit -> unit
