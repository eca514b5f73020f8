(** A memo-based top-down optimizer in the style of the Volcano
    optimizer generator (§6.1 of the paper), extended with the
    compliance machinery:

    - groups of logically-equivalent expressions, deduplicated by a
      structural key over each m-expression with its children named by
      group id. The key induces the equivalence {!Normalize.canon}
      defines; no plan is built or printed to look a group up;
    - transformation rules: join commutativity and associativity, eager
      aggregation pushdown (the rewrite §6.4 identifies as necessary for
      completeness), and filter/projection distribution over partition
      unions;
    - annotation rules AR1–AR4 deriving {e execution traits} ℰ (where an
      operator may legally run) and {e shipping traits} 𝒮 (where its
      output may legally be sent) bottom-up;
    - the compliance-based cost function: alternatives with an empty
      execution trait have infinite cost, i.e. are pruned.

    Because the phase-1 cost model ignores data location (two-phase
    optimization, §6), plan cost is independent of traits; each group
    keeps a small Pareto frontier of (cost, 𝒮) alternatives — the
    analogue of Calcite's trait-bearing equivalence nodes whose
    plan-space growth the paper reports in §7.3. *)

open Relalg
module Locset = Catalog.Location.Set

type gid = int
(** Memo-group identifier. *)

type mexpr =
  | E_scan of {
      table : string;
      alias : string;
      partition : int;
      location : Catalog.Location.t;
      fraction : float;
    }
  | E_filter of Pred.t * gid
  | E_project of (Expr.scalar * Attr.t) list * gid
  | E_join of Pred.t * gid * gid
  | E_agg of Attr.t list * Expr.agg list * gid
  | E_union of gid list
      (** a multi-expression whose children are memo groups *)

type group = {
  id : gid;
  repr : Plan.t;
      (** canonical logical form ({!Normalize.canon}), built once when
          the group is created. It orders a join's leaves and labels
          the [memo.group] trace instant. Group identity is the
          structural key, not this plan, and [summary] and [est] are
          derived from the child groups' stored results, not from it *)
  mutable exprs : mexpr list;
  mutable explored : bool;
  mutable entries : entry list option;
  est : Stats.node_est;
      (** [Stats.estimate repr], scaled by the partition fraction for a
          partition-tagged group; a partition scan's own estimate *)
  base : Stats.node_est;
      (** the unscaled estimate ([Stats.estimate repr]), which parent
          groups derive theirs from *)
  attrs : Attr.Set.t;  (** output columns, the attributes of [est.cols] *)
  summary : Summary.t;  (** [Summary.analyze repr] *)
  env : Summary.env;  (** [summary]'s environment, which parent groups derive from *)
  tables : (string * string) list;
  partition_tag : int;  (** >= 0 when the subtree reads one partition *)
  single_loc : Catalog.Location.t option;
  policy_ships : Locset.t Lazy.t;  (** AR4 contribution (evaluated once) *)
  lb : float;
      (** static lower bound on any entry's cost (summed base-table scan
          estimates), used by branch-and-bound pruning *)
  leaves : gid list;
      (** sorted leaf groups of the join tree; [[id]] for a non-join group *)
  conjuncts : int list;
      (** sorted interned ids ({!Pred.intern}) of the conjuncts over the
          whole join tree; [[]] for a non-join group *)
}

and entry = {
  cost : float;
  exec_trait : Locset.t;  (** ℰ *)
  ship_trait : Locset.t;  (** 𝒮 *)
  order : (Attr.t * bool) list;  (** delivered sort order (attr, desc) *)
  phys : phys;
  mex : mexpr;
  sub : entry list;  (** chosen child entries, in child order *)
}

(** Physical alternative: joins may run as hash (default; preserves the
    probe side's order) or as merge with sort enforcers on unsorted
    inputs — the Volcano enforcer mechanism of the paper's Figure 3. *)
and phys = P_default | P_merge of { sort_left : bool; sort_right : bool }

type mode =
  | Compliant  (** trait-annotating optimizer (the paper's contribution) *)
  | Traditional
      (** purely cost-based baseline ("Calcite as-is"): no annotation
          rules, no eager aggregation, all locations treated legal *)

type rules = {
  join_commute : bool;
  join_associate : bool;
  eager_aggregation : bool;
  union_pushdown : bool;
}
(** Transformation-rule toggles, for the ablation experiments. *)

val default_rules : rules
(** All rules enabled. *)

type prune_stats = {
  bound : float;  (** the branch-and-bound upper bound U; infinite = never seeded *)
  groups_pruned : int;  (** groups skipped outright (lower bound above U) *)
  entries_pruned : int;  (** annotated candidates dropped for costing above U *)
  combos_pruned : int;  (** join child combinations skipped before annotation *)
}

type t

val create :
  ?prune:bool ->
  ?rules:rules ->
  ?eval_stats:Policy.Evaluator.stats ->
  mode:mode ->
  cat:Catalog.t ->
  policies:Policy.Pcatalog.t ->
  unit ->
  t
(** [prune] (default true) enables branch-and-bound: {!extract} first
    costs the plan as ingested — a complete plan whose cost U bounds
    the optimum — then skips groups, candidates and join combos whose
    cost provably exceeds U. Chosen plans are unaffected: every entry
    of the optimal plan costs at most U, so only non-optimal
    alternatives are discarded. *)

val prune_stats : t -> prune_stats
(** Branch-and-bound counters accumulated so far (zeros when [prune]
    is off or {!extract} has not run). *)

val group : t -> gid -> group
(** Look up a group by id (raises [Not_found] on an unknown id). *)

val group_count : t -> int
(** Number of groups — the plan-space size the §7.3 experiments
    report. *)

val ingest : t -> Plan.t -> gid
(** Insert a (normalized) logical plan, expanding partitioned scans into
    unions of per-partition scans (§7.5). *)

val explore : t -> group -> unit
(** Apply transformation rules to fixpoint. *)

val entries_of : t -> group -> entry list
(** The group's Pareto frontier of annotated alternatives (explores on
    demand). Empty in compliant mode means no compliant plan exists for
    this group. *)

(** {2 Phase-1 result} *)

type anode = {
  uid : int;
  shape : Exec.Pplan.node;
  children : anode list;
  exec : Locset.t;  (** execution trait, consumed by the site selector *)
  rows : float;
  width : float;
}
(** A node of the annotated best plan. *)

val pp_anode : ?indent:int -> Format.formatter -> anode -> unit
(** Render the annotated plan with each operator's execution trait —
    useful for understanding why a placement was (im)possible. *)

val extract :
  ?required_order:(Attr.t * bool) list -> t -> gid -> (anode * float) option
(** Cheapest annotated plan of the group with its phase-1 cost, or
    [None] when the query must be rejected. [required_order] is the
    root's desired sort order (part of the §6.2 optimization goal): a
    final Sort enforcer is added when the best plan does not already
    deliver it. *)
