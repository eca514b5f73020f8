(** Query summaries: what the policy evaluator (Algorithm 1 of the
    paper) sees of a (sub)plan.

    A summary exposes the output attributes with their base-column
    provenance and aggregation status, the conjunction of predicates
    normalized to base columns, the group-by columns, and the set of
    base columns {e accessed} by predicates (disclosed through
    filtering even when projected away, cf. §4.1 "accesses only the
    specified cells").

    The analysis is deliberately {e sound but incomplete}: any
    derivation it cannot track precisely is marked [opaque], which the
    evaluator treats as "shippable nowhere". *)

type base_col = { table : string; column : string }
(** A column of a base table (global name). *)

val base_col_compare : base_col -> base_col -> int
val base_col_equal : base_col -> base_col -> bool
val pp_base_col : Format.formatter -> base_col -> unit

type out_ref = {
  name : string;  (** output column name *)
  sources : base_col list;  (** base columns it derives from *)
  agg : Expr.agg_fn option;  (** aggregation applied, if any *)
  group_key : bool;  (** grouping attribute exposed in the output *)
  opaque : bool;  (** derivation beyond the analysis *)
}

type t = {
  tables : (string * string) list;  (** alias -> global table name *)
  outputs : out_ref list;
  pred : Pred.t;  (** over base columns [Attr {rel=table; name=column}] *)
  group_cols : base_col list option;  (** [Some _] iff aggregation query *)
  accessed : (base_col * Expr.agg_fn option) list;
      (** columns read by predicates *)
  valid : bool;  (** false when the plan shape is beyond the analysis *)
}

val is_aggregate : t -> bool

val compose_agg : outer:Expr.agg_fn -> inner:Expr.agg_fn -> Expr.agg_fn option
(** Re-aggregation of a partial aggregate: sum∘sum = sum,
    sum∘count = count, min/max idempotent; anything else is beyond the
    analysis ([None]). *)

val analyze : table_cols:(string -> string list) -> Plan.t -> t
(** Compute the summary of a logical plan. [table_cols] supplies base
    table column lists (may raise for unknown tables). *)

(** {2 One step per operator}

    [analyze] is the fold of these steps over a plan. Each step
    computes an operator's summary and environment from its children's
    [(t, env)] pairs, so a caller that keeps each subplan's pair (the
    optimizer's memo groups) derives a parent's without walking the
    subplans again. *)

type env
(** The columns a (sub)plan exposes, each bound to its {!out_ref}. *)

val scan : table_cols:(string -> string list) -> table:string -> alias:string -> t * env
val select : Pred.t -> t * env -> t * env
val project : (Expr.scalar * Attr.t) list -> t * env -> t * env
val join : Pred.t -> t * env -> t * env -> t * env
val aggregate : keys:Attr.t list -> aggs:Expr.agg list -> t * env -> t * env

val union : (t * env) list -> t * env
(** Branches in plan order; the first one's outputs and environment
    are the union's. *)

val hash : t -> int
(** A hash over every field of a summary, consistent with
    [Stdlib.compare s s' = 0]: unlike [Hashtbl.hash], it reads the
    whole summary, and it tells [Int 1] from [Float 1.] constants as
    [compare] does. *)

val pp : Format.formatter -> t -> unit
