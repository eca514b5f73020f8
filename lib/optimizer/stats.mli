(** Cardinality and width estimation for logical plans, driven by
    catalog statistics. System-R style selectivities; only relative
    magnitudes matter, exactly as in the paper's cost model (§6). *)

open Relalg

type col_info = {
  distinct : float;  (** estimated distinct values *)
  width : float;  (** average value width, bytes *)
  lo : float option;  (** numeric minimum, when known *)
  hi : float option;  (** numeric maximum, when known *)
}
(** Per-column statistics, seeded from the catalog at the scans and
    propagated (and capped) through the operators above. *)

type key = {
  key_cols : Attr.t list;
  key_rows : float;
      (** rows of the relation the columns are a unique key of: their
          combined values number at most this, whatever filters,
          projections and joins sit above *)
}
(** A unique key, carried as estimation metadata: a table's catalog key
    from its scan, or an aggregate's group keys. It is kept while all
    its columns survive (a projection renames or drops it) and through
    joins, which do not add values; a union keeps none. *)

type node_est = { rows : float; cols : (Attr.t * col_info) list; keys : key list }
(** Estimated output of one logical operator. *)

val width_of : node_est -> float
(** Estimated row width in bytes. *)

val find_col : node_est -> Attr.t -> col_info
(** Exact match, then unique bare-name match, then a default. *)

val selectivity : node_est -> Pred.t -> float
(** Fraction of input rows satisfying the predicate (System-R
    defaults: [1/distinct] for equality, range interpolation from
    [lo]/[hi]; conjuncts multiply as if independent). {!join} does not
    treat equalities that cover a key as independent. *)

val estimate : Catalog.t -> Plan.t -> node_est
(** Bottom-up estimate of a whole logical plan: the fold of the steps
    below. *)

(** {2 One step per operator}

    Each step estimates an operator's output from its inputs'
    estimates, so a caller that keeps each subplan's estimate (the
    optimizer's memo groups) derives a parent's without walking the
    subplans again. Applied in the plan's order, the steps give
    [estimate]'s floats bit for bit. *)

val scan_est : Catalog.t -> table:string -> alias:string -> fraction:float -> node_est
(** Estimate for one partition of a table ([fraction] of its rows);
    [estimate] scans with [~fraction:1.0]. The table's catalog key is
    its key, with the whole table's rows. *)

val select : node_est -> Pred.t -> node_est
val project : node_est -> (Expr.scalar * Attr.t) list -> node_est

val join : Pred.t -> node_est -> node_est -> node_est
(** [join p left right]: [selectivity] of [p] over the cross product,
    except for column equalities that cover a key. When the equalities
    between the same two aliases cover, on one side, a key of the cross
    product, those on the covered key's columns — two or more — are one
    predicate: its distinct count on each side is [min(key_rows,
    product of the side's column distinct counts)], and the rows are
    divided by the larger. So a join on a composite key keeps the other
    side's rows instead of multiplying one [1/distinct] per column;
    every other conjunct, including an equality on a non-key column of
    the same pair, keeps its [selectivity] factor. The output keeps
    both inputs' keys. *)

val aggregate : keys:Attr.t list -> aggs:Expr.agg list -> node_est -> node_est
(** The group keys are the output's key, with the group count as its
    rows. *)

val union : node_est list -> node_est
(** Branches in plan order; the first one's columns are the union's.
    It keeps no key. *)
