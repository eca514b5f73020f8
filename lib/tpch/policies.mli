(** The four policy-expression sets of the evaluation (§7.1):
    templates T (entire tables), C (column subsets), CR (columns + row
    conditions) and CR+A (CR plus aggregate expressions), crafted so
    that every workload query admits a compliant QEP while the purely
    cost-based optimizer is drawn into the non-compliant placements of
    Fig. 5(a). Table 3's snippet appears verbatim where applicable. *)

val set_t : string list
(** 8 expressions, one per table. *)

val set_c : string list
(** 10 expressions. *)

val set_cr : string list
(** 10 expressions. *)

val set_cra : string list
(** 11 expressions. *)

type set_name = T | C | CR | CRA

val set_name_to_string : set_name -> string

val set_name_of_string : string -> set_name option
(** Case-insensitive: [T], [C], [CR], and [CRA] or [CR+A]. *)

val texts : set_name -> string list

val texts_of_string : string -> string list option
(** The {!texts} of a set named as {!set_name_of_string} reads it. *)

val all_sets : set_name list

val catalog_of : Catalog.t -> set_name -> Policy.Pcatalog.t

val unrestricted : string list
(** [ship * from t to *] for every table — the minimal-overhead baseline
    of Fig. 6(b). *)

val table3 : string list
(** The paper's Table 3 snippet, verbatim. *)
