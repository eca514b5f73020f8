(** The six TPC-H queries of the paper's workload (§7.1), adapted to
    the Select-Project-Join-GroupBy subset. Join counts: Q3 = 2,
    Q10 = 3, Q5 = Q9 = 5, Q8 = 7, Q2 = 8 (the paper's low / medium /
    high complexity buckets). *)

val q2 : string
val q3 : string
val q5 : string
val q8 : string
val q9 : string
val q10 : string

val all : (string * string) list
(** [(name, sql)] pairs in Q2, Q3, Q5, Q8, Q9, Q10 order — the paper's
    workload. *)

(** {2 Extended workload}

    Six more TPC-H queries fitting the SPJG subset, beyond the paper's
    six: Q1 and Q6 are single-site pricing summaries over lineitem, Q7
    carries a disjunctive cross-table predicate, Q11 is a three-way
    value rollup, Q12 compares date columns to each other, and Q19 is
    the OR-of-conjunctions part/lineitem query. *)

val q1 : string
val q6 : string
val q7 : string
val q11 : string
val q12 : string
val q19 : string

val extended : (string * string) list
val all_extended : (string * string) list

val resolve : string -> string
(** The SQL of a built-in name (case-insensitive, over {!all_extended}),
    or the text itself. *)

val by_name : string -> string
(** Case-insensitive lookup over {!all_extended}; raises
    [Invalid_argument] for unknown names. *)
