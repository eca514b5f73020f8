(* The four policy-expression sets of the evaluation (§7.1): templates
   T (whole tables), C (column subsets), CR (columns + row conditions)
   and CR+A (CR plus aggregate expressions). The sets are crafted so
   that every workload query admits at least one compliant QEP — the
   property the paper requires of its generated expressions — while the
   purely cost-based optimizer is drawn into non-compliant placements
   for the queries reported in Fig. 5(a).

   Table 3's snippet (e1–e5) appears verbatim in the CR / CR+A sets
   where applicable. *)

(* T: restrictions on entire tables (8 expressions, one per table). *)
let set_t =
  [
    "ship * from db-1.customer to L4, L5";
    "ship * from db-1.orders to L4, L5";
    "ship * from db-2.supplier to L1, L3, L4, L5";
    "ship * from db-2.partsupp to L1, L3, L4";
    "ship * from db-3.part to L1, L4, L5";
    "ship * from db-4.lineitem to L1, L5";
    "ship * from db-5.nation to *";
    "ship * from db-5.region to *";
  ]

(* C: column restrictions (10 expressions). Sensitive columns (address,
   phone, comment) never leave their sites. *)
let set_c =
  [
    "ship custkey, name, acctbal, mktsegment, nationkey from db-1.customer to L4, L5";
    "ship orderkey, custkey, orderdate, totalprice, shippriority, orderstatus, \
     orderpriority from db-1.orders to L4, L5";
    "ship orderkey, partkey, suppkey, quantity, extendedprice, discount, shipdate, \
     returnflag, linenumber from db-4.lineitem to L1, L5";
    "ship suppkey, name, acctbal, nationkey from db-2.supplier to L1, L3, L4, L5";
    "ship partkey, suppkey, supplycost, availqty from db-2.partsupp to L1, L3, L4";
    "ship partkey, name, mfgr, brand, type, size, retailprice from db-3.part to L1, L4, L5";
    "ship * from db-5.nation to *";
    "ship * from db-5.region to *";
    "ship custkey, name from db-1.customer to L2, L3";
    "ship partkey, type, size from db-3.part to L1";
  ]

(* CR: columns + row conditions (10 expressions). Orders may carry the
   order date to the lineitem site only for recent orders; part data is
   additionally constrained as in Table 3's e4. *)
let set_cr =
  [
    "ship custkey, name, acctbal, mktsegment, nationkey from db-1.customer to L4, L5";
    "ship orderkey, custkey from db-1.orders to *";
    "ship orderkey, custkey, orderdate, totalprice, shippriority from db-1.orders \
     to L4, L5 where orderdate >= '1994-01-01'";
    "ship orderkey, partkey, suppkey, quantity, extendedprice, discount, shipdate, \
     returnflag, linenumber from db-4.lineitem to L1, L5";
    "ship suppkey, name, acctbal, nationkey from db-2.supplier to L1, L3, L4, L5";
    "ship partkey, suppkey, supplycost, availqty from db-2.partsupp to L1, L3, L4";
    "ship partkey, name, mfgr, brand, type, size, retailprice from db-3.part to L1, L4, L5";
    (* Table 3, e4 *)
    "ship partkey, mfgr, size, type, name from db-3.part to L4 \
     where size > 40 OR type LIKE '%COPPER%'";
    "ship * from db-5.nation to *";
    "ship * from db-5.region to *";
  ]

(* CR+A: CR plus aggregate expressions (11 expressions). Lineitem's
   pricing columns may leave the site raw only towards L5; towards L1
   they must be aggregated per (suppkey, orderkey) — Table 3's e5 — so a
   compliant plan for Q3/Q10 must push the aggregation below the SHIP
   (the paper's Fig. 5(e)). *)
let set_cra =
  [
    "ship custkey, name, acctbal, mktsegment, nationkey from db-1.customer to L4, L5";
    "ship orderkey, custkey from db-1.orders to *";
    "ship orderkey, custkey, orderdate, totalprice, shippriority from db-1.orders \
     to L4, L5 where orderdate >= '1994-01-01'";
    "ship orderkey, partkey, suppkey, quantity, shipdate, returnflag, linenumber \
     from db-4.lineitem to L1, L5";
    "ship extendedprice, discount from db-4.lineitem to L5";
    (* Table 3, e5 *)
    "ship extendedprice, discount as aggregates sum from db-4.lineitem to L1 \
     group by suppkey, orderkey";
    "ship suppkey, name, acctbal, nationkey from db-2.supplier to L1, L3, L4, L5";
    "ship partkey, suppkey, supplycost, availqty from db-2.partsupp to L1, L3, L4";
    "ship partkey, name, mfgr, brand, type, size, retailprice from db-3.part to L1, L4, L5";
    "ship * from db-5.nation to *";
    "ship * from db-5.region to *";
  ]

type set_name = T | C | CR | CRA

let set_name_to_string = function T -> "T" | C -> "C" | CR -> "CR" | CRA -> "CR+A"

let set_name_of_string s =
  match String.lowercase_ascii s with
  | "t" -> Some T
  | "c" -> Some C
  | "cr" -> Some CR
  | "cra" | "cr+a" -> Some CRA
  | _ -> None

let texts = function T -> set_t | C -> set_c | CR -> set_cr | CRA -> set_cra
let texts_of_string s = Option.map texts (set_name_of_string s)

let all_sets = [ T; C; CR; CRA ]

let catalog_of cat set = Policy.Pcatalog.of_texts cat (texts set)

(* Policies that impose no restriction at all: the minimal-overhead
   baseline of Fig. 6(b). *)
let unrestricted =
  List.map
    (fun (t, db, _) -> Printf.sprintf "ship * from %s.%s to *" db t)
    Schema.distribution

(* Table 3 verbatim (for display in benches / docs). *)
let table3 =
  [
    "ship * from db-5.nation to *";
    "ship * from db-5.region to *";
    "ship partkey, suppkey, supplycost from db-2.partsupp to L3, L4";
    "ship partkey, mfgr, size, type, name from db-3.part to L4 \
     where size > 40 OR type LIKE '%COPPER%'";
    "ship extendedprice, discount as aggregates sum from db-4.lineitem to L1 \
     group by suppkey, orderkey";
  ]
