(* The six TPC-H queries of the paper's workload (§7.1), adapted to the
   Select-Project-Join-GroupBy subset: the join/aggregation core of each
   query, without ORDER BY / LIMIT / nested subqueries. Q2's
   correlated minimum-cost subquery is flattened into a second
   partsupp–supplier–nation–region chain, preserving its "high
   complexity" join count. *)

let q2 =
  "SELECT s.acctbal, s.name, n.name AS nation, p.partkey, p.mfgr \
   FROM part p, partsupp ps, supplier s, nation n, region r, \
        partsupp ps2, supplier s2, nation n2, region r2 \
   WHERE p.partkey = ps.partkey AND s.suppkey = ps.suppkey \
     AND s.nationkey = n.nationkey AND n.regionkey = r.regionkey \
     AND r.name = 'EUROPE' AND p.size = 15 AND p.type LIKE '%BRASS' \
     AND p.partkey = ps2.partkey AND s2.suppkey = ps2.suppkey \
     AND s2.nationkey = n2.nationkey AND n2.regionkey = r2.regionkey"

let q3 =
  "SELECT o.orderkey, o.orderdate, o.shippriority, \
          SUM(l.extendedprice * (1 - l.discount)) AS revenue \
   FROM customer c, orders o, lineitem l \
   WHERE c.mktsegment = 'BUILDING' AND c.custkey = o.custkey \
     AND l.orderkey = o.orderkey \
     AND o.orderdate < '1995-03-15' AND l.shipdate > '1995-03-15' \
   GROUP BY o.orderkey, o.orderdate, o.shippriority"

let q5 =
  "SELECT n.name, SUM(l.extendedprice * (1 - l.discount)) AS revenue \
   FROM customer c, orders o, lineitem l, supplier s, nation n, region r \
   WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey \
     AND l.suppkey = s.suppkey AND c.nationkey = s.nationkey \
     AND s.nationkey = n.nationkey AND n.regionkey = r.regionkey \
     AND r.name = 'ASIA' \
     AND o.orderdate >= '1994-01-01' AND o.orderdate < '1995-01-01' \
   GROUP BY n.name"

let q8 =
  "SELECT n2.name, SUM(l.extendedprice * (1 - l.discount)) AS volume \
   FROM part p, supplier s, lineitem l, orders o, customer c, \
        nation n1, nation n2, region r \
   WHERE p.partkey = l.partkey AND s.suppkey = l.suppkey \
     AND l.orderkey = o.orderkey AND o.custkey = c.custkey \
     AND c.nationkey = n1.nationkey AND n1.regionkey = r.regionkey \
     AND s.nationkey = n2.nationkey AND r.name = 'AMERICA' \
     AND o.orderdate >= '1995-01-01' AND o.orderdate <= '1996-12-31' \
     AND p.type = 'ECONOMY ANODIZED STEEL' \
   GROUP BY n2.name"

let q9 =
  "SELECT n.name, \
          SUM(l.extendedprice * (1 - l.discount) - ps.supplycost * l.quantity) AS profit \
   FROM part p, supplier s, lineitem l, partsupp ps, orders o, nation n \
   WHERE s.suppkey = l.suppkey AND ps.suppkey = l.suppkey \
     AND ps.partkey = l.partkey AND p.partkey = l.partkey \
     AND o.orderkey = l.orderkey AND s.nationkey = n.nationkey \
     AND p.name LIKE '%green%' \
   GROUP BY n.name"

let q10 =
  "SELECT c.custkey, c.name, c.acctbal, n.name AS nation, \
          SUM(l.extendedprice * (1 - l.discount)) AS revenue \
   FROM customer c, orders o, lineitem l, nation n \
   WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey \
     AND c.nationkey = n.nationkey \
     AND o.orderdate >= '1993-10-01' AND o.orderdate < '1994-01-01' \
     AND l.returnflag = 'R' \
   GROUP BY c.custkey, c.name, c.acctbal, n.name"

(* (name, sql) pairs; the paper's workload *)
let all = [ ("Q2", q2); ("Q3", q3); ("Q5", q5); ("Q8", q8); ("Q9", q9); ("Q10", q10) ]

(* --- extended workload: six more TPC-H queries that fit the
   Select-Project-Join-GroupBy subset, beyond the paper's six. Q1/Q6 are
   single-site (lineitem only); Q7 carries a disjunctive cross-table
   predicate; Q12 compares columns to columns; Q19 is the classic
   OR-of-conjunctions query. --- *)

let q1 =
  "SELECT l.returnflag, l.linestatus, SUM(l.quantity) AS sum_qty,           SUM(l.extendedprice) AS sum_base,           SUM(l.extendedprice * (1 - l.discount)) AS sum_disc,           AVG(l.quantity) AS avg_qty, COUNT(*) AS count_order    FROM lineitem l WHERE l.shipdate <= '1998-09-02'    GROUP BY l.returnflag, l.linestatus    ORDER BY l.returnflag, l.linestatus"

let q6 =
  "SELECT SUM(l.extendedprice * l.discount) AS revenue FROM lineitem l    WHERE l.shipdate >= '1994-01-01' AND l.shipdate < '1995-01-01'      AND l.discount >= 0.05 AND l.discount <= 0.07 AND l.quantity < 24"

let q7 =
  "SELECT n1.name AS supp_nation, n2.name AS cust_nation,           SUM(l.extendedprice * (1 - l.discount)) AS revenue    FROM supplier s, lineitem l, orders o, customer c, nation n1, nation n2    WHERE s.suppkey = l.suppkey AND o.orderkey = l.orderkey      AND c.custkey = o.custkey AND s.nationkey = n1.nationkey      AND c.nationkey = n2.nationkey      AND ((n1.name = 'FRANCE' AND n2.name = 'GERMANY')           OR (n1.name = 'GERMANY' AND n2.name = 'FRANCE'))      AND l.shipdate >= '1995-01-01' AND l.shipdate <= '1996-12-31'    GROUP BY n1.name, n2.name"

let q11 =
  "SELECT ps.partkey, SUM(ps.supplycost * ps.availqty) AS value    FROM partsupp ps, supplier s, nation n    WHERE ps.suppkey = s.suppkey AND s.nationkey = n.nationkey      AND n.name = 'GERMANY'    GROUP BY ps.partkey"

let q12 =
  "SELECT l.shipmode, COUNT(*) AS order_count    FROM orders o, lineitem l    WHERE o.orderkey = l.orderkey AND l.shipmode IN ('MAIL', 'SHIP')      AND l.commitdate < l.receiptdate AND l.shipdate < l.commitdate      AND l.receiptdate >= '1994-01-01' AND l.receiptdate < '1995-01-01'    GROUP BY l.shipmode"

let q19 =
  "SELECT SUM(l.extendedprice * (1 - l.discount)) AS revenue    FROM lineitem l, part p    WHERE p.partkey = l.partkey      AND ((p.brand = 'Brand#12' AND l.quantity >= 1 AND l.quantity <= 11            AND p.size >= 1 AND p.size <= 5)           OR (p.brand = 'Brand#23' AND l.quantity >= 10 AND l.quantity <= 20               AND p.size >= 1 AND p.size <= 10)           OR (p.brand = 'Brand#34' AND l.quantity >= 20 AND l.quantity <= 30               AND p.size >= 1 AND p.size <= 15))"

let extended =
  [ ("Q1", q1); ("Q6", q6); ("Q7", q7); ("Q11", q11); ("Q12", q12); ("Q19", q19) ]

let all_extended = all @ extended

let resolve q = Option.value (List.assoc_opt (String.uppercase_ascii q) all_extended) ~default:q

let by_name name =
  match List.assoc_opt (String.uppercase_ascii name) all_extended with
  | Some q -> q
  | None -> invalid_arg ("Tpch.Queries.by_name: " ^ name)
