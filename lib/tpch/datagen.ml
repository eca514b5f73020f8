(* Deterministic TPC-H-shaped data generator. Follows dbgen's value
   domains (names, segments, types, date ranges, pricing rules) closely
   enough that query selectivities behave like the original, while
   staying small and fully seeded. *)

open Relalg
module Prng = Storage.Prng

let regions = [ "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" ]

(* nation -> region index, the standard dbgen mapping *)
let nations =
  [
    ("ALGERIA", 0); ("ARGENTINA", 1); ("BRAZIL", 1); ("CANADA", 1); ("EGYPT", 4);
    ("ETHIOPIA", 0); ("FRANCE", 3); ("GERMANY", 3); ("INDIA", 2); ("INDONESIA", 2);
    ("IRAN", 4); ("IRAQ", 4); ("JAPAN", 2); ("JORDAN", 4); ("KENYA", 0);
    ("MOROCCO", 0); ("MOZAMBIQUE", 0); ("PERU", 1); ("CHINA", 2); ("ROMANIA", 3);
    ("SAUDI ARABIA", 4); ("VIETNAM", 2); ("RUSSIA", 3); ("UNITED KINGDOM", 3);
    ("UNITED STATES", 1);
  ]

let segments = [ "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" ]
let priorities = [ "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" ]
let type_syl1 = [ "STANDARD"; "SMALL"; "MEDIUM"; "LARGE"; "ECONOMY"; "PROMO" ]
let type_syl2 = [ "ANODIZED"; "BURNISHED"; "PLATED"; "POLISHED"; "BRUSHED" ]
let type_syl3 = [ "TIN"; "NICKEL"; "BRASS"; "STEEL"; "COPPER" ]
let containers = [ "SM CASE"; "LG BOX"; "MED BAG"; "JUMBO JAR"; "WRAP PACK" ]
let instructs = [ "DELIVER IN PERSON"; "COLLECT COD"; "NONE"; "TAKE BACK RETURN" ]
let modes = [ "REG AIR"; "AIR"; "RAIL"; "SHIP"; "TRUCK"; "MAIL"; "FOB" ]
let part_words = [ "almond"; "antique"; "aquamarine"; "azure"; "beige"; "bisque";
                   "black"; "blanched"; "green"; "ivory"; "lemon"; "linen" ]

let vi i = Value.Int i
let vf f = Value.Float (Float.round (f *. 100.) /. 100.)
let vs s = Value.Str s
let vd d = Value.Date d

let day s = Option.get (Value.date_of_string s)
let date_lo = day "1992-01-01"
let date_hi = day "1998-08-02"

type tables = {
  region : Storage.Column.t array;
  nation : Storage.Column.t array;
  supplier : Storage.Column.t array;
  part : Storage.Column.t array;
  partsupp : Storage.Column.t array;
  customer : Storage.Column.t array;
  orders : Storage.Column.t array;
  lineitem : Storage.Column.t array;
}

(* One typed builder per column of the table's schema: each generated
   row lands in them at once and is dropped. *)
let builders name ~hint =
  let def = List.find (fun d -> d.Catalog.Table_def.name = name) (Schema.tables ~sf:1.) in
  Array.of_list (List.map (fun c -> Storage.Column.Builder.create ~hint c.Catalog.Table_def.ty) def.columns)

let add_row bs row = Array.iteri (fun j v -> Storage.Column.Builder.add bs.(j) v) row

let table name n row =
  let bs = builders name ~hint:n in
  for i = 0 to n - 1 do
    add_row bs (row i)
  done;
  Array.map Storage.Column.Builder.finish bs

let generate ?seed ~sf () : tables =
  let g = Prng.create ~seed:(Storage.Seed.resolve ?cli:seed ()) in
  let n_supp = Schema.rows_at sf "supplier" in
  let n_cust = Schema.rows_at sf "customer" in
  let n_part = Schema.rows_at sf "part" in
  let n_ord = Schema.rows_at sf "orders" in
  let region = table "region" (List.length regions) (fun i -> [| vi i; vs (List.nth regions i); vs "r" |]) in
  let nation =
    table "nation" (List.length nations) (fun i ->
        let n, r = List.nth nations i in
        [| vi i; vs n; vi r; vs "n" |])
  in
  let supplier =
    table "supplier" n_supp (fun i ->
        [|
          vi (i + 1);
          vs (Printf.sprintf "Supplier#%09d" (i + 1));
          vs (Printf.sprintf "addr-s%d" (i + 1));
          vi (Prng.int g 25);
          vs (Printf.sprintf "%02d-%07d" (10 + Prng.int g 25) (Prng.int g 9_999_999));
          vf (float_of_int (Prng.range g (-99_900) 999_900) /. 100.);
          vs "s";
        |])
  in
  let part_price i = 90_000. +. (float_of_int ((i / 10) mod 20001)) +. (100. *. float_of_int (i mod 1000)) in
  let part =
    table "part" n_part (fun i ->
        let key = i + 1 in
        [|
          vi key;
          vs (Prng.pick g part_words ^ " " ^ Prng.pick g part_words);
          vs (Printf.sprintf "Manufacturer#%d" (1 + Prng.int g 5));
          vs (Printf.sprintf "Brand#%d%d" (1 + Prng.int g 5) (1 + Prng.int g 5));
          vs (Prng.pick g type_syl1 ^ " " ^ Prng.pick g type_syl2 ^ " " ^ Prng.pick g type_syl3);
          vi (1 + Prng.int g 50);
          vs (Prng.pick g containers);
          vf (part_price key /. 100.);
          vs "p";
        |])
  in
  let partsupp =
    table "partsupp" (n_part * 4) (fun i ->
        let pk = (i / 4) + 1 in
        let sk = 1 + ((pk + (i mod 4 * ((n_supp / 4) + 1))) mod n_supp) in
        [|
          vi pk;
          vi sk;
          vi (1 + Prng.int g 9999);
          vf (1. +. Prng.float g 999.);
          vs "ps";
        |])
  in
  let customer =
    table "customer" n_cust (fun i ->
        [|
          vi (i + 1);
          vs (Printf.sprintf "Customer#%09d" (i + 1));
          vs (Printf.sprintf "addr-c%d" (i + 1));
          vi (Prng.int g 25);
          vs (Printf.sprintf "%02d-%07d" (10 + Prng.int g 25) (Prng.int g 9_999_999));
          vf (float_of_int (Prng.range g (-99_900) 999_900) /. 100.);
          vs (Prng.pick g segments);
          vs "c";
        |])
  in
  let orders = builders "orders" ~hint:n_ord in
  let lineitem = builders "lineitem" ~hint:(n_ord * 9 / 2) in
  for i = 0 to n_ord - 1 do
    let okey = i + 1 in
    let ckey = 1 + Prng.int g n_cust in
    let odate = Prng.range g date_lo (date_hi - 151) in
    let lines = 1 + Prng.int g 7 in
    let total = ref 0. in
    for ln = 1 to lines do
      let pkey = 1 + Prng.int g n_part in
      let skey = 1 + ((pkey + (Prng.int g 4 * ((n_supp / 4) + 1))) mod n_supp) in
      let qty = 1 + Prng.int g 50 in
      let price = part_price pkey /. 100. *. float_of_int qty in
      let disc = float_of_int (Prng.int g 11) /. 100. in
      let tax = float_of_int (Prng.int g 9) /. 100. in
      let sdate = odate + 1 + Prng.int g 121 in
      let cdate = odate + 30 + Prng.int g 61 in
      let rdate = sdate + 1 + Prng.int g 30 in
      total := !total +. (price *. (1. -. disc) *. (1. +. tax));
      add_row lineitem
        [|
          vi okey; vi pkey; vi skey; vi ln; vi qty; vf price; vf disc; vf tax;
          vs (if rdate <= day "1995-06-17" then Prng.pick g [ "R"; "A" ] else "N");
          vs (if sdate > day "1995-06-17" then "O" else "F");
          vd sdate; vd cdate; vd rdate;
          vs (Prng.pick g instructs); vs (Prng.pick g modes); vs "l";
        |]
    done;
    add_row orders
      [|
        vi okey; vi ckey;
        vs (if odate > day "1995-06-17" then "O" else "F");
        vf !total; vd odate;
        vs (Prng.pick g priorities);
        vs (Printf.sprintf "Clerk#%09d" (1 + Prng.int g (max 1 (n_ord / 1000))));
        vi 0; vs "o";
      |]
  done;
  {
    region;
    nation;
    supplier;
    part;
    partsupp;
    customer;
    orders = Array.map Storage.Column.Builder.finish orders;
    lineitem = Array.map Storage.Column.Builder.finish lineitem;
  }

(* Load the generated columns into a database, honouring the catalog's
   partitioning: a table with k placements is split round-robin into k
   partitions. *)
let load ~(cat : Catalog.t) (t : tables) : Storage.Database.t =
  let db = Storage.Database.create () in
  let add name cols =
    let def = Catalog.table_def cat name in
    let schema =
      List.map (fun c -> Attr.make ~rel:name ~name:c) (Catalog.Table_def.col_names def)
    in
    Storage.Database.add_round_robin db ~table:name
      ~partitions:(List.length (Catalog.placements cat name))
      (Storage.Relation.of_cols ~schema ~card:(Storage.Column.length cols.(0)) cols)
  in
  add "region" t.region;
  add "nation" t.nation;
  add "supplier" t.supplier;
  add "part" t.part;
  add "partsupp" t.partsupp;
  add "customer" t.customer;
  add "orders" t.orders;
  add "lineitem" t.lineitem;
  db
