open Relalg
module Prng = Storage.Prng

let test_prng_deterministic () =
  let a = Prng.create ~seed:99 and b = Prng.create ~seed:99 in
  let xs = List.init 100 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 100 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check (list int)) "same stream" xs ys;
  let c = Prng.create ~seed:100 in
  let zs = List.init 100 (fun _ -> Prng.int c 1_000_000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_prng_bounds () =
  let g = Prng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 10_000 do
    let v = Prng.range g (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "range out of bounds: %d" v
  done;
  for _ = 1 to 1_000 do
    let f = Prng.float g 1.0 in
    if f < 0. || f >= 1.0001 then Alcotest.failf "float out of bounds: %f" f
  done

let test_prng_pick_k () =
  let g = Prng.create ~seed:5 in
  let xs = [ 1; 2; 3; 4; 5; 6 ] in
  let k = Prng.pick_k g 4 xs in
  Alcotest.(check int) "k elements" 4 (List.length k);
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare k));
  List.iter (fun x -> Alcotest.(check bool) "member" true (List.mem x xs)) k

let test_prng_distribution () =
  (* coarse uniformity: each bucket within 3x of expectation *)
  let g = Prng.create ~seed:123 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket reasonable" true (c > 300 && c < 3000))
    buckets

let schema = [ Attr.make ~rel:"t" ~name:"a"; Attr.make ~rel:"t" ~name:"b" ]

let rel rows =
  Storage.Relation.make ~schema
    ~rows:(Array.of_list (List.map (fun (a, b) -> [| Value.Int a; Value.Str b |]) rows))

let test_relation_basic () =
  let r = rel [ (1, "x"); (2, "y") ] in
  Alcotest.(check int) "cardinality" 2 (Storage.Relation.cardinality r);
  Alcotest.(check bool) "byte size positive" true (Storage.Relation.byte_size r > 0)

let test_relation_lookup () =
  let r = rel [ (1, "x") ] in
  let look = Storage.Relation.lookup_of_schema (Storage.Relation.schema r) in
  let row = (Storage.Relation.rows r).(0) in
  Alcotest.(check bool) "exact" true
    (Value.equal (look (Attr.make ~rel:"t" ~name:"a") row) (Value.Int 1));
  Alcotest.(check bool) "by bare name" true
    (Value.equal (look (Attr.unqualified "b") row) (Value.Str "x"));
  Alcotest.(check bool) "missing is null" true
    (Value.equal (look (Attr.unqualified "zzz") row) Value.Null)

let test_relation_arity_check () =
  match
    Storage.Relation.make ~schema ~rows:[| [| Value.Int 1 |] |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch must be rejected"

let test_database () =
  let db = Storage.Database.create () in
  Storage.Database.add db ~table:"t" (rel [ (1, "x") ]);
  Storage.Database.add db ~table:"t" ~partition:1 (rel [ (2, "y") ]);
  Alcotest.(check int) "total rows" 2 (Storage.Database.total_rows db);
  Alcotest.(check bool) "find p0" true (Storage.Database.find db ~table:"t" () <> None);
  Alcotest.(check bool) "find p1" true
    (Storage.Database.find db ~table:"t" ~partition:1 () <> None);
  Alcotest.(check bool) "missing" true
    (Storage.Database.find db ~table:"nope" () = None);
  (* case-insensitive table names *)
  Alcotest.(check bool) "case" true (Storage.Database.find db ~table:"T" () <> None)

let test_order_by_and_take () =
  let r = rel [ (3, "c"); (1, "a"); (2, "b"); (1, "z") ] in
  let sorted = Storage.Relation.order_by r [ (Attr.make ~rel:"t" ~name:"a", false) ] in
  let firsts =
    Array.to_list (Storage.Relation.rows sorted) |> List.map (fun row -> row.(0))
  in
  Alcotest.(check bool) "ascending" true
    (firsts = [ Value.Int 1; Value.Int 1; Value.Int 2; Value.Int 3 ]);
  (* stability: the two key-1 rows keep their original relative order *)
  let seconds =
    Array.to_list (Storage.Relation.rows sorted) |> List.map (fun row -> row.(1))
  in
  Alcotest.(check bool) "stable" true
    (List.filteri (fun i _ -> i < 2) seconds = [ Value.Str "a"; Value.Str "z" ]);
  let top2 = Storage.Relation.take sorted 2 in
  Alcotest.(check int) "take" 2 (Storage.Relation.cardinality top2);
  Alcotest.(check int) "take beyond size is identity" 4
    (Storage.Relation.cardinality (Storage.Relation.take sorted 100))

let test_split_independence () =
  let g = Prng.create ~seed:4 in
  let h = Prng.split g in
  let a = List.init 50 (fun _ -> Prng.int g 1000) in
  let b = List.init 50 (fun _ -> Prng.int h 1000) in
  Alcotest.(check bool) "streams differ" true (a <> b)

(* --- columnar storage ---------------------------------------------

   The column-major representation behind [Relation.t]: every value
   (and its NULL bit) must survive rows -> columns -> rows for every
   [Value.ty], attribute resolution must be unaffected by the layout,
   and CSV loads land column-major with the declared types. *)

module Col = Storage.Column

let all_tys = [ Value.Tint; Value.Tfloat; Value.Tstr; Value.Tdate; Value.Tbool ]

let value_gen_of_ty ty =
  let open QCheck.Gen in
  match ty with
  | Value.Tint -> map (fun i -> Value.Int i) small_signed_int
  | Value.Tfloat -> map (fun i -> Value.Float (float_of_int i /. 8.)) small_signed_int
  | Value.Tstr -> map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 8))
  | Value.Tdate -> map (fun d -> Value.Date d) (int_range 0 100_000)
  | Value.Tbool -> map (fun b -> Value.Bool b) bool

let nullable_gen ty =
  QCheck.Gen.(frequency [ (1, return Value.Null); (3, value_gen_of_ty ty) ])

let prop_column_roundtrip =
  let gen =
    let open QCheck.Gen in
    oneofl all_tys >>= fun ty ->
    list_size (int_range 0 300) (nullable_gen ty) >>= fun vs ->
    return (ty, Array.of_list vs)
  in
  QCheck.Test.make ~count:300 ~name:"column round trip (values and null bitmap)"
    (QCheck.make
       ~print:(fun (ty, vs) ->
         Fmt.str "%s: %a" (Value.ty_to_string ty)
           Fmt.(array ~sep:comma (of_to_string Value.to_string))
           vs)
       gen)
    (fun (ty, vs) ->
      let typed = Col.of_values_typed ty vs in
      let sniffed = Col.of_values (Array.copy vs) in
      let identical c =
        Col.length c = Array.length vs
        && Array.for_all2 Value.equal vs (Col.to_values c)
        && Array.for_all
             (fun i -> Col.is_null c i = Value.is_null vs.(i))
             (Array.init (Array.length vs) (fun i -> i))
      in
      identical typed && identical sniffed
      (* gathering by the identity permutation changes nothing *)
      && Array.for_all2 Value.equal vs
           (Col.to_values
              (Col.gather typed (Array.init (Array.length vs) (fun i -> i))))
      (* a selection's byte count is its gather's, in any order *)
      &&
      let sel =
        Array.of_list
          (List.rev (List.filter (fun i -> i mod 3 <> 1) (List.init (Array.length vs) Fun.id)))
      in
      List.for_all
        (fun c -> Col.sel_byte_size c sel = Col.byte_size (Col.gather c sel))
        [ typed; sniffed ])

let prop_relation_roundtrip =
  let row_gen =
    let rec seq = function
      | [] -> QCheck.Gen.return []
      | g :: gs ->
        QCheck.Gen.(g >>= fun v -> seq gs >>= fun vs -> return (v :: vs))
    in
    QCheck.Gen.map Array.of_list (seq (List.map nullable_gen all_tys))
  in
  let schema5 =
    List.mapi (fun i _ -> Attr.make ~rel:"u" ~name:(Printf.sprintf "c%d" i)) all_tys
  in
  QCheck.Test.make ~count:200 ~name:"relation rows -> columns -> rows identity"
    (QCheck.make QCheck.Gen.(map Array.of_list (list_size (int_range 0 200) row_gen)))
    (fun rows ->
      let r = Storage.Relation.make ~schema:schema5 ~rows in
      (* force the columnar side, then rebuild the row view from a fresh
         relation over those very columns *)
      let r2 =
        Storage.Relation.of_cols ~schema:schema5 ~card:(Array.length rows)
          (Storage.Relation.cols r)
      in
      let rows2 = Storage.Relation.rows r2 in
      Array.length rows = Array.length rows2
      && Array.for_all2 (fun a b -> Array.for_all2 Value.equal a b) rows rows2)

let test_duplicate_attr_resolution () =
  (* exact match first, last occurrence winning on duplicates; bare-name
     lookup only resolves when unique — unchanged by the columnar layout *)
  let a_r = Attr.make ~rel:"r" ~name:"a" and a_s = Attr.make ~rel:"s" ~name:"a" in
  let b = Attr.make ~rel:"r" ~name:"b" in
  let r =
    Storage.Relation.make ~schema:[ a_r; a_s; b ]
      ~rows:[| [| Value.Int 1; Value.Int 2; Value.Int 3 |] |]
  in
  (* resolve over the columnar form a database stores *)
  let r =
    Storage.Relation.of_cols ~schema:(Storage.Relation.schema r) ~card:1
      (Storage.Relation.cols r)
  in
  let position rel =
    Storage.Relation.resolve (Storage.Relation.resolver (Storage.Relation.schema rel))
  in
  Alcotest.(check bool) "exact r.a" true (position r a_r = Some 0);
  Alcotest.(check bool) "exact s.a" true (position r a_s = Some 1);
  Alcotest.(check bool) "ambiguous bare a" true
    (position r (Attr.unqualified "a") = None);
  Alcotest.(check bool) "unique bare b" true
    (position r (Attr.unqualified "b") = Some 2);
  let dup =
    Storage.Relation.make ~schema:[ a_r; a_r ]
      ~rows:[| [| Value.Int 1; Value.Int 2 |] |]
  in
  Alcotest.(check bool) "duplicate exact last wins" true
    (position dup a_r = Some 1);
  let look = Storage.Relation.lookup_of_schema (Storage.Relation.schema dup) in
  Alcotest.(check bool) "lookup uses the winning column" true
    (Value.equal (look a_r (Storage.Relation.rows dup).(0)) (Value.Int 2))

let test_csv_golden () =
  let csv = "a,b,c\n1,\"he said \"\"hi\"\"\",2.5\n,\"x,y\",\n3,,0.25\n" in
  let schema =
    [
      Attr.make ~rel:"t" ~name:"a";
      Attr.make ~rel:"t" ~name:"b";
      Attr.make ~rel:"t" ~name:"c";
    ]
  in
  let r =
    Storage.Csv.parse ~schema ~types:[ Value.Tint; Value.Tstr; Value.Tfloat ] csv
  in
  Alcotest.(check int) "three rows" 3 (Storage.Relation.cardinality r);
  let expect =
    [|
      [| Value.Int 1; Value.Str "he said \"hi\""; Value.Float 2.5 |];
      [| Value.Null; Value.Str "x,y"; Value.Null |];
      [| Value.Int 3; Value.Null; Value.Float 0.25 |];
    |]
  in
  let rows = Storage.Relation.rows r in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if not (Value.equal v expect.(i).(j)) then
            Alcotest.failf "row %d col %d: %s, expected %s" i j (Value.to_string v)
              (Value.to_string expect.(i).(j)))
        row)
    rows;
  (* the load landed column-major with the declared types, NULLs in the
     bitmap rather than as a boxed-values fallback *)
  let cols = Storage.Relation.cols r in
  (match cols.(0).Col.data with
  | Col.Ints _ -> ()
  | _ -> Alcotest.fail "int column not int-backed");
  (match cols.(2).Col.data with
  | Col.Floats _ -> ()
  | _ -> Alcotest.fail "float column not float-backed");
  Alcotest.(check bool) "a null bit" true (Col.is_null cols.(0) 1);
  Alcotest.(check bool) "b null bit" true (Col.is_null cols.(1) 2);
  Alcotest.(check bool) "non-null bit clear" false (Col.is_null cols.(0) 0)

let test_byte_size_layout_independent () =
  (* serialized size is a property of the values, not the layout *)
  let r = rel [ (1, "x"); (2, "yy"); (3, "zzz") ] in
  let manual =
    Array.fold_left
      (fun acc row ->
        acc + Array.fold_left (fun a v -> a + Value.byte_width v) 0 row)
      0 (Storage.Relation.rows r)
  in
  Alcotest.(check int) "row view" manual (Storage.Relation.byte_size r);
  let rc = Storage.Relation.of_cols ~schema ~card:3 (Storage.Relation.cols r) in
  Alcotest.(check int) "columnar view" manual (Storage.Relation.byte_size rc)

let test_byte_size_pinned () =
  (* exact accounting, pinned: strings are a 4-byte length prefix plus
     the heap bytes, NULL slots are 1 byte whatever the column type *)
  let c =
    Col.of_values_typed Value.Tstr
      [| Value.Str "ab"; Value.Null; Value.Str ""; Value.Str "xyz" |]
  in
  Alcotest.(check int) "strs: offsets + heap" (6 + 1 + 4 + 7) (Col.byte_size c);
  let ci =
    Col.of_values_typed Value.Tint [| Value.Int 1; Value.Null; Value.Int 3 |]
  in
  Alcotest.(check int) "ints with nulls" (8 + 1 + 8) (Col.byte_size ci);
  let cb = Col.of_values_typed Value.Tbool [| Value.Bool true; Value.Bool false |] in
  Alcotest.(check int) "bools" 2 (Col.byte_size cb);
  let cd = Col.of_values_typed Value.Tdate [| Value.Date 1; Value.Null |] in
  Alcotest.(check int) "dates" (4 + 1) (Col.byte_size cd);
  (* ... and always equal to the boxed per-value widths *)
  let boxed c =
    Array.fold_left (fun a v -> a + Value.byte_width v) 0 (Col.to_values c)
  in
  List.iter
    (fun c -> Alcotest.(check int) "matches boxed widths" (boxed c) (Col.byte_size c))
    [ c; ci; cb; cd ]

let test_all_null_sniffed_is_null () =
  (* an all-NULL input gives the sniffer no type evidence, so it lands
     in the boxed fallback with no bitmap — [is_null] must still hold
     (regression: it used to consult only the bitmap) *)
  List.iter
    (fun n ->
      let c = Col.of_values (Array.make n Value.Null) in
      for i = 0 to n - 1 do
        Alcotest.(check bool) "sniffed all-NULL is_null" true (Col.is_null c i);
        Alcotest.(check bool) "get yields NULL" true
          (Value.is_null (Col.get c i))
      done)
    [ 1; 9 ]

(* --- disk-backed segment store --------------------------------------

   Round trips must be representation-exact: same column variant (the
   meta file stores the tag), same values, same null bitmap, same
   byte_size — so a paged relation is indistinguishable from the
   resident one to both engines. *)

let fresh_dir () =
  let f = Filename.temp_file "cgqp-segtest-" "" in
  Sys.remove f;
  f ^ ".d"

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    try Sys.rmdir d with Sys_error _ -> ()
  end

let col_tag (c : Col.t) =
  match c.Col.data with
  | Col.Ints _ -> 0
  | Col.Floats _ -> 1
  | Col.Strs _ -> 2
  | Col.Dates _ -> 3
  | Col.Bools _ -> 4
  | Col.Values _ -> 5

let same_col (a : Col.t) (b : Col.t) =
  col_tag a = col_tag b
  && Col.length a = Col.length b
  && Bytes.equal a.Col.nulls b.Col.nulls
  && Array.for_all2 Value.equal (Col.to_values a) (Col.to_values b)
  && Array.for_all
       (fun i -> Col.is_null a i = Col.is_null b i)
       (Array.init (Col.length a) (fun i -> i))
  && Col.byte_size a = Col.byte_size b

let seg_schema =
  List.mapi (fun i _ -> Attr.make ~rel:"s" ~name:(Printf.sprintf "c%d" i)) all_tys

(* deterministic mixed-type relation with NULLs sprinkled in *)
let seg_rel n =
  let cols =
    Array.of_list
      (List.mapi
         (fun j ty ->
           Col.of_values_typed ty
             (Array.init n (fun i ->
                  if (i + j) mod 7 = 0 then Value.Null
                  else
                    match ty with
                    | Value.Tint -> Value.Int ((i * 3) - 1)
                    | Value.Tfloat -> Value.Float (float_of_int i /. 4.)
                    | Value.Tstr -> Value.Str (String.make (i mod 5) 'x')
                    | Value.Tdate -> Value.Date (10_000 + i)
                    | Value.Tbool -> Value.Bool (i mod 2 = 0))))
         all_tys)
  in
  Storage.Relation.of_cols ~schema:seg_schema ~card:n cols

let check_seg_roundtrip n =
  let r = seg_rel n in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Storage.Segment.write ~dir r;
  let h = Storage.Segment.openh ~dir in
  Alcotest.(check int) "cardinality" n (Storage.Segment.cardinality h);
  let segs = (n + Storage.Segment.segment_rows - 1) / Storage.Segment.segment_rows in
  Alcotest.(check int) "segment count" segs (Storage.Segment.num_segments h);
  let cols = Storage.Segment.read_all h in
  let orig = Storage.Relation.cols r in
  Array.iteri
    (fun j c ->
      if not (same_col orig.(j) c) then
        Alcotest.failf "column %d not representation-identical after round trip" j)
    cols;
  let pr = Storage.Segment.relation h in
  Alcotest.(check bool) "is_paged" true (Storage.Relation.is_paged pr);
  Alcotest.(check bool) "resident relation is not paged" false
    (Storage.Relation.is_paged r);
  Alcotest.(check int) "paged byte_size" (Storage.Relation.byte_size r)
    (Storage.Relation.byte_size pr)

let test_segment_empty () = check_seg_roundtrip 0
let test_segment_one_row () = check_seg_roundtrip 1
let test_segment_exact_64k () = check_seg_roundtrip Storage.Segment.segment_rows
let test_segment_64k_plus_one () =
  check_seg_roundtrip (Storage.Segment.segment_rows + 1)

let test_segment_all_null_and_values () =
  (* an all-NULL typed column and a boxed [Values] column both keep
     their variant through the round trip — no sniffing on read *)
  let n = 10 in
  let sch = [ Attr.make ~rel:"s" ~name:"n"; Attr.make ~rel:"s" ~name:"v" ] in
  let cn = Col.of_values_typed Value.Tint (Array.make n Value.Null) in
  let cv =
    Col.of_value_array
      (Array.init n (fun i -> if i mod 2 = 0 then Value.Int i else Value.Str "m"))
  in
  let r = Storage.Relation.of_cols ~schema:sch ~card:n [| cn; cv |] in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Storage.Segment.write ~dir r;
  let cols = Storage.Segment.read_all (Storage.Segment.openh ~dir) in
  Alcotest.(check bool) "all-NULL int column" true (same_col cn cols.(0));
  Alcotest.(check bool) "boxed Values column" true (same_col cv cols.(1))

let test_segment_page_reads () =
  let r = seg_rel 100 in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Storage.Segment.write ~dir r;
  let pr = Storage.Segment.relation (Storage.Segment.openh ~dir) in
  Storage.Segment.reset_page_reads ();
  ignore (Storage.Relation.rows pr);
  let r1 = Storage.Segment.page_reads () in
  Alcotest.(check bool) "reads counted" true (r1 > 0);
  Alcotest.(check bool) "bytes counted" true (Storage.Segment.page_read_bytes () > 0);
  ignore (Storage.Relation.rows pr);
  (* the out-of-core contract: paged relations never cache *)
  Alcotest.(check bool) "second access pages again" true
    (Storage.Segment.page_reads () > r1)

let test_segment_byte_size_from_meta () =
  (* a paged relation's byte_size is the one [write] recorded in meta:
     it equals the resident value and decodes nothing *)
  let r = seg_rel (Storage.Segment.segment_rows + 1) in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Storage.Segment.write ~dir r;
  let pr = Storage.Segment.relation (Storage.Segment.openh ~dir) in
  Storage.Segment.reset_page_reads ();
  Alcotest.(check int) "equals resident" (Storage.Relation.byte_size r)
    (Storage.Relation.byte_size pr);
  Alcotest.(check int) "same again" (Storage.Relation.byte_size r)
    (Storage.Relation.byte_size pr);
  Alcotest.(check int) "no page read" 0 (Storage.Segment.page_reads ());
  Alcotest.(check int) "no payload byte decoded" 0 (Storage.Segment.page_read_bytes ());
  (* a directory of the footer format, whose meta has no byte count,
     is refused by its magic *)
  let meta = Filename.concat dir "meta" in
  let text = In_channel.with_open_text meta In_channel.input_all in
  let nl = String.index text '\n' in
  Out_channel.with_open_text meta (fun oc ->
      output_string oc ("cgqp-segments 1" ^ String.sub text nl (String.length text - nl)));
  match Storage.Segment.openh ~dir with
  | _ -> Alcotest.fail "an older meta opened"
  | exception Failure m ->
    Alcotest.(check bool) "older meta: bad meta magic" true
      (String.starts_with ~prefix:"Segment: bad meta magic" m)

let test_segment_masked_read_all () =
  (* every mask over a boxed mixed-type column, an all-NULL typed column
     and a string column, across two segments: the needed columns read
     back representation-identical, the others as zero-length
     placeholders, and only the needed column files are read *)
  let n = Storage.Segment.segment_rows + 1 in
  let sch =
    [ Attr.make ~rel:"m" ~name:"v"; Attr.make ~rel:"m" ~name:"n"; Attr.make ~rel:"m" ~name:"s" ]
  in
  let cols =
    [|
      Col.of_value_array
        (Array.init n (fun i ->
             match i mod 3 with 0 -> Value.Int i | 1 -> Value.Str "m" | _ -> Value.Null));
      Col.of_values_typed Value.Tint (Array.make n Value.Null);
      Col.of_values_typed Value.Tstr
        (Array.init n (fun i -> if i mod 5 = 0 then Value.Null else Value.Str (string_of_int i)));
    |]
  in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Storage.Segment.write ~dir (Storage.Relation.of_cols ~schema:sch ~card:n cols);
  let h = Storage.Segment.openh ~dir in
  for m = 0 to 7 do
    let needed = Array.init 3 (fun j -> m land (1 lsl j) <> 0) in
    Storage.Segment.reset_page_reads ();
    let got = Storage.Segment.read_all ~needed h in
    Array.iteri
      (fun j need ->
        if need then begin
          if not (same_col cols.(j) got.(j)) then
            Alcotest.failf "mask %d: column %d not representation-identical" m j
        end
        else Alcotest.(check int) (Printf.sprintf "mask %d: column %d placeholder" m j) 0
            (Col.length got.(j)))
      needed;
    let popcount = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 needed in
    Alcotest.(check int)
      (Printf.sprintf "mask %d: page reads" m)
      (Storage.Segment.num_segments h * popcount)
      (Storage.Segment.page_reads ())
  done

(* Open descriptors of this process, where the platform lists them. *)
let open_fds () =
  if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

let test_segment_corrupt_closes () =
  (* a truncated column file makes [read_all] raise [Failure] after the
     columns before it were read: every column file it opened, the
     corrupt one included, must be closed before the failure
     propagates *)
  let r = seg_rel 100 in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Storage.Segment.write ~dir r;
  let victim = Filename.concat dir "col2.seg" in
  let len = (Unix.stat victim).Unix.st_size in
  Unix.truncate victim (len / 2);
  let h = Storage.Segment.openh ~dir in
  let fds0 = open_fds () in
  (match Storage.Segment.read_all h with
  | _ -> Alcotest.fail "a truncated segment must not decode"
  | exception Failure _ -> ());
  Alcotest.(check (option int)) "no descriptor leaked" fds0 (open_fds ());
  (* the columns before the corrupt one still read, and close *)
  let needed = Array.init (List.length (Storage.Segment.schema h)) (fun j -> j < 2) in
  ignore (Storage.Segment.read_all ~needed h);
  Alcotest.(check (option int)) "a masked read opens and closes" fds0 (open_fds ())

let same_rel a b =
  Storage.Relation.cardinality a = Storage.Relation.cardinality b
  && Array.for_all2
       (fun x y -> Array.for_all2 Value.equal x y)
       (Storage.Relation.rows a) (Storage.Relation.rows b)

let test_database_paged () =
  let db = Storage.Database.create () in
  Storage.Database.add db ~table:"t" (rel [ (1, "x"); (2, "y") ]);
  Storage.Database.add db ~table:"t" ~partition:1 (rel [ (3, "z") ]);
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun s -> rm_rf (Filename.concat dir s)) (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ()
      end)
  @@ fun () ->
  let pdb = Storage.Database.paged db ~dir in
  Alcotest.(check int) "total rows" (Storage.Database.total_rows db)
    (Storage.Database.total_rows pdb);
  let part p =
    ( Option.get (Storage.Database.find db ~table:"t" ~partition:p ()),
      Option.get (Storage.Database.find pdb ~table:"t" ~partition:p ()) )
  in
  List.iter
    (fun p ->
      let o, pg = part p in
      Alcotest.(check bool)
        (Printf.sprintf "partition %d paged" p)
        true
        (Storage.Relation.is_paged pg);
      Alcotest.(check bool) (Printf.sprintf "partition %d rows" p) true
        (same_rel o pg))
    [ 0; 1 ]

let prop_builder_matches_typed =
  let gen =
    let open QCheck.Gen in
    oneofl all_tys >>= fun ty ->
    list_size (int_range 0 300) (nullable_gen ty) >>= fun vs ->
    return (ty, Array.of_list vs)
  in
  QCheck.Test.make ~count:200
    ~name:"Column.Builder equals of_values_typed (variant, nulls, bytes)"
    (QCheck.make
       ~print:(fun (ty, vs) ->
         Fmt.str "%s: %a" (Value.ty_to_string ty)
           Fmt.(array ~sep:comma (of_to_string Value.to_string))
           vs)
       gen)
    (fun (ty, vs) ->
      let b = Col.Builder.create ~hint:4 ty in
      Array.iter (Col.Builder.add b) vs;
      same_col (Col.of_values_typed ty vs) (Col.Builder.finish b))

let prop_segment_roundtrip =
  let gen =
    let open QCheck.Gen in
    oneofl all_tys >>= fun ty ->
    list_size (int_range 0 300) (nullable_gen ty) >>= fun vs ->
    return (ty, Array.of_list vs)
  in
  QCheck.Test.make ~count:150 ~name:"segment round trip per column type"
    (QCheck.make
       ~print:(fun (ty, vs) ->
         Fmt.str "%s: %a" (Value.ty_to_string ty)
           Fmt.(array ~sep:comma (of_to_string Value.to_string))
           vs)
       gen)
    (fun (ty, vs) ->
      let c = Col.of_values_typed ty vs in
      let r =
        Storage.Relation.of_cols
          ~schema:[ Attr.make ~rel:"q" ~name:"c" ]
          ~card:(Array.length vs) [| c |]
      in
      let dir = fresh_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      Storage.Segment.write ~dir r;
      same_col c (Storage.Segment.read_all (Storage.Segment.openh ~dir)).(0))

let prop_pick_in_list =
  QCheck.Test.make ~name:"pick returns a member" ~count:200
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 20) small_int))
    (fun (seed, xs) ->
      let g = Prng.create ~seed in
      List.mem (Prng.pick g xs) xs)

(* A relation holds one representation and caches nothing: on rows
   ([make]), columns ([of_cols]) and a pager ([Segment.relation]), [rows]
   and [cols] read the same values; [cols] of a row relation converts
   afresh on every call and leaves the rows it was made from in place;
   and [Database.add] stores a row relation as its columns, so every
   scan of the stored table reads the same column array. *)
let test_one_representation () =
  let r = seg_rel 100 in
  let rows = Storage.Relation.rows r in
  let from_rows = Storage.Relation.make ~schema:seg_schema ~rows in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Storage.Segment.write ~dir r;
  let from_pager = Storage.Segment.relation (Storage.Segment.openh ~dir) in
  let same_rows a b = Array.for_all2 (Array.for_all2 Value.equal) a b in
  List.iter
    (fun (label, rel) ->
      let cols = Storage.Relation.cols rel in
      let col_rows =
        Array.init (Storage.Relation.cardinality rel) (fun i ->
            Array.map (fun c -> Col.get c i) cols)
      in
      Alcotest.(check bool) (label ^ ": rows and cols agree") true
        (same_rows (Storage.Relation.rows rel) col_rows);
      Alcotest.(check bool) (label ^ ": same values as the columns") true
        (same_rows rows col_rows);
      Alcotest.(check int) (label ^ ": byte size") (Storage.Relation.byte_size r)
        (Storage.Relation.byte_size rel))
    [ ("rows", from_rows); ("columns", r); ("pager", from_pager) ];
  let c1 = Storage.Relation.cols from_rows in
  let c2 = Storage.Relation.cols from_rows in
  Alcotest.(check bool) "cols of rows converts each call" true (c1 != c2);
  Alcotest.(check bool) "cols of rows keeps the rows" true
    (Storage.Relation.rows from_rows == rows);
  Alcotest.(check bool) "rows of columns builds each call" true
    (Storage.Relation.rows r != Storage.Relation.rows r);
  let db = Storage.Database.create () in
  Storage.Database.add db ~table:"s" from_rows;
  let stored = Storage.Database.find_exn db ~table:"s" () in
  Alcotest.(check bool) "stored table's cols are one array" true
    (Storage.Relation.cols stored == Storage.Relation.cols stored);
  Array.iteri
    (fun j c ->
      if not (same_col (Storage.Relation.cols r).(j) c) then
        Alcotest.failf "stored column %d differs from the typed original" j)
    (Storage.Relation.cols stored);
  Alcotest.(check bool) "a stored paged relation stays paged" true
    (Storage.Database.add db ~table:"p" from_pager;
     Storage.Relation.is_paged (Storage.Database.find_exn db ~table:"p" ()))

let () =
  Alcotest.run "storage"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "pick_k" `Quick test_prng_pick_k;
          Alcotest.test_case "distribution" `Quick test_prng_distribution;
          QCheck_alcotest.to_alcotest prop_pick_in_list;
        ] );
      ( "relation",
        [
          Alcotest.test_case "basic" `Quick test_relation_basic;
          Alcotest.test_case "lookup" `Quick test_relation_lookup;
          Alcotest.test_case "arity check" `Quick test_relation_arity_check;
          Alcotest.test_case "database" `Quick test_database;
          Alcotest.test_case "order_by/take" `Quick test_order_by_and_take;
          Alcotest.test_case "split" `Quick test_split_independence;
          Alcotest.test_case "one representation, nothing cached" `Quick
            test_one_representation;
        ] );
      ( "columnar",
        [
          QCheck_alcotest.to_alcotest prop_column_roundtrip;
          QCheck_alcotest.to_alcotest prop_relation_roundtrip;
          Alcotest.test_case "duplicate attribute resolution" `Quick
            test_duplicate_attr_resolution;
          Alcotest.test_case "CSV golden (empty/quoted/NULL)" `Quick test_csv_golden;
          Alcotest.test_case "byte size layout-independent" `Quick
            test_byte_size_layout_independent;
          Alcotest.test_case "byte size pinned (strings, nulls)" `Quick
            test_byte_size_pinned;
          Alcotest.test_case "all-NULL sniffed column is_null" `Quick
            test_all_null_sniffed_is_null;
          QCheck_alcotest.to_alcotest prop_builder_matches_typed;
        ] );
      ( "segments",
        [
          Alcotest.test_case "empty relation" `Quick test_segment_empty;
          Alcotest.test_case "one row" `Quick test_segment_one_row;
          Alcotest.test_case "exactly 64K rows" `Quick test_segment_exact_64k;
          Alcotest.test_case "64K + 1 rows" `Quick test_segment_64k_plus_one;
          Alcotest.test_case "all-NULL and boxed Values columns" `Quick
            test_segment_all_null_and_values;
          Alcotest.test_case "page-read accounting, no caching" `Quick
            test_segment_page_reads;
          Alcotest.test_case "Database.paged twin" `Quick test_database_paged;
          Alcotest.test_case "byte_size from meta, no page read" `Quick
            test_segment_byte_size_from_meta;
          Alcotest.test_case "masked read_all" `Quick test_segment_masked_read_all;
          Alcotest.test_case "corrupt segment closes its files" `Quick
            test_segment_corrupt_closes;
          QCheck_alcotest.to_alcotest prop_segment_roundtrip;
        ] );
    ]
