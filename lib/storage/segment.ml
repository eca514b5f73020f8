(* Disk-backed column segment store.

   A relation is persisted as one directory: a small text [meta] file
   (schema, cardinality, per-column representation tags) plus one
   [col<j>.seg] file per column holding a sequence of append-only
   segments of up to [segment_rows] (64K) rows each. Fixed-width
   columns (ints/floats/dates/bools) store one little-endian word per
   row; strings are offset-indexed (an (n+1)-entry offset array into a
   heap of concatenated payload bytes); the boxed [Values] fallback
   uses a tagged per-value codec. Every segment carries its null
   bitmap and a footer with row/null counts, min/max and the
   serialized byte size.

   The cursor API yields segments back as the same [Column.t] batches
   the vectorized engine consumes; [relation] wraps a stored directory
   as a paged [Relation.t] whose every access re-reads from disk, so a
   relation is resident or disk-backed invisibly to both engines.

   Round-trips are representation-exact: the per-column tag recorded in
   [meta] (and per segment) is the source column's variant, NULL slots
   re-read as the same dummy values [Column.of_values_typed] writes,
   and floats travel as raw IEEE bits — so a read-back column is
   variant-, value- and [byte_size]-identical to what was written. *)

open Relalg

let segment_rows = 65536
let magic_byte = '\xC5'
let meta_magic = "cgqp-segments 1"

(* Page-in accounting (one "page read" = one segment of one column
   decoded from disk). Atomics: executions may run concurrently on
   domains (docs/ARCHITECTURE.md, "Domain safety"). *)
let reads = Atomic.make 0
let read_bytes = Atomic.make 0
let page_reads () = Atomic.get reads
let page_read_bytes () = Atomic.get read_bytes
let reset_page_reads () =
  Atomic.set reads 0;
  Atomic.set read_bytes 0

let fail fmt = Printf.ksprintf failwith fmt

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
    end
  in
  go dir

let col_file j = Printf.sprintf "col%d.seg" j

(* --- value codec (Values payloads, footer min/max) --- *)

let add_value buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char buf '\000'
  | Value.Int x ->
    Buffer.add_char buf '\001';
    Buffer.add_int64_le buf (Int64.of_int x)
  | Value.Float f ->
    Buffer.add_char buf '\002';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
    Buffer.add_char buf '\003';
    Buffer.add_int32_le buf (Int32.of_int (String.length s));
    Buffer.add_string buf s
  | Value.Date d ->
    Buffer.add_char buf '\004';
    Buffer.add_int64_le buf (Int64.of_int d)
  | Value.Bool b ->
    Buffer.add_char buf '\005';
    Buffer.add_char buf (if b then '\001' else '\000')

(* Decode one value from [b] at [!pos], advancing it. *)
let get_value b pos : Value.t =
  let tag = Bytes.get b !pos in
  incr pos;
  match tag with
  | '\000' -> Value.Null
  | '\001' ->
    let x = Int64.to_int (Bytes.get_int64_le b !pos) in
    pos := !pos + 8;
    Value.Int x
  | '\002' ->
    let f = Int64.float_of_bits (Bytes.get_int64_le b !pos) in
    pos := !pos + 8;
    Value.Float f
  | '\003' ->
    let len = Int32.to_int (Bytes.get_int32_le b !pos) in
    pos := !pos + 4;
    let s = Bytes.sub_string b !pos len in
    pos := !pos + len;
    Value.Str s
  | '\004' ->
    let d = Int64.to_int (Bytes.get_int64_le b !pos) in
    pos := !pos + 8;
    Value.Date d
  | '\005' ->
    let x = Bytes.get b !pos <> '\000' in
    incr pos;
    Value.Bool x
  | c -> fail "Segment: bad value tag 0x%02x" (Char.code c)

(* --- low-level channel reads --- *)

let r_bytes ic n =
  let b = Bytes.create n in
  really_input ic b 0 n;
  b

let r_u8 ic = input_byte ic
let r_i64 ic = Int64.to_int (Bytes.get_int64_le (r_bytes ic 8) 0)

let r_value ic =
  (* footer min/max: small, read via a scratch decode of the remaining
     tag + payload *)
  let tag = input_char ic in
  match tag with
  | '\000' -> Value.Null
  | '\001' -> Value.Int (Int64.to_int (Bytes.get_int64_le (r_bytes ic 8) 0))
  | '\002' -> Value.Float (Int64.float_of_bits (Bytes.get_int64_le (r_bytes ic 8) 0))
  | '\003' ->
    let len = Int32.to_int (Bytes.get_int32_le (r_bytes ic 4) 0) in
    Value.Str (Bytes.to_string (r_bytes ic len))
  | '\004' -> Value.Date (Int64.to_int (Bytes.get_int64_le (r_bytes ic 8) 0))
  | '\005' -> Value.Bool (r_u8 ic <> 0)
  | c -> fail "Segment: bad value tag 0x%02x" (Char.code c)

(* --- column representation tags --- *)

let tag_of_data = function
  | Column.Ints _ -> 0
  | Column.Floats _ -> 1
  | Column.Strs _ -> 2
  | Column.Dates _ -> 3
  | Column.Bools _ -> 4
  | Column.Values _ -> 5

(* Rebuild a column of representation [tag] from boxed values. Typed
   tags rebuild through [of_values_typed] (same dummies, same bitmap);
   the boxed fallback must NOT re-sniff, or an all-NULL or
   uniform-content [Values] column would come back typed. *)
let column_of_tag tag (vals : Value.t array) : Column.t =
  match tag with
  | 0 -> Column.of_values_typed Value.Tint vals
  | 1 -> Column.of_values_typed Value.Tfloat vals
  | 2 -> Column.of_values_typed Value.Tstr vals
  | 3 -> Column.of_values_typed Value.Tdate vals
  | 4 -> Column.of_values_typed Value.Tbool vals
  | 5 -> Column.of_value_array vals
  | t -> fail "Segment: bad column tag %d" t

let empty_column_of_tag tag = column_of_tag tag [||]

(* --- segment write --- *)

(* One segment of [c] covering rows [lo, hi): header, null bitmap,
   payload, footer. *)
let write_segment oc (c : Column.t) lo hi =
  let n = hi - lo in
  let isnull i =
    match c.Column.data with
    | Column.Values a -> a.(i) = Value.Null
    | _ -> Column.is_null c i
  in
  (* null bitmap over the slice *)
  let bitmap = Bytes.make ((n + 7) / 8) '\000' in
  let nulls = ref 0 in
  for i = lo to hi - 1 do
    if isnull i then begin
      incr nulls;
      let j = i - lo in
      Bytes.set bitmap (j lsr 3)
        (Char.chr (Char.code (Bytes.get bitmap (j lsr 3)) lor (1 lsl (j land 7))))
    end
  done;
  let has_nulls = !nulls > 0 in
  (* payload: NULL slots are normalized to the dummy the typed
     constructors use (0 / 0. / "" / false), so read-back slices are
     representation-identical *)
  let payload = Buffer.create (8 * n) in
  (match c.Column.data with
  | Column.Ints a | Column.Dates a ->
    for i = lo to hi - 1 do
      Buffer.add_int64_le payload (if isnull i then 0L else Int64.of_int a.(i))
    done
  | Column.Floats a ->
    for i = lo to hi - 1 do
      Buffer.add_int64_le payload
        (if isnull i then 0L else Int64.bits_of_float a.(i))
    done
  | Column.Strs a ->
    (* offset-indexed: (n+1) i64 offsets into the heap, then the heap *)
    let heap = Buffer.create (16 * n) in
    Buffer.add_int64_le payload 0L;
    for i = lo to hi - 1 do
      if not (isnull i) then Buffer.add_string heap a.(i);
      Buffer.add_int64_le payload (Int64.of_int (Buffer.length heap))
    done;
    Buffer.add_buffer payload heap
  | Column.Bools b ->
    for i = lo to hi - 1 do
      Buffer.add_char payload (if isnull i then '\000' else Bytes.get b i)
    done
  | Column.Values a ->
    for i = lo to hi - 1 do
      add_value payload a.(i)
    done);
  (* footer stats over the slice *)
  let bytes = ref 0 in
  let mn = ref Value.Null and mx = ref Value.Null in
  for i = lo to hi - 1 do
    let v = Column.get c i in
    bytes := !bytes + Value.byte_width v;
    if v <> Value.Null then begin
      if !mn = Value.Null || Value.compare v !mn < 0 then mn := v;
      if !mx = Value.Null || Value.compare v !mx > 0 then mx := v
    end
  done;
  (* header *)
  let hd = Buffer.create 32 in
  Buffer.add_char hd magic_byte;
  Buffer.add_char hd (Char.chr (tag_of_data c.Column.data));
  Buffer.add_int64_le hd (Int64.of_int n);
  Buffer.add_char hd (if has_nulls then '\001' else '\000');
  Buffer.add_int64_le hd (Int64.of_int (Buffer.length payload));
  Buffer.output_buffer oc hd;
  if has_nulls then output_bytes oc bitmap;
  Buffer.output_buffer oc payload;
  let ft = Buffer.create 32 in
  Buffer.add_int64_le ft (Int64.of_int !nulls);
  Buffer.add_int64_le ft (Int64.of_int !bytes);
  add_value ft !mn;
  add_value ft !mx;
  Buffer.output_buffer oc ft

let write_col path (c : Column.t) =
  let n = Column.length c in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let nseg = (n + segment_rows - 1) / segment_rows in
  for s = 0 to nseg - 1 do
    let lo = s * segment_rows in
    write_segment oc c lo (min n (lo + segment_rows))
  done

let write ~dir rel =
  mkdir_p dir;
  let schema = Relation.schema rel in
  let card = Relation.cardinality rel in
  let cols = Relation.cols rel in
  let oc = open_out (Filename.concat dir "meta") in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc "%s\ncard %d\nsegment_rows %d\nwidth %d\n" meta_magic card
    segment_rows (Array.length cols);
  List.iteri
    (fun j (a : Attr.t) ->
      Printf.fprintf oc "col\t%d\t%s\t%s\n" (tag_of_data cols.(j).Column.data)
        a.Attr.rel a.Attr.name)
    schema;
  Array.iteri (fun j c -> write_col (Filename.concat dir (col_file j)) c) cols

(* --- handles and cursors --- *)

type handle = {
  dir : string;
  schema : Attr.t list;
  card : int;
  tags : int array;  (* per-column representation tag *)
}

let openh ~dir =
  let ic = open_in (Filename.concat dir "meta") in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let line () = try input_line ic with End_of_file -> fail "Segment: truncated meta in %s" dir in
  if line () <> meta_magic then fail "Segment: bad meta magic in %s" dir;
  let scan fmt conv =
    let l = line () in
    try Scanf.sscanf l fmt conv
    with Scanf.Scan_failure _ | Failure _ -> fail "Segment: bad meta line %S in %s" l dir
  in
  let card = scan "card %d" Fun.id in
  let srows = scan "segment_rows %d" Fun.id in
  if srows <> segment_rows then
    fail "Segment: %s uses %d-row segments, this build expects %d" dir srows
      segment_rows;
  let width = scan "width %d" Fun.id in
  let cols =
    List.init width (fun _ ->
        match String.split_on_char '\t' (line ()) with
        | [ "col"; tag; rel; name ] -> (int_of_string tag, Attr.make ~rel ~name)
        | _ -> fail "Segment: bad col line in %s" dir)
  in
  {
    dir;
    schema = List.map snd cols;
    card;
    tags = Array.of_list (List.map fst cols);
  }

let schema h = h.schema
let cardinality h = h.card
let num_segments h = (h.card + segment_rows - 1) / segment_rows

type cursor = {
  h : handle;
  mutable ics : in_channel array option;  (* None once closed *)
  mutable seg : int;
}

let cursor h =
  let ics =
    if num_segments h = 0 then None
    else
      Some
        (Array.init (Array.length h.tags) (fun j ->
             open_in_bin (Filename.concat h.dir (col_file j))))
  in
  { h; ics; seg = 0 }

let close cur =
  (match cur.ics with
  | Some ics -> Array.iter close_in ics
  | None -> ());
  cur.ics <- None

(* Read the next segment block of one column file. *)
let read_segment h ic =
  if input_char ic <> magic_byte then fail "Segment: bad segment magic in %s" h.dir;
  let tag = r_u8 ic in
  let n = r_i64 ic in
  let has_nulls = r_u8 ic <> 0 in
  let plen = r_i64 ic in
  let bitmap = if has_nulls then r_bytes ic ((n + 7) / 8) else Bytes.empty in
  let payload = r_bytes ic plen in
  let _null_count = r_i64 ic in
  let _byte_size = r_i64 ic in
  let _mn = r_value ic in
  let _mx = r_value ic in
  Atomic.incr reads;
  ignore (Atomic.fetch_and_add read_bytes plen);
  let isnull i =
    has_nulls
    && Char.code (Bytes.get bitmap (i lsr 3)) land (1 lsl (i land 7)) <> 0
  in
  let vals =
    match tag with
    | 0 | 3 ->
      let box = if tag = 0 then fun x -> Value.Int x else fun x -> Value.Date x in
      Array.init n (fun i ->
          if isnull i then Value.Null
          else box (Int64.to_int (Bytes.get_int64_le payload (8 * i))))
    | 1 ->
      Array.init n (fun i ->
          if isnull i then Value.Null
          else Value.Float (Int64.float_of_bits (Bytes.get_int64_le payload (8 * i))))
    | 2 ->
      let off i = Int64.to_int (Bytes.get_int64_le payload (8 * i)) in
      let heap0 = 8 * (n + 1) in
      Array.init n (fun i ->
          if isnull i then Value.Null
          else
            Value.Str
              (Bytes.sub_string payload (heap0 + off i) (off (i + 1) - off i)))
    | 4 ->
      Array.init n (fun i ->
          if isnull i then Value.Null
          else Value.Bool (Bytes.get payload i <> '\000'))
    | 5 ->
      let pos = ref 0 in
      Array.init n (fun _ -> get_value payload pos)
    | t -> fail "Segment: bad column tag %d in %s" t h.dir
  in
  column_of_tag tag vals

let next cur =
  match cur.ics with
  | None -> None
  | Some ics ->
    let batch = Array.map (read_segment cur.h) ics in
    cur.seg <- cur.seg + 1;
    if cur.seg >= num_segments cur.h then close cur;
    Some batch

(* Page the whole relation in: per-column concat of all segments.
   Same-variant segments concatenate back to the typed representation
   (and merged bitmap) that was written. *)
let read_all h =
  let width = Array.length h.tags in
  if num_segments h = 0 then Array.init width (fun j -> empty_column_of_tag h.tags.(j))
  else begin
    let parts = Array.make width [] in
    let cur = cursor h in
    Fun.protect ~finally:(fun () -> close cur) @@ fun () ->
    let rec go () =
      match next cur with
      | None -> ()
      | Some batch ->
        Array.iteri (fun j c -> parts.(j) <- c :: parts.(j)) batch;
        go ()
    in
    go ();
    Array.init width (fun j ->
        match parts.(j) with [ c ] -> c | cs -> Column.concat (List.rev cs))
  end

let relation h =
  Relation.paged ~schema:h.schema ~card:h.card ~load:(fun () -> read_all h)
