(* Disk-backed column segment store.

   A relation is persisted as one directory: a small text [meta] file
   (schema, cardinality, serialized byte size, per-column
   representation tags) plus one [col<j>.seg] file per column holding
   a sequence of append-only segments of up to [segment_rows] (64K)
   rows each. Fixed-width columns (ints/floats/dates/bools) store one
   little-endian word per row; strings are offset-indexed (an
   (n+1)-entry offset array into a heap of concatenated payload
   bytes); the boxed [Values] fallback uses a tagged per-value codec.
   Every segment carries its null bitmap.

   Reads decode payloads straight into the typed arrays (only the boxed
   fallback goes value by value). Whole-relation reads take a
   per-column [needed] mask: a masked-out column file is never opened,
   and a corrupt segment closes the column file before [Failure]
   propagates. [relation] wraps a stored directory as a paged
   [Relation.t] whose every access re-reads from disk and whose
   [byte_size] is the one recorded in [meta], so a relation is
   resident or disk-backed invisibly to both engines.

   Round-trips are representation-exact: the per-column tag recorded in
   [meta] (and per segment) is the source column's variant, NULL slots
   re-read as the same dummy values [Column.of_values_typed] writes,
   and floats travel as raw IEEE bits — so a read-back column is
   variant-, value- and [byte_size]-identical to what was written. *)

open Relalg

let segment_rows = 65536
let magic_byte = '\xC5'
let meta_magic = "cgqp-segments 2"

(* Page-in accounting (one "page read" = one segment of one column
   decoded from disk). *)
let reads = ref 0
let read_bytes = ref 0
let page_reads () = !reads
let page_read_bytes () = !read_bytes
let reset_page_reads () =
  reads := 0;
  read_bytes := 0

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

(* --- value codec (Values payloads) --- *)

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

(* --- column representation tags --- *)

let tag_of_data = function
  | Column.Ints _ -> 0
  | Column.Floats _ -> 1
  | Column.Strs _ -> 2
  | Column.Dates _ -> 3
  | Column.Bools _ -> 4
  | Column.Values _ -> 5

(* --- segment write --- *)

(* One segment of [c] covering rows [lo, hi): header, null bitmap,
   payload. *)
let write_segment oc (c : Column.t) lo hi =
  let n = hi - lo in
  let isnull i =
    match c.Column.data with
    | Column.Values a -> a.(i) = Value.Null
    | _ -> Column.is_null c i
  in
  (* null bitmap over the slice *)
  let bitmap = Bytes.make ((n + 7) / 8) '\000' in
  let has_nulls = ref false in
  for i = lo to hi - 1 do
    if isnull i then begin
      has_nulls := true;
      let j = i - lo in
      Bytes.set bitmap (j lsr 3)
        (Char.chr (Char.code (Bytes.get bitmap (j lsr 3)) lor (1 lsl (j land 7))))
    end
  done;
  let has_nulls = !has_nulls in
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
  (* header *)
  let hd = Buffer.create 32 in
  Buffer.add_char hd magic_byte;
  Buffer.add_char hd (Char.chr (tag_of_data c.Column.data));
  Buffer.add_int64_le hd (Int64.of_int n);
  Buffer.add_char hd (if has_nulls then '\001' else '\000');
  Buffer.add_int64_le hd (Int64.of_int (Buffer.length payload));
  Buffer.output_buffer oc hd;
  if has_nulls then output_bytes oc bitmap;
  Buffer.output_buffer oc payload

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
  Printf.fprintf oc "%s\ncard %d\nbytes %d\nsegment_rows %d\nwidth %d\n" meta_magic card
    (Relation.byte_size rel) segment_rows (Array.length cols);
  List.iteri
    (fun j (a : Attr.t) ->
      Printf.fprintf oc "col\t%d\t%s\t%s\n" (tag_of_data cols.(j).Column.data)
        a.Attr.rel a.Attr.name)
    schema;
  Array.iteri (fun j c -> write_col (Filename.concat dir (col_file j)) c) cols

(* --- handles and reads --- *)

type handle = {
  dir : string;
  schema : Attr.t list;
  card : int;
  tags : int array;  (* per-column representation tag *)
  bytes : int;  (* the written relation's [Relation.byte_size] *)
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
  let bytes = scan "bytes %d" Fun.id in
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
    bytes;
  }

let schema h = h.schema
let cardinality h = h.card
let num_segments h = (h.card + segment_rows - 1) / segment_rows
let width h = Array.length h.tags

(* Decoding untrusted bytes: a short file or an out-of-range length or
   offset surfaces as the documented [Failure], not as
   [End_of_file]/[Invalid_argument]. *)
let guard h f =
  try f () with
  | End_of_file -> fail "Segment: truncated segment in %s" h.dir
  | Invalid_argument _ -> fail "Segment: corrupt segment in %s" h.dir

(* Segment header: representation tag, rows, null-bitmap flag, payload
   length. *)
let read_header h ic =
  if input_char ic <> magic_byte then fail "Segment: bad segment magic in %s" h.dir;
  let tag = r_u8 ic in
  let n = r_i64 ic in
  let has_nulls = r_u8 ic <> 0 in
  let plen = r_i64 ic in
  (tag, n, has_nulls, plen)

(* Payloads are read into one growable buffer per scan, so decoding
   allocates only the columns it returns. *)
type readbuf = { mutable buf : Bytes.t }

let readbuf () = { buf = Bytes.empty }

let read_payload sc ic plen =
  if Bytes.length sc.buf < plen then
    sc.buf <- Bytes.create (max plen (2 * Bytes.length sc.buf));
  really_input ic sc.buf 0 plen;
  sc.buf

let count_page_read plen =
  incr reads;
  read_bytes := !read_bytes + plen

(* Storage for [n] rows of representation [tag]. *)
let alloc h tag n : Column.data =
  match tag with
  | 0 -> Column.Ints (Array.make n 0)
  | 1 -> Column.Floats (Array.create_float n)
  | 2 -> Column.Strs (Array.make n "")
  | 3 -> Column.Dates (Array.make n 0)
  | 4 -> Column.Bools (Bytes.make n '\000')
  | 5 -> Column.Values (Array.make n Value.Null)
  | t -> fail "Segment: bad column tag %d in %s" t h.dir

(* Decode one segment's payload (the first [plen] bytes of [payload],
   [n] rows) straight into rows [off, off + n) of [data]. The writer
   normalized NULL slots to the typed constructors' dummies, so nothing
   is boxed; only the [Values] fallback decodes value by value. Lengths
   and offsets are checked against [plen]: the buffer may hold a longer
   earlier payload. *)
let decode_into h (data : Column.data) off n payload plen =
  let bad () = fail "Segment: corrupt payload in %s" h.dir in
  let fixed w = if plen <> w * n then bad () in
  let word i = Int64.to_int (Bytes.get_int64_le payload (8 * i)) in
  match data with
  | Column.Ints a | Column.Dates a ->
    fixed 8;
    for i = 0 to n - 1 do
      Array.unsafe_set a (off + i) (word i)
    done
  | Column.Floats a ->
    fixed 8;
    for i = 0 to n - 1 do
      Array.unsafe_set a (off + i) (Int64.float_of_bits (Bytes.get_int64_le payload (8 * i)))
    done
  | Column.Strs a ->
    let heap0 = 8 * (n + 1) in
    if heap0 > plen then bad ();
    for i = 0 to n - 1 do
      let lo = word i and hi = word (i + 1) in
      if lo < 0 || hi < lo || heap0 + hi > plen then bad ();
      Array.unsafe_set a (off + i) (Bytes.sub_string payload (heap0 + lo) (hi - lo))
    done
  | Column.Bools b ->
    fixed 1;
    Bytes.blit payload 0 b off n
  | Column.Values a ->
    let pos = ref 0 in
    for i = 0 to n - 1 do
      a.(off + i) <- get_value payload pos
    done;
    if !pos <> plen then bad ()

(* The decoded column: the stored bitmap for a typed payload; the boxed
   fallback keeps its NULLs inline and must NOT be re-sniffed, or an
   all-NULL or uniform-content [Values] column would come back typed. *)
let column (data : Column.data) nulls =
  match data with
  | Column.Values a -> Column.of_value_array a
  | _ -> Column.of_decoded data nulls

(* Read the next segment block of column [j]'s file and decode it into
   rows [off, off + n) of [data], storage for [rows] rows. Its bitmap
   lands in [nulls] (allocated on first need) at byte offset [off / 8]:
   [off] is a multiple of [segment_rows], itself a multiple of 8, so
   decoding a column's segments one after another into one array
   builds the same column, bitmap included, as concatenating them. *)
let read_block h sc ic j ~data ~nulls ~rows ~off =
  let tag, n, has_nulls, plen = read_header h ic in
  if tag <> h.tags.(j) || n <> min segment_rows (rows - off) then
    fail "Segment: a segment of %s disagrees with meta in %s" (col_file j) h.dir;
  let nb = (n + 7) / 8 in
  if has_nulls && tag = 5 then seek_in ic (pos_in ic + nb) (* NULLs are inline *)
  else if has_nulls then begin
    if Bytes.length !nulls = 0 then nulls := Bytes.make ((rows + 7) / 8) '\000';
    really_input ic !nulls (off / 8) nb
  end;
  let payload = read_payload sc ic plen in
  count_page_read plen;
  decode_into h data off n payload plen

(* What a masked-out column reads as: shared, zero-length, never read
   by a consumer that asked for the mask. *)
let placeholder = Column.of_value_array [||]

let check_mask h = function
  | None -> Array.make (width h) true
  | Some needed ->
    if Array.length needed <> width h then
      invalid_arg "Segment: mask width differs from the schema's";
    needed

(* Page column [j] in whole: every segment decodes straight into one
   full-length array, with no per-segment arrays and no concatenation
   copy. *)
let read_column h sc j =
  let data = alloc h h.tags.(j) h.card and nulls = ref Bytes.empty in
  if num_segments h > 0 then begin
    let ic = open_in_bin (Filename.concat h.dir (col_file j)) in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    guard h @@ fun () ->
    for s = 0 to num_segments h - 1 do
      read_block h sc ic j ~data ~nulls ~rows:h.card ~off:(s * segment_rows)
    done
  end;
  column data !nulls

let read_all ?needed h =
  let needed = check_mask h needed in
  let sc = readbuf () in
  Array.init (width h) (fun j -> if needed.(j) then read_column h sc j else placeholder)

(* The written relation's [Relation.byte_size], recorded in [meta]:
   no column file is opened. *)
let byte_size h = h.bytes

let relation h =
  Relation.paged ~schema:h.schema ~card:h.card
    ~load:(fun needed -> read_all ~needed h)
    ~byte_size:(fun () -> byte_size h)
