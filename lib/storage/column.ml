(* Column-major storage: one typed, unboxed array per column plus a
   packed null bitmap. This is every resident relation's one in-memory
   form and the layout the vectorized engine's kernels run over; the
   reference interpreter reads it through the row view [Relation.rows]
   builds at each scan.

   Representation rules:
   - a column whose non-null values all share one [Value.ty] is stored
     in the matching typed array ([int array] / [float array] /
     [string array] / packed bools), with NULL slots holding a dummy
     and the bitmap marking them;
   - a heterogeneous (or empty, or all-NULL) column falls back to a
     boxed [Value.t array], where NULLs are stored directly and the
     bitmap stays empty.

   A typed column is built from values in one place, [Builder] (which
   [of_values_typed] and [of_values] feed), so its NULL rule is written
   once. Columns are immutable after construction; [byte_size] is
   memoized because the per-operator profile charges it on every
   execution. *)

open Relalg

type data =
  | Ints of int array
  | Floats of float array  (* flat float array: unboxed in OCaml *)
  | Strs of string array
  | Dates of int array
  | Bools of Bytes.t  (* one byte per row: 0 = false, 1 = true *)
  | Values of Value.t array  (* heterogeneous / all-NULL fallback *)

type t = {
  data : data;
  nulls : Bytes.t;
      (* packed bitmap, bit [i] set = row [i] is NULL; [Bytes.empty]
         means "no nulls" (and is mandatory for [Values]) *)
  mutable bytes : int;
      (* memoized serialized size; -1 = not computed *)
}

let no_nulls = Bytes.empty

let length t =
  match t.data with
  | Ints a | Dates a -> Array.length a
  | Floats a -> Array.length a
  | Strs a -> Array.length a
  | Bools b -> Bytes.length b
  | Values a -> Array.length a

let has_nulls t = Bytes.length t.nulls > 0

(* The boxed fallback stores [Null] in the data array itself and may
   carry no bitmap (e.g. [of_value_array] on an all-NULL input, where
   sniffing finds no type evidence) — consult the values too. *)
let is_null t i =
  (Bytes.length t.nulls > 0
  && Char.code (Bytes.unsafe_get t.nulls (i lsr 3)) land (1 lsl (i land 7)) <> 0)
  || match t.data with Values a -> Value.is_null a.(i) | _ -> false

(* --- null bitmap helpers --- *)

let bitmap_create n = Bytes.make ((n + 7) / 8) '\000'

let bitmap_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

let bitmap_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let get t i =
  if is_null t i then Value.Null
  else
    match t.data with
    | Ints a -> Value.Int a.(i)
    | Floats a -> Value.Float a.(i)
    | Strs a -> Value.Str a.(i)
    | Dates a -> Value.Date a.(i)
    | Bools b -> Value.Bool (Bytes.get b i <> '\000')
    | Values a -> a.(i)

(* --- construction --- *)

let of_value_array (vals : Value.t array) = { data = Values vals; nulls = no_nulls; bytes = -1 }

(* Sniff the uniform type of a column, if any. *)
let uniform_ty (vals : Value.t array) : Value.ty option =
  let n = Array.length vals in
  let rec first i =
    if i >= n then None
    else match Value.type_of vals.(i) with Some ty -> Some (ty, i) | None -> first (i + 1)
  in
  match first 0 with
  | None -> None (* empty or all-NULL: no type evidence *)
  | Some (ty, i0) ->
    let rec rest i =
      if i >= n then Some ty
      else
        match Value.type_of vals.(i) with
        | None -> rest (i + 1)
        | Some ty' -> if ty' = ty then rest (i + 1) else None
    in
    rest (i0 + 1)

(* Wrap a decoded payload without copying (the segment reader's typed
   decode): [data] already holds the NULL dummies and [nulls] is the
   stored bitmap, so the result is what [of_values_typed] would build. *)
let of_decoded (data : data) (nulls : Bytes.t) : t = { data; nulls; bytes = -1 }

let to_values t = Array.init (length t) (fun i -> get t i)

(* --- serialized size (agrees with Value.byte_width per element) --- *)

(* Serialized size of the [n] rows [ix 0], ..., [ix (n - 1)]: the same
   [Value.byte_width] sum as the boxed loop in the [Values] case,
   without boxing — a fixed width per non-null, 4 offset bytes plus
   the heap bytes per non-null string, 1 (the NULL tag) per null.
   O(1) for fixed-width columns without nulls. *)
let rows_bytes t n (ix : int -> int) =
  match t.data with
  | Ints _ | Floats _ | Dates _ | Bools _ ->
    let w = match t.data with Ints _ | Floats _ -> 8 | Dates _ -> 4 | _ -> 1 in
    if not (has_nulls t) then w * n
    else begin
      let nulls = ref 0 in
      for j = 0 to n - 1 do
        if bitmap_get t.nulls (ix j) then incr nulls
      done;
      (w * (n - !nulls)) + !nulls
    end
  | Strs a ->
    let acc = ref 0 in
    if has_nulls t then
      for j = 0 to n - 1 do
        let i = ix j in
        acc := !acc + (if bitmap_get t.nulls i then 1 else 4 + String.length a.(i))
      done
    else
      for j = 0 to n - 1 do
        acc := !acc + 4 + String.length a.(ix j)
      done;
    !acc
  | Values a ->
    let acc = ref 0 in
    for j = 0 to n - 1 do
      acc := !acc + Value.byte_width a.(ix j)
    done;
    !acc

let byte_size t =
  if t.bytes < 0 then t.bytes <- rows_bytes t (length t) Fun.id;
  t.bytes

let sel_byte_size t (sel : int array) = rows_bytes t (Array.length sel) (Array.unsafe_get sel)

(* --- kernels' materialization primitives --- *)

(* Select rows by index; the workhorse behind selection vectors, sort
   permutations and join outputs. Typed columns stay typed. *)
let gather t (ixs : int array) : t =
  let n = Array.length ixs in
  let nulls =
    if not (has_nulls t) then no_nulls
    else begin
      let b = bitmap_create n in
      let any = ref false in
      for j = 0 to n - 1 do
        if bitmap_get t.nulls ixs.(j) then begin
          any := true;
          bitmap_set b j
        end
      done;
      if !any then b else no_nulls
    end
  in
  (* explicit loops: [Array.init]'s per-element closure would box every
     float it returns *)
  let ints (a : int array) =
    let out = Array.make n 0 in
    for j = 0 to n - 1 do
      Array.unsafe_set out j (Array.unsafe_get a ixs.(j))
    done;
    out
  in
  let data =
    match t.data with
    | Ints a -> Ints (ints a)
    | Floats a ->
      let out = Array.make n 0. in
      for j = 0 to n - 1 do
        Array.unsafe_set out j (Array.unsafe_get a ixs.(j))
      done;
      Floats out
    | Strs a -> Strs (Array.init n (fun j -> Array.unsafe_get a ixs.(j)))
    | Dates a -> Dates (ints a)
    | Bools b ->
      let out = Bytes.make n '\000' in
      for j = 0 to n - 1 do
        Bytes.unsafe_set out j (Bytes.unsafe_get b ixs.(j))
      done;
      Bools out
    | Values a -> Values (Array.init n (fun j -> Array.unsafe_get a ixs.(j)))
  in
  { data; nulls; bytes = -1 }

(* Concatenate columns (UNION ALL). Same-variant inputs stay typed;
   mixed variants fall back to boxed values. *)
let concat (cols : t list) : t =
  match cols with
  | [] -> of_value_array [||]
  | [ c ] -> c
  | first :: _ ->
    let total = List.fold_left (fun acc c -> acc + length c) 0 cols in
    let same_variant =
      let tag t =
        match t.data with
        | Ints _ -> 0 | Floats _ -> 1 | Strs _ -> 2 | Dates _ -> 3 | Bools _ -> 4
        | Values _ -> 5
      in
      List.for_all (fun c -> tag c = tag first) cols
    in
    if not same_variant then begin
      let out = Array.make total Value.Null in
      let off = ref 0 in
      List.iter
        (fun c ->
          for i = 0 to length c - 1 do
            out.(!off + i) <- get c i
          done;
          off := !off + length c)
        cols;
      of_value_array out
    end
    else begin
      let nulls =
        if List.for_all (fun c -> not (has_nulls c)) cols then no_nulls
        else begin
          let b = bitmap_create total in
          let off = ref 0 in
          List.iter
            (fun c ->
              if has_nulls c then
                for i = 0 to length c - 1 do
                  if bitmap_get c.nulls i then bitmap_set b (!off + i)
                done;
              off := !off + length c)
            cols;
          b
        end
      in
      let concat_arr proj make0 =
        let out = make0 total in
        let off = ref 0 in
        List.iter
          (fun c ->
            let a = proj c.data in
            Array.blit a 0 out !off (Array.length a);
            off := !off + Array.length a)
          cols;
        out
      in
      let data =
        match first.data with
        | Ints _ ->
          Ints (concat_arr (function Ints a | Dates a -> a | _ -> [||]) (fun n -> Array.make n 0))
        | Dates _ ->
          Dates (concat_arr (function Ints a | Dates a -> a | _ -> [||]) (fun n -> Array.make n 0))
        | Floats _ ->
          Floats (concat_arr (function Floats a -> a | _ -> [||]) (fun n -> Array.make n 0.))
        | Strs _ ->
          Strs (concat_arr (function Strs a -> a | _ -> [||]) (fun n -> Array.make n ""))
        | Bools _ ->
          let out = Bytes.make total '\000' in
          let off = ref 0 in
          List.iter
            (fun c ->
              match c.data with
              | Bools b ->
                Bytes.blit b 0 out !off (Bytes.length b);
                off := !off + Bytes.length b
              | _ -> ())
            cols;
          Bools out
        | Values _ ->
          Values
            (concat_arr (function Values a -> a | _ -> [||]) (fun n ->
                 Array.make n Value.Null))
      in
      { data; nulls; bytes = -1 }
    end

(* --- typed construction --- *)

type t_outer = t

module Builder = struct
  (* Growable typed buffers, the one place a typed column is built
     from values: a value of the declared type lands in the slot,
     anything else (including [Null]) stores a dummy and marks the
     bitmap. [finish] hands a full buffer over as is and trims any
     other to length. *)

  type payload =
    | Bints of int array
    | Bfloats of float array
    | Bstrs of string array
    | Bdates of int array
    | Bbools of Bytes.t

  type t = {
    ty : Value.ty;
    mutable n : int;
    mutable cap : int;
    mutable payload : payload;
    mutable nulls : Bytes.t;  (* bitmap sized to [cap] *)
    mutable seen_null : bool;
  }

  let make_payload ty cap =
    match ty with
    | Value.Tint -> Bints (Array.make cap 0)
    | Value.Tfloat -> Bfloats (Array.make cap 0.)
    | Value.Tstr -> Bstrs (Array.make cap "")
    | Value.Tdate -> Bdates (Array.make cap 0)
    | Value.Tbool -> Bbools (Bytes.make cap '\000')

  let create ?(hint = 1024) ty =
    let cap = max 1 hint in
    { ty; n = 0; cap; payload = make_payload ty cap; nulls = bitmap_create cap; seen_null = false }

  let length b = b.n

  let grow b =
    let cap = b.cap * 2 in
    let payload =
      match b.payload with
      | Bints a ->
        let a' = Array.make cap 0 in
        Array.blit a 0 a' 0 b.n; Bints a'
      | Bfloats a ->
        let a' = Array.make cap 0. in
        Array.blit a 0 a' 0 b.n; Bfloats a'
      | Bstrs a ->
        let a' = Array.make cap "" in
        Array.blit a 0 a' 0 b.n; Bstrs a'
      | Bdates a ->
        let a' = Array.make cap 0 in
        Array.blit a 0 a' 0 b.n; Bdates a'
      | Bbools by ->
        let by' = Bytes.make cap '\000' in
        Bytes.blit by 0 by' 0 b.n; Bbools by'
    in
    let nulls = bitmap_create cap in
    Bytes.blit b.nulls 0 nulls 0 (Bytes.length b.nulls);
    b.cap <- cap;
    b.payload <- payload;
    b.nulls <- nulls

  let add b (v : Value.t) =
    if b.n >= b.cap then grow b;
    let i = b.n in
    let mark () =
      b.seen_null <- true;
      bitmap_set b.nulls i
    in
    (match b.payload, v with
    | Bints a, Value.Int x -> a.(i) <- x
    | Bfloats a, Value.Float x -> a.(i) <- x
    | Bstrs a, Value.Str s -> a.(i) <- s
    | Bdates a, Value.Date d -> a.(i) <- d
    | Bbools by, Value.Bool x -> if x then Bytes.set by i '\001'
    | _ -> mark ());
    b.n <- b.n + 1

  let finish b : t_outer =
    let n = b.n in
    let full = n = b.cap in
    let data =
      match b.payload with
      | Bints a -> Ints (if full then a else Array.sub a 0 n)
      | Bfloats a -> Floats (if full then a else Array.sub a 0 n)
      | Bstrs a -> Strs (if full then a else Array.sub a 0 n)
      | Bdates a -> Dates (if full then a else Array.sub a 0 n)
      | Bbools by -> Bools (if full then by else Bytes.sub by 0 n)
    in
    let nulls =
      if not b.seen_null then no_nulls
      else if full then b.nulls
      else Bytes.sub b.nulls 0 ((n + 7) / 8)
    in
    { data; nulls; bytes = -1 }
end

(* Typed build for a known-uniform column: a builder of exactly its
   length, so [finish] copies nothing. *)
let of_values_typed (ty : Value.ty) (vals : Value.t array) : t =
  let b = Builder.create ~hint:(Array.length vals) ty in
  Array.iter (Builder.add b) vals;
  Builder.finish b

let of_values (vals : Value.t array) : t =
  match uniform_ty vals with
  | Some ty -> of_values_typed ty vals
  | None -> of_value_array (Array.copy vals)
