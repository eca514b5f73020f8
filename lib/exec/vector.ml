(* Vectorized executor for physical plans.

   The production engine. Where the reference interpreter's kernels
   ([Interp]) work over one boxed [Value.t array] row at a time, this
   engine's kernels run over the column-major representation
   ([Storage.Column]) directly, in 1024-row batches:

   - a node's output is a {i chunk}: the input columns plus an optional
     selection vector, so filters refine a selvec per batch without
     materializing anything;
   - predicates bind to the concrete column representation per chunk —
     a comparison against a constant over an [int array]/[float array]/
     [string array] column becomes a primitive compare loop with the
     null bitmap checked only when the column has nulls;
   - hash joins and aggregations share one unboxed key table: each key
     component becomes an int code (the value itself, or a string or
     boxed-value dictionary code) and the code tuple maps to a dense
     id by open addressing over flat int arrays;
   - hash joins chain build rows per id, collect matching row-index
     pairs, and materialize the output once with [Column.gather]; a
     join residual tests candidate pairs a batch at a time with the
     same column binders filters use;
   - aggregation evaluates numeric arguments a batch at a time into
     unboxed buffers and folds them into typed per-group arrays; other
     arguments feed a boxed [Runtime.acc] per group;
   - sort produces a permutation selvec over the input columns instead
     of moving rows;
   - a hash join or aggregation over budget hands its typed key
     columns to the Grace spill driver ([Spill]), which runs the same
     kernels on one partition's key block at a time.

   This module is only those kernels ([kernels] at the bottom). The
   plan walk is [Runtime.compile]'s: child order, scans' replica gate,
   SHIPs, profiles, the memory account and the spill decision, and
   finish times. The kernels visit rows in relation order and emit
   probe matches in reverse build-insertion order, as the contract in
   runtime.mli requires. Results, SHIP accounting, profiles and
   makespans are byte-identical to the reference interpreter —
   enforced by the differential properties in test/test_exec.ml. *)

open Relalg
open Runtime
module Col = Storage.Column

(* Rows per batch in filter, aggregation and join-residual loops. *)
let batch_rows = 1024

(* A batch-at-rest: columns plus an optional selection vector mapping
   logical position -> physical row index. [card] is the logical row
   count (= length of [sel] when present). *)
type chunk = { cols : Col.t array; card : int; sel : int array option }

(* --- chunk primitives --- *)

let materialize ch =
  match ch.sel with
  | None -> ch.cols
  | Some sel -> Array.map (fun c -> Col.gather c sel) ch.cols

let iter_logical ch f =
  match ch.sel with
  | None ->
    for i = 0 to ch.card - 1 do
      f i
    done
  | Some sel ->
    for j = 0 to Array.length sel - 1 do
      f (Array.unsafe_get sel j)
    done

(* Serialized size, the same per-value [Value.byte_width] sum as
   [Storage.Relation.byte_size]; O(1) per fixed-width column without
   nulls (and memoized column-side when there is no selvec — scans pay
   this once per stored relation, not once per execution). *)
let chunk_bytes ch =
  match ch.sel with
  | None -> Array.fold_left (fun acc c -> acc + Col.byte_size c) 0 ch.cols
  | Some sel -> Array.fold_left (fun acc c -> acc + Col.sel_byte_size c sel) 0 ch.cols

(* --- scalar / predicate binding ---

   Compilation is two-stage: plan-compile time resolves attributes to
   column indices and folds constants, and execution binds the result
   to a concrete chunk's columns, specializing on the column
   representation. The bound closures take {e physical} row indices and
   evaluate exactly as [Expr.eval] / [Pred.eval] do in [Interp]. *)

type getter = int -> Value.t
type tester = int -> bool

let binop_fn : Expr.binop -> Value.t -> Value.t -> Value.t = function
  | Expr.Add -> Value.add
  | Expr.Sub -> Value.sub
  | Expr.Mul -> Value.mul
  | Expr.Div -> Value.div

(* Fold constant subterms bottom-up: a Binop over two Consts becomes a
   Const. Arithmetic here is [Value.add] etc., exactly what evaluation
   would do, so folding cannot change results. *)
let rec fold_scalar (e : Expr.scalar) : Expr.scalar =
  match e with
  | Expr.Col _ | Expr.Const _ -> e
  | Expr.Binop (op, l, r) -> (
    let l = fold_scalar l and r = fold_scalar r in
    match l, r with
    | Expr.Const a, Expr.Const b -> Expr.Const (binop_fn op a b)
    | _ -> Expr.Binop (op, l, r))

(* Fold column-free subtrees to True/False (their value cannot depend
   on the row; evaluate once with a never-called lookup) and simplify
   through the boolean connectives. *)
let rec fold_pred (p : Pred.t) : Pred.t =
  match p with
  | Pred.True | Pred.False -> p
  | Pred.Atom a ->
    if Attr.Set.is_empty (Pred.atom_cols a) then
      if Pred.eval_atom (fun _ -> Value.Null) a then Pred.True else Pred.False
    else p
  | Pred.And (l, r) -> Pred.conj (fold_pred l) (fold_pred r)
  | Pred.Or (l, r) -> Pred.disj (fold_pred l) (fold_pred r)
  | Pred.Not q -> (
    match fold_pred q with
    | Pred.True -> Pred.False
    | Pred.False -> Pred.True
    | q -> Pred.Not q)

let cmp_fn : Pred.cmp -> int -> bool = function
  | Pred.Eq -> fun k -> k = 0
  | Pred.Ne -> fun k -> k <> 0
  | Pred.Lt -> fun k -> k < 0
  | Pred.Le -> fun k -> k <= 0
  | Pred.Gt -> fun k -> k > 0
  | Pred.Ge -> fun k -> k >= 0

(* LIKE patterns without wildcards are plain string equality. *)
let has_wildcard pat = String.exists (fun c -> c = '%' || c = '_') pat

(* Column position of a join/group/sort key; [-1] marks an unresolvable
   attribute, which reads as NULL for every row (same as the
   interpreter's lookup). *)
let key_ix rv a = match Storage.Relation.resolve rv a with Some i -> i | None -> -1
let key_ixs rv attrs = Array.of_list (List.map (key_ix rv) attrs)

(* The positions of [attrs] in a [width]-column schema, as a mask. *)
let read_mask rv width (attrs : Attr.Set.t) =
  let mask = Array.make width false in
  Attr.Set.iter
    (fun a -> Option.iter (fun ix -> mask.(ix) <- true) (Storage.Relation.resolve rv a))
    attrs;
  mask

let rec bind_scalar_tree rv (e : Expr.scalar) : chunk -> getter =
  match e with
  | Expr.Const v -> fun _ _ -> v
  | Expr.Col a -> (
    match Storage.Relation.resolve rv a with
    | Some ix ->
      fun ch ->
        let c = ch.cols.(ix) in
        fun i -> Col.get c i
    | None -> fun _ _ -> Value.Null)
  | Expr.Binop (op, l, r) ->
    let bl = bind_scalar_tree rv l and br = bind_scalar_tree rv r in
    let f = binop_fn op in
    fun ch ->
      let gl = bl ch and gr = br ch in
      fun i -> f (gl i) (gr i)

let bind_scalar rv e = bind_scalar_tree rv (fold_scalar e)

let tt : chunk -> tester = fun _ _ -> true
let ff : chunk -> tester = fun _ _ -> false

(* Column-vs-non-null-constant comparison, specialized on the column
   representation when the constant's type matches it exactly (mixed
   Int/Float or cross-rank comparisons take the generic [Value.compare]
   path, whose semantics they need). [swap] = the constant is the left
   operand. *)
let bind_cmp_col_const (test : int -> bool) ~swap rv (a : Attr.t) (b : Value.t) :
    chunk -> tester =
  match Storage.Relation.resolve rv a with
  | None -> ff (* the column reads NULL, and NULL cmp anything is false *)
  | Some ix -> (
    fun ch ->
      let c = ch.cols.(ix) in
      let nn = not (Col.has_nulls c) in
      match c.Col.data, b with
      | Col.Ints arr, Value.Int k | Col.Dates arr, Value.Date k ->
        if swap then
          if nn then fun i -> test (Int.compare k (Array.unsafe_get arr i))
          else
            fun i ->
              (not (Col.is_null c i))
              && test (Int.compare k (Array.unsafe_get arr i))
        else if nn then fun i -> test (Int.compare (Array.unsafe_get arr i) k)
        else
          fun i ->
            (not (Col.is_null c i))
            && test (Int.compare (Array.unsafe_get arr i) k)
      | Col.Floats arr, Value.Float k ->
        if swap then
          if nn then fun i -> test (Float.compare k (Array.unsafe_get arr i))
          else
            fun i ->
              (not (Col.is_null c i))
              && test (Float.compare k (Array.unsafe_get arr i))
        else if nn then fun i -> test (Float.compare (Array.unsafe_get arr i) k)
        else
          fun i ->
            (not (Col.is_null c i))
            && test (Float.compare (Array.unsafe_get arr i) k)
      | Col.Strs arr, Value.Str k ->
        if swap then
          if nn then fun i -> test (String.compare k (Array.unsafe_get arr i))
          else
            fun i ->
              (not (Col.is_null c i))
              && test (String.compare k (Array.unsafe_get arr i))
        else if nn then fun i -> test (String.compare (Array.unsafe_get arr i) k)
        else
          fun i ->
            (not (Col.is_null c i))
            && test (String.compare (Array.unsafe_get arr i) k)
      | _ ->
        if swap then fun i ->
          let v = Col.get c i in
          (not (Value.is_null v)) && test (Value.compare b v)
        else fun i ->
          let v = Col.get c i in
          (not (Value.is_null v)) && test (Value.compare v b))

(* [Pred.eval_atom]'s semantics: NULL compares false, a null constant
   kills the atom, and a non-null constant needs no per-row null check
   on its side. The column fast paths above implement the same
   comparisons. *)
let bind_atom rv (a : Pred.atom) : chunk -> tester =
  match a with
  | Pred.Cmp (c, l, r) -> (
    let test = cmp_fn c in
    match fold_scalar l, fold_scalar r with
    | Expr.Const a, Expr.Const b -> if Pred.eval_cmp c a b then tt else ff
    | Expr.Const a, Expr.Col cb ->
      if Value.is_null a then ff else bind_cmp_col_const test ~swap:true rv cb a
    | Expr.Col ca, Expr.Const b ->
      if Value.is_null b then ff else bind_cmp_col_const test ~swap:false rv ca b
    | Expr.Const a, r ->
      if Value.is_null a then ff
      else
        let br = bind_scalar rv r in
        fun ch ->
          let g = br ch in
          fun i ->
            let b = g i in
            (not (Value.is_null b)) && test (Value.compare a b)
    | l, Expr.Const b ->
      if Value.is_null b then ff
      else
        let bl = bind_scalar rv l in
        fun ch ->
          let g = bl ch in
          fun i ->
            let a = g i in
            (not (Value.is_null a)) && test (Value.compare a b)
    | l, r ->
      let bl = bind_scalar rv l and br = bind_scalar rv r in
      fun ch ->
        let gl = bl ch and gr = br ch in
        fun i ->
          let a = gl i in
          (not (Value.is_null a))
          &&
          let b = gr i in
          (not (Value.is_null b)) && test (Value.compare a b))
  | Pred.Like (e, pat) ->
    let be = bind_scalar rv e in
    if has_wildcard pat then fun ch ->
      let g = be ch in
      fun i ->
        (match g i with Value.Str s -> Pred.like_match ~pattern:pat s | _ -> false)
    else fun ch ->
      let g = be ch in
      fun i -> (match g i with Value.Str s -> String.equal s pat | _ -> false)
  | Pred.In (e, vs) ->
    let be = bind_scalar rv e in
    fun ch ->
      let g = be ch in
      fun i ->
        let v = g i in
        (not (Value.is_null v)) && List.exists (Value.equal v) vs
  | Pred.Is_null e ->
    let be = bind_scalar rv e in
    fun ch ->
      let g = be ch in
      fun i -> Value.is_null (g i)
  | Pred.Not_null e ->
    let be = bind_scalar rv e in
    fun ch ->
      let g = be ch in
      fun i -> not (Value.is_null (g i))

let rec bind_pred_tree rv (p : Pred.t) : chunk -> tester =
  match p with
  | Pred.True -> tt
  | Pred.False -> ff
  | Pred.Atom a -> bind_atom rv a
  | Pred.And (l, r) ->
    let bl = bind_pred_tree rv l and br = bind_pred_tree rv r in
    fun ch ->
      let fl = bl ch and fr = br ch in
      fun i -> fl i && fr i
  | Pred.Or (l, r) ->
    let bl = bind_pred_tree rv l and br = bind_pred_tree rv r in
    fun ch ->
      let fl = bl ch and fr = br ch in
      fun i -> fl i || fr i
  | Pred.Not q ->
    let bq = bind_pred_tree rv q in
    fun ch ->
      let f = bq ch in
      fun i -> not (f i)

let bind_pred rv p = bind_pred_tree rv (fold_pred p)

(* --- filter: per-batch selection vectors --- *)

(* Refine the chunk through the tester, 1024 logical rows at a time:
   each batch fills a reused selvec buffer with the surviving physical
   indices, which is then appended to the output selvec. Nothing is
   materialized. *)
let filter_select ch (t : tester) : int array =
  let out = Array.make (max 1 ch.card) 0 in
  let n = ref 0 in
  let bsel = Array.make batch_rows 0 in
  let phys =
    match ch.sel with
    | Some sel -> fun j -> Array.unsafe_get sel j
    | None -> fun j -> j
  in
  let b = ref 0 in
  while !b < ch.card do
    let hi = min ch.card (!b + batch_rows) in
    let m = ref 0 in
    for j = !b to hi - 1 do
      let i = phys j in
      if t i then begin
        Array.unsafe_set bsel !m i;
        incr m
      end
    done;
    Array.blit bsel 0 out !n !m;
    n := !n + !m;
    b := hi
  done;
  Array.sub out 0 !n

(* --- join machinery --- *)

(* A join residual bound against the joined schema (left columns, then
   right): the positions it reads and its column binder. [None] when it
   folds to [True]. *)
type residual = { reads : bool array; test : chunk -> tester }

let bind_residual (cschema : Attr.t list) (p : Pred.t) : residual option =
  match fold_pred p with
  | Pred.True -> None
  | p ->
    let rv = Storage.Relation.resolver cschema in
    Some
      { reads = read_mask rv (List.length cschema) (Pred.cols p); test = bind_pred_tree rv p }

(* What a column the residual does not read holds in its batch chunk. *)
let unread = Col.of_value_array [||]

(* Run a join kernel, collecting the (left physical, right physical)
   pairs it emits in emission order, then gather both sides once: the
   single materialization point of a join. With a residual, candidates
   queue [batch_rows] at a time; each batch gathers only the columns
   the residual reads into a chunk, tests it with the bound residual,
   and keeps the survivors in order. *)
let collect_pairs ?residual lch rch (kernel : (int -> int -> unit) -> unit) : chunk =
  let lidx = Ivec.create () and ridx = Ivec.create () in
  let keep lp rp =
    Ivec.push lidx lp;
    Ivec.push ridx rp
  in
  (match residual with
  | None -> kernel keep
  | Some { reads; test } ->
    let lw = Array.length lch.cols in
    let ql = Array.make batch_rows 0 and qr = Array.make batch_rows 0 in
    let n = ref 0 in
    let flush () =
      let sl = Array.sub ql 0 !n and sr = Array.sub qr 0 !n in
      let cols =
        Array.mapi
          (fun k r ->
            if not r then unread
            else if k < lw then Col.gather lch.cols.(k) sl
            else Col.gather rch.cols.(k - lw) sr)
          reads
      in
      let t = test { cols; card = !n; sel = None } in
      for j = 0 to !n - 1 do
        if t j then keep (Array.unsafe_get sl j) (Array.unsafe_get sr j)
      done;
      n := 0
    in
    kernel (fun lp rp ->
        Array.unsafe_set ql !n lp;
        Array.unsafe_set qr !n rp;
        incr n;
        if !n = batch_rows then flush ());
    if !n > 0 then flush ());
  let lidx = Ivec.to_array lidx and ridx = Ivec.to_array ridx in
  let gl = Array.map (fun c -> Col.gather c lidx) lch.cols in
  let gr = Array.map (fun c -> Col.gather c ridx) rch.cols in
  { cols = Array.append gl gr; card = Array.length lidx; sel = None }

(* --- the key table: int-code tuples -> dense ids ---

   Hash joins and aggregations encode each key component of a row as
   an int code (see the codecs below) and map the [nk]-tuple of codes
   to a dense id, 0, 1, 2, ... in first-insertion order. Open
   addressing with linear probing over flat int arrays: nothing is
   boxed, and only growth allocates. *)
module Keytab = struct
  type t = {
    nk : int;
    mutable slots : int array;  (* an id, or -1 = empty; power-of-two length *)
    mutable keys : int array;  (* id's codes at [id * nk], ..., [id * nk + nk - 1] *)
    mutable n : int;  (* ids assigned *)
  }

  let rec pow2_above c n = if c > n then c else pow2_above (2 * c) n

  (* Room for [size] ids before the first growth. *)
  let create ~nk size =
    let size = max 8 size in
    {
      nk;
      slots = Array.make (pow2_above 16 (2 * size)) (-1);
      keys = Array.make (size * nk) 0;
      n = 0;
    }

  let length t = t.n

  (* The hash of the [nk] codes at [codes.(base)]: multiplicative
     mixing per component, high bits folded down so strided codes
     spread over the low (slot) bits. *)
  let hash nk (codes : int array) base =
    let h = ref nk in
    for k = base to base + nk - 1 do
      h := (!h lxor Array.unsafe_get codes k) * 0x2545F4914F6CDD1D
    done;
    !h lxor (!h lsr 29)

  let rec same keys base (codes : int array) nk k =
    k = nk
    || Array.unsafe_get keys (base + k) = Array.unsafe_get codes k
       && same keys base codes nk (k + 1)

  (* Assign the next id to [codes], which probed to the empty slot [s];
     past half load, double the slots and re-place every id. *)
  let add t (codes : int array) s =
    let id = t.n and nk = t.nk in
    let base = id * nk in
    if base + nk > Array.length t.keys then begin
      let keys = Array.make (2 * Array.length t.keys) 0 in
      Array.blit t.keys 0 keys 0 base;
      t.keys <- keys
    end;
    for k = 0 to nk - 1 do
      Array.unsafe_set t.keys (base + k) (Array.unsafe_get codes k)
    done;
    t.n <- id + 1;
    if 2 * t.n <= Array.length t.slots then Array.unsafe_set t.slots s id
    else begin
      let slots = Array.make (2 * Array.length t.slots) (-1) in
      let mask = Array.length slots - 1 in
      for i = 0 to id do
        let s = ref (hash nk t.keys (i * nk) land mask) in
        while Array.unsafe_get slots !s >= 0 do
          s := (!s + 1) land mask
        done;
        Array.unsafe_set slots !s i
      done;
      t.slots <- slots
    end;
    id

  (* The id of [codes]: -1 when absent, unless [insert], which assigns
     the next id. *)
  let lookup t (codes : int array) ~insert =
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let s = ref (hash t.nk codes 0 land mask) and found = ref (-2) in
    while !found = -2 do
      let id = Array.unsafe_get slots !s in
      if id < 0 then found := if insert then add t codes !s else -1
      else if same t.keys (id * t.nk) codes t.nk 0 then found := id
      else s := (!s + 1) land mask
    done;
    !found
end

(* Dense codes for strings and for boxed values, in first-insertion
   order. [Vdict] groups by [Value.equal]/[Value.hash], exactly as
   [Interp]'s row keys do: [0.0] and [-0.0] share a code, and so do
   [Int 1] and [Float 1.0]. *)
module Dict (K : Hashtbl.HashedType) = struct
  include Hashtbl.Make (K)

  (* The code of [x], assigned on first sight. *)
  let code d x =
    match find_opt d x with
    | Some c -> c
    | None ->
      let c = length d in
      add d x c;
      c
end

module Sdict = Dict (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Vdict = Dict (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* A group-key component's encoder for non-NULL row [i]: two rows get
   the same code iff their values are [Value.equal]. [Ints]/[Dates]
   values are their own codes, strings go through a string dictionary,
   everything else through a boxed-value dictionary. *)
let group_encoder (c : Col.t) : int -> int =
  match c.Col.data with
  | Col.Ints a | Col.Dates a -> fun i -> Array.unsafe_get a i
  | Col.Strs a ->
    (* group keys repeat: remember the last string's code *)
    let d = Sdict.create 64 in
    let last = ref "" and last_code = ref (Sdict.code d "") in
    fun i ->
      let x = Array.unsafe_get a i in
      if x == !last || String.equal x !last then !last_code
      else begin
        let c = Sdict.code d x in
        last := x;
        last_code := c;
        c
      end
  | Col.Floats _ | Col.Bools _ | Col.Values _ ->
    let d = Vdict.create 64 in
    fun i -> Vdict.code d (Col.get c i)

(* A join-key component's encoders for non-NULL rows: [build] assigns
   the build side's codes, and [probe] maps a probe row to the code of
   the build value it equals, or to -1 (never a dictionary code) when
   it equals none. Raw values serve as codes only when both sides are
   the same int-backed variant: Int-vs-Date never compares equal, and
   Int-vs-Float compares numerically, so mixed pairs take the boxed
   dictionary and [Value] semantics. *)
type join_codec = { build : int -> int; probe : int -> int }

let join_codec (lc : Col.t) (rc : Col.t) ~build_rows : join_codec =
  match lc.Col.data, rc.Col.data with
  | Col.Ints la, Col.Ints ra | Col.Dates la, Col.Dates ra ->
    { build = (fun i -> Array.unsafe_get ra i); probe = (fun i -> Array.unsafe_get la i) }
  | Col.Strs la, Col.Strs ra ->
    let d = Sdict.create (max 16 build_rows) in
    {
      build = (fun i -> Sdict.code d (Array.unsafe_get ra i));
      probe =
        (fun i ->
          match Sdict.find_opt d (Array.unsafe_get la i) with Some c -> c | None -> -1);
    }
  | _ ->
    let d = Vdict.create (max 16 build_rows) in
    {
      build = (fun i -> Vdict.code d (Col.get rc i));
      probe = (fun i -> match Vdict.find_opt d (Col.get lc i) with Some c -> c | None -> -1);
    }

let rec any_null (cols : Col.t array) i k =
  k < Array.length cols && (Col.is_null cols.(k) i || any_null cols i (k + 1))

(* Build on the right, probe from the left over column slices, through
   one key table. The build side chains its logical positions per key
   id, newest first, so each probe row emits its matches in the build
   side's reverse-insertion order, as the contract requires. Every
   array is sized by the build side's logical [card]. Rows with a NULL
   key component never join, and an unresolvable key reads NULL on
   every row. *)
let hash_join_pairs ~(lixs : int array) ~(rixs : int array) lch rch emit =
  let n = rch.card in
  let resolved ixs = Array.for_all (fun ix -> ix >= 0) ixs in
  if n > 0 && resolved lixs && resolved rixs then begin
    let nk = Array.length lixs in
    let lcols = Array.map (fun ix -> lch.cols.(ix)) lixs
    and rcols = Array.map (fun ix -> rch.cols.(ix)) rixs in
    let codecs = Array.init nk (fun k -> join_codec lcols.(k) rcols.(k) ~build_rows:n) in
    let tab = Keytab.create ~nk n in
    let codes = Array.make nk 0 in
    (* [head.(id)]: the newest build position with key [id];
       [next.(j)]: the next older one after position [j]; -1 ends *)
    let head = Array.make n (-1) and next = Array.make n (-1) in
    let rphys j = match rch.sel with Some s -> Array.unsafe_get s j | None -> j in
    for j = 0 to n - 1 do
      let rp = rphys j in
      if not (any_null rcols rp 0) then begin
        for k = 0 to nk - 1 do
          Array.unsafe_set codes k ((Array.unsafe_get codecs k).build rp)
        done;
        let id = Keytab.lookup tab codes ~insert:true in
        next.(j) <- head.(id);
        head.(id) <- j
      end
    done;
    iter_logical lch (fun lp ->
        if not (any_null lcols lp 0) then begin
          for k = 0 to nk - 1 do
            Array.unsafe_set codes k ((Array.unsafe_get codecs k).probe lp)
          done;
          let id = Keytab.lookup tab codes ~insert:false in
          let j = ref (if id < 0 then -1 else head.(id)) in
          while !j >= 0 do
            emit lp (rphys !j);
            j := next.(!j)
          done
        end)
  end

let merge_join_pairs ~(lixs : int array) ~(rixs : int array) lch rch emit =
  (* inputs arrive sorted ascending on their key columns; same run
     logic and emit order as the row engines' merge kernels *)
  let lpos =
    match lch.sel with Some s -> s | None -> Array.init lch.card (fun i -> i)
  and rpos =
    match rch.sel with Some s -> s | None -> Array.init rch.card (fun i -> i)
  in
  let nk = Array.length lixs in
  let getv cols (ixs : int array) k i =
    let ix = Array.unsafe_get ixs k in
    if ix >= 0 then Col.get cols.(ix) i else Value.Null
  in
  let lnull lp =
    let rec go k = k < nk && (Value.is_null (getv lch.cols lixs k lp) || go (k + 1)) in
    go 0
  in
  let cmp_lr lp rp =
    let rec go k =
      if k = nk then 0
      else
        let c = Value.compare (getv lch.cols lixs k lp) (getv rch.cols rixs k rp) in
        if c <> 0 then c else go (k + 1)
    in
    go 0
  in
  let cmp_ll lp lp' =
    let rec go k =
      if k = nk then 0
      else
        let c = Value.compare (getv lch.cols lixs k lp) (getv lch.cols lixs k lp') in
        if c <> 0 then c else go (k + 1)
    in
    go 0
  in
  let nl = Array.length lpos and nr = Array.length rpos in
  let i = ref 0 and j = ref 0 in
  while !i < nl && !j < nr do
    let lp = lpos.(!i) in
    if lnull lp then incr i
    else begin
      let c = cmp_lr lp rpos.(!j) in
      if c < 0 then incr i
      else if c > 0 then incr j
      else begin
        (* find the run of equal right keys *)
        let j2 = ref !j in
        while !j2 < nr && cmp_lr lp rpos.(!j2) = 0 do
          incr j2
        done;
        (* emit pairs for every left row sharing this key *)
        let i2 = ref !i in
        while !i2 < nl && cmp_ll lpos.(!i2) lp = 0 do
          for jj = !j to !j2 - 1 do
            emit lpos.(!i2) rpos.(jj)
          done;
          incr i2
        done;
        i := !i2;
        j := !j2
      end
    end
  done

(* --- aggregation: the key table and typed accumulators ---

   Group ids come from the key table joins use. Each aggregate picks
   its accumulator once per execution, from how its argument binds to
   the chunk: a numeric argument (an [Ints]/[Floats] column, a numeric
   constant, or [+ - *] over them) is evaluated a batch at a time into
   an unboxed buffer and folded into per-group arrays; any other
   argument feeds a boxed [Runtime.acc] per group. Either way a group's
   values fold in row order and a sum is seeded with its first value,
   as [Runtime.feed] does, so results stay byte-identical to [Interp]
   (a float sum of a lone [-0.0] stays [-0.0]). *)

(* A numeric argument bound to a chunk: [fill phys m] evaluates the
   physical rows [phys.(0)], ..., [phys.(m - 1)] into the buffer. A
   NULL row leaves junk there, which [null] masks ([None]: the argument
   is never NULL). *)
type nums =
  | Ivals of int array * (int array -> int -> unit)
  | Fvals of float array * (int array -> int -> unit)

type num_arg = { vals : nums; null : (int -> bool) option }

(* [Value]'s Int -> Float promotion, a batch at a time. *)
let as_floats = function
  | Fvals (b, fill) -> (b, fill)
  | Ivals (a, fill) ->
    let b = Array.make batch_rows 0. in
    ( b,
      fun phys m ->
        fill phys m;
        for j = 0 to m - 1 do
          Array.unsafe_set b j (float_of_int (Array.unsafe_get a j))
        done )

(* [Value.add]/[sub]/[mul]: Int op Int stays Int, a Float on either
   side makes it Float. [bind_num] never passes [Div]. *)
let num_binop (op : Expr.binop) l r =
  match l, r with
  | Ivals (a, fa), Ivals (b, fb) ->
    let f : int -> int -> int =
      match op with Expr.Add -> ( + ) | Expr.Sub -> ( - ) | Expr.Mul | Expr.Div -> ( * )
    in
    let out = Array.make batch_rows 0 in
    Ivals
      ( out,
        fun phys m ->
          fa phys m;
          fb phys m;
          for j = 0 to m - 1 do
            Array.unsafe_set out j (f (Array.unsafe_get a j) (Array.unsafe_get b j))
          done )
  | _ ->
    let a, fa = as_floats l and b, fb = as_floats r in
    let out = Array.make batch_rows 0. in
    Fvals
      ( out,
        fun phys m ->
          fa phys m;
          fb phys m;
          match op with
          | Expr.Add ->
            for j = 0 to m - 1 do
              Array.unsafe_set out j (Array.unsafe_get a j +. Array.unsafe_get b j)
            done
          | Expr.Sub ->
            for j = 0 to m - 1 do
              Array.unsafe_set out j (Array.unsafe_get a j -. Array.unsafe_get b j)
            done
          | Expr.Mul | Expr.Div ->
            for j = 0 to m - 1 do
              Array.unsafe_set out j (Array.unsafe_get a j *. Array.unsafe_get b j)
            done )

(* Bind a folded aggregate argument as a numeric batch evaluator, or
   [None] when it is not numeric on this chunk. Buffers are allocated
   per execution, except a constant's, which nothing writes. *)
let rec bind_num rv (e : Expr.scalar) : chunk -> num_arg option =
  match e with
  | Expr.Const (Value.Int k) ->
    let b = Array.make batch_rows k in
    fun _ -> Some { vals = Ivals (b, fun _ _ -> ()); null = None }
  | Expr.Const (Value.Float x) ->
    let b = Array.make batch_rows x in
    fun _ -> Some { vals = Fvals (b, fun _ _ -> ()); null = None }
  | Expr.Const _ | Expr.Binop (Expr.Div, _, _) -> fun _ -> None
  | Expr.Col a -> (
    match Storage.Relation.resolve rv a with
    | None -> fun _ -> None
    | Some ix -> (
      fun ch ->
        let c = ch.cols.(ix) in
        let null = if Col.has_nulls c then Some (Col.is_null c) else None in
        match c.Col.data with
        | Col.Ints a ->
          let b = Array.make batch_rows 0 in
          let fill phys m =
            for j = 0 to m - 1 do
              Array.unsafe_set b j (Array.unsafe_get a (Array.unsafe_get phys j))
            done
          in
          Some { vals = Ivals (b, fill); null }
        | Col.Floats a ->
          let b = Array.make batch_rows 0. in
          let fill phys m =
            for j = 0 to m - 1 do
              Array.unsafe_set b j (Array.unsafe_get a (Array.unsafe_get phys j))
            done
          in
          Some { vals = Fvals (b, fill); null }
        | Col.Strs _ | Col.Dates _ | Col.Bools _ | Col.Values _ -> None))
  | Expr.Binop (op, l, r) -> (
    let bl = bind_num rv l and br = bind_num rv r in
    fun ch ->
      match bl ch, br ch with
      | Some l, Some r ->
        let null =
          match l.null, r.null with
          | None, n | n, None -> n
          | Some f, Some g -> Some (fun i -> f i || g i)
        in
        Some { vals = num_binop op l.vals r.vals; null }
      | _ -> None)

(* One aggregate's per-group state. [grow n] makes room for groups
   [0 .. n - 1]; [fold gids phys m] folds in a batch whose position [j]
   is physical row [phys.(j)] of group [gids.(j)]; [value g] finishes
   group [g] as [Runtime.finish] would. *)
type aggregator = {
  grow : int -> unit;
  fold : int array -> int array -> int -> unit;
  value : int -> Value.t;
}

let grown a n (x : 'a) : 'a array =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (max n (2 * len)) x in
    Array.blit a 0 b 0 len;
    b
  end

let never_null (_ : int) = false

(* Per group: the non-NULL count, and the running sum, min or max. *)
let int_agg (fn : Expr.agg_fn) (b : int array) fill null =
  let cnt = ref [||] and acc = ref [||] in
  let is_null = Option.value null ~default:never_null in
  {
    grow =
      (fun n ->
        cnt := grown !cnt n 0;
        acc := grown !acc n 0);
    fold =
      (fun gids phys m ->
        fill phys m;
        let cnt = !cnt and acc = !acc in
        for j = 0 to m - 1 do
          if not (is_null (Array.unsafe_get phys j)) then begin
            let g = Array.unsafe_get gids j and x = Array.unsafe_get b j in
            let c = cnt.(g) in
            (match fn with
            | Expr.Sum | Expr.Avg -> acc.(g) <- (if c = 0 then x else acc.(g) + x)
            | Expr.Min -> if c = 0 || x < acc.(g) then acc.(g) <- x
            | Expr.Max -> if c = 0 || x > acc.(g) then acc.(g) <- x
            | Expr.Count -> ());
            cnt.(g) <- c + 1
          end
        done);
    value =
      (fun g ->
        let c = !cnt.(g) in
        match fn with
        | Expr.Count -> Value.Int c
        | _ when c = 0 -> Value.Null
        | Expr.Avg -> Value.Float (float_of_int !acc.(g) /. float_of_int c)
        | Expr.Sum | Expr.Min | Expr.Max -> Value.Int !acc.(g));
  }

(* As [int_agg]; min and max order by [Float.compare], as
   [Value.compare] does. *)
let float_agg (fn : Expr.agg_fn) (b : float array) fill null =
  let cnt = ref [||] and acc = ref [||] in
  let is_null = Option.value null ~default:never_null in
  {
    grow =
      (fun n ->
        cnt := grown !cnt n 0;
        acc := grown !acc n 0.);
    fold =
      (fun gids phys m ->
        fill phys m;
        let cnt = !cnt and acc = !acc in
        for j = 0 to m - 1 do
          if not (is_null (Array.unsafe_get phys j)) then begin
            let g = Array.unsafe_get gids j and x = Array.unsafe_get b j in
            let c = cnt.(g) in
            (match fn with
            | Expr.Sum | Expr.Avg -> acc.(g) <- (if c = 0 then x else acc.(g) +. x)
            | Expr.Min -> if c = 0 || Float.compare x acc.(g) < 0 then acc.(g) <- x
            | Expr.Max -> if c = 0 || Float.compare x acc.(g) > 0 then acc.(g) <- x
            | Expr.Count -> ());
            cnt.(g) <- c + 1
          end
        done);
    value =
      (fun g ->
        let c = !cnt.(g) in
        match fn with
        | Expr.Count -> Value.Int c
        | _ when c = 0 -> Value.Null
        | Expr.Avg -> Value.Float (!acc.(g) /. float_of_int c)
        | Expr.Sum | Expr.Min | Expr.Max -> Value.Float !acc.(g));
  }

let boxed_agg (fn : Expr.agg_fn) (get : getter) =
  let accs = ref [||] in
  {
    grow =
      (fun n ->
        let old = !accs in
        let len = Array.length old in
        if n > len then
          accs := Array.init (max n (2 * len)) (fun g -> if g < len then old.(g) else fresh_acc ()));
    fold =
      (fun gids phys m ->
        let accs = !accs in
        for j = 0 to m - 1 do
          feed accs.(Array.unsafe_get gids j) (get (Array.unsafe_get phys j))
        done);
    value = (fun g -> finish fn !accs.(g));
  }

let bind_agg rv (a : Expr.agg) : chunk -> aggregator =
  let num = bind_num rv (fold_scalar a.arg) and boxed = bind_scalar rv a.arg in
  fun ch ->
    match num ch with
    | Some { vals = Ivals (b, fill); null } -> int_agg a.fn b fill null
    | Some { vals = Fvals (b, fill); null } -> float_agg a.fn b fill null
    | None -> boxed_agg a.fn (boxed ch)

(* [ngroups] output rows: the [nk] key columns ([key k g]), then the
   [na] finished aggregates ([agg a g]). Both the in-memory kernel and
   the spill path materialize through here. *)
let groups_chunk ~nk ~na ngroups ~(key : int -> int -> Value.t) ~(agg : int -> int -> Value.t) =
  let cols =
    Array.init (nk + na) (fun c ->
        Col.of_values
          (Array.init ngroups (fun g -> if c < nk then key c g else agg (c - nk) g)))
  in
  { cols; card = ngroups; sel = None }

(* One grouping pass over [n] rows, visited in order: row [j] is keyed
   at row [ksel j] of [kcols] ([None]: an unresolvable key, NULL on
   every row) and aggregated at physical row [asel j] of the chunk
   [aggs] were bound to (a [None] selection is the identity). Group
   ids are dense in first-seen order; [firsts.(g)] is the visit index
   of group [g]'s first row, whose key is the group's output key. A
   NULL key component (the bitmap of a typed column) codes as 0 and
   sets its bit in a trailing null-mask code, one per 62 nullable key
   columns; a boxed column's dictionary holds NULL like any other
   value. *)
type groups = {
  ngroups : int;
  firsts : int array;
  key : int -> int -> Value.t;  (* [key k g]: key component [k] of group [g] *)
  agg : int -> int -> Value.t;  (* [agg a g]: aggregate [a] of group [g], finished *)
}

let at sel j = match sel with Some s -> Array.unsafe_get s j | None -> j

let group_rows ~(kcols : Col.t option array) ~(aggs : aggregator array) ~n ~ksel ~asel =
  let nk = Array.length kcols in
  let kc = Array.map (Option.value ~default:unread) kcols in
  (* an unresolvable key is one constant code *)
  let encs = Array.map (function Some c -> group_encoder c | None -> fun _ -> 0) kcols in
  (* [nbit.(k)]: key [k]'s bit among the nullable keys, -1 if never NULL *)
  let nbit = Array.make nk (-1) and nnull = ref 0 in
  Array.iteri
    (fun k c ->
      if Col.has_nulls c then begin
        nbit.(k) <- !nnull;
        incr nnull
      end)
    kc;
  let ncodes = nk + ((!nnull + 61) / 62) in
  let tab = Keytab.create ~nk:ncodes 64 in
  let codes = Array.make ncodes 0 in
  let firsts = Ivec.create () in
  let gids = Array.make batch_rows 0 and phys = Array.make batch_rows 0 in
  (* a global aggregate is one group, even over an empty input *)
  let ngroups () = if nk = 0 then 1 else Keytab.length tab in
  if nk = 0 then Array.iter (fun a -> a.grow 1) aggs;
  let b = ref 0 in
  while !b < n do
    let m = min batch_rows (n - !b) in
    for j = 0 to m - 1 do
      Array.unsafe_set phys j (at asel (!b + j));
      if nk > 0 then begin
        let i = at ksel (!b + j) in
        for w = nk to ncodes - 1 do
          codes.(w) <- 0
        done;
        for k = 0 to nk - 1 do
          let q = Array.unsafe_get nbit k in
          if q >= 0 && Col.is_null (Array.unsafe_get kc k) i then begin
            codes.(k) <- 0;
            let w = nk + (q / 62) in
            codes.(w) <- codes.(w) lor (1 lsl (q mod 62))
          end
          else codes.(k) <- (Array.unsafe_get encs k) i
        done;
        let g = Keytab.lookup tab codes ~insert:true in
        if g = Ivec.length firsts then Ivec.push firsts (!b + j);
        Array.unsafe_set gids j g
      end
    done;
    Array.iter
      (fun a ->
        a.grow (ngroups ());
        a.fold gids phys m)
      aggs;
    b := !b + m
  done;
  let firsts = Ivec.to_array firsts in
  {
    ngroups = ngroups ();
    firsts;
    key =
      (fun k g ->
        match kcols.(k) with Some c -> Col.get c (at ksel firsts.(g)) | None -> Value.Null);
    agg = (fun a g -> aggs.(a).value g);
  }

let key_cols ch (ixs : int array) =
  Array.map (fun ix -> if ix >= 0 then Some ch.cols.(ix) else None) ixs

let hash_agg_chunk ~(kixs : int array) ~(agg_binds : (chunk -> aggregator) array) ch =
  let aggs = Array.map (fun b -> b ch) agg_binds in
  let g = group_rows ~kcols:(key_cols ch kixs) ~aggs ~n:ch.card ~ksel:ch.sel ~asel:ch.sel in
  groups_chunk ~nk:(Array.length kixs) ~na:(Array.length aggs) g.ngroups ~key:g.key ~agg:g.agg

(* --- Grace spill: typed key blocks for [Spill] ---

   Over budget, [Spill] partitions a chunk's logical positions, writes
   its key columns gathered per partition, and runs the kernels above
   on one partition's block at a time. Positions are logical, never
   physical: under a [Sort] the selection vector is a permutation. *)

(* A key column's partition hash of physical row [i]: [Value.hash] of
   its value, so values that are [Value.equal] hash equal across
   representations ([Int 1]/[Float 1.0], [0.0]/[-0.0]); unboxed for
   [Ints], [Dates] and [Strs]. NULL hashes to -1, which [Value.hash]
   never returns. *)
let part_hash (c : Col.t) : int -> int =
  let nulls = Col.has_nulls c in
  match c.Col.data with
  | Col.Ints a | Col.Dates a ->
    fun i -> if nulls && Col.is_null c i then -1 else Hashtbl.hash (Array.unsafe_get a i)
  | Col.Strs a ->
    fun i -> if nulls && Col.is_null c i then -1 else Hashtbl.hash (Array.unsafe_get a i)
  | Col.Floats _ | Col.Bools _ | Col.Values _ ->
    fun i -> ( match Col.get c i with Value.Null -> -1 | v -> Value.hash v)

(* The physical rows of logical positions [pos]. *)
let physical ch pos = match ch.sel with Some s -> Array.map (Array.get s) pos | None -> pos

(* A chunk's key columns [ixs] as a spill side. An unresolvable key is
   NULL on every row: it drops every join row and is an all-NULL column
   in an aggregate's blocks. *)
let spill_side ch (ixs : int array) : Col.t array Spill.side =
  let kcols = key_cols ch ixs in
  let logical h = match ch.sel with None -> h | Some s -> fun j -> h (Array.unsafe_get s j) in
  {
    rows = ch.card;
    hashes = Array.map (function Some c -> logical (part_hash c) | None -> fun _ -> -1) kcols;
    gather =
      (fun pos ->
        let ix = physical ch pos in
        Array.map
          (function
            | Some c -> Col.gather c ix
            | None -> Col.of_value_array (Array.make (Array.length pos) Value.Null))
          kcols);
    key_bytes = Array.fold_left (fun a c -> a + Col.byte_size c) 0;
  }

let block_chunk ({ pos; keys } : Col.t array Spill.block) =
  { cols = keys; card = Array.length pos; sel = None }

let spill_join mem ~bytes ~lixs ~rixs lch rch emit =
  let ids = Array.init (Array.length lixs) Fun.id in
  Spill.join mem ~bytes
    ~kernel:(fun l r -> hash_join_pairs ~lixs:ids ~rixs:ids (block_chunk l) (block_chunk r))
    (spill_side lch lixs) (spill_side rch rixs)
    (fun l r -> emit (at lch.sel l) (at rch.sel r))

(* A partition's groups keep only their keys and aggregator state. *)
let spill_agg mem ~bytes ~kixs ~agg_binds ch =
  let groups =
    Spill.agg mem ~bytes
      ~kernel:(fun { pos; keys } ->
        let g =
          group_rows ~kcols:(Array.map Option.some keys)
            ~aggs:(Array.map (fun b -> b ch) agg_binds)
            ~n:(Array.length pos) ~ksel:None ~asel:(Some (physical ch pos))
        in
        ((Array.map (fun c -> Col.gather c g.firsts) keys, g.agg), g.firsts))
      (spill_side ch kixs)
  in
  groups_chunk ~nk:(Array.length kixs) ~na:(Array.length agg_binds) (Array.length groups)
    ~key:(fun k o ->
      let (keys, _), g = groups.(o) in
      Col.get keys.(k) g)
    ~agg:(fun a o ->
      let (_, agg), g = groups.(o) in
      agg a g)

(* --- sort: a permutation selvec, no row movement --- *)

let sort_chunk ~(kix : (int * bool) list) ch =
  let perm =
    match ch.sel with
    | Some s -> Array.copy s
    | None -> Array.init ch.card (fun i -> i)
  in
  let getv ix i = if ix >= 0 then Col.get ch.cols.(ix) i else Value.Null in
  let cmp i1 i2 =
    let rec go = function
      | [] -> 0
      | (ix, desc) :: rest ->
        let c = Value.compare (getv ix i1) (getv ix i2) in
        if c <> 0 then if desc then -c else c else go rest
    in
    go kix
  in
  (* a stable sort of the logical-order index array is exactly a stable
     sort of the rows *)
  Array.stable_sort cmp perm;
  { ch with sel = Some perm }

(* --- the kernels --- *)

let join_keys ls rs keys =
  ( key_ixs (Storage.Relation.resolver ls) (List.map fst keys),
    key_ixs (Storage.Relation.resolver rs) (List.map snd keys) )

let kernels : chunk kernels =
  {
    scan =
      (fun r schema ~project ->
        let card = Storage.Relation.cardinality r in
        (* A paged scan under a [Project] decodes only the columns its
           items reference, resolved as [Project] resolves them; the
           rest are zero-length placeholders nothing reads. A resident
           relation ignores the mask. *)
        let needed =
          match project with
          | Some items when Storage.Relation.is_paged r ->
            read_mask (Storage.Relation.resolver schema) (List.length schema)
              (List.fold_left (fun s (e, _) -> Attr.Set.union s (Expr.cols e)) Attr.Set.empty items)
          | _ -> Array.make (List.length schema) true
        in
        (* fetched per execution, not at compile time: paged relations
           re-read their segments on every access *)
        fun () -> { cols = Storage.Relation.read_cols r ~needed; card; sel = None });
    filter =
      (fun schema pred ->
        let bp = bind_pred (Storage.Relation.resolver schema) pred in
        fun ch ->
          let sel = filter_select ch (bp ch) in
          { ch with card = Array.length sel; sel = Some sel });
    project =
      (fun schema items ->
        let rv = Storage.Relation.resolver schema in
        let plans =
          Array.of_list
            (List.map
               (fun (e, _) ->
                 match fold_scalar e with
                 | Expr.Col a as e' -> (
                   match Storage.Relation.resolve rv a with
                   | Some ix -> `Pass ix (* zero-copy column projection *)
                   | None -> `Compute (bind_scalar rv e'))
                 | e' -> `Compute (bind_scalar rv e'))
               items)
        in
        fun ch ->
          let cols =
            Array.map
              (function
                | `Pass ix -> (
                  match ch.sel with None -> ch.cols.(ix) | Some sel -> Col.gather ch.cols.(ix) sel)
                | `Compute bind ->
                  let g = bind ch in
                  let out = Array.make ch.card Value.Null in
                  (match ch.sel with
                  | None ->
                    for i = 0 to ch.card - 1 do
                      out.(i) <- g i
                    done
                  | Some sel ->
                    for j = 0 to ch.card - 1 do
                      out.(j) <- g (Array.unsafe_get sel j)
                    done);
                  Col.of_values out)
              plans
          in
          { cols; card = ch.card; sel = None });
    hash_join =
      (fun ls rs keys residual ->
        let lixs, rixs = join_keys ls rs keys in
        let residual = bind_residual (ls @ rs) residual in
        fun mode lch rch ->
          collect_pairs ?residual lch rch
            (match mode with
            | In_memory -> hash_join_pairs ~lixs ~rixs lch rch
            | Spilled { mem; bytes } -> spill_join mem ~bytes ~lixs ~rixs lch rch));
    merge_join =
      (fun ls rs keys residual ->
        let lixs, rixs = join_keys ls rs keys in
        let residual = bind_residual (ls @ rs) residual in
        fun lch rch -> collect_pairs ?residual lch rch (merge_join_pairs ~lixs ~rixs lch rch));
    nl_join =
      (fun ls rs pred ->
        let residual = bind_residual (ls @ rs) pred in
        fun lch rch ->
          collect_pairs ?residual lch rch (fun emit ->
              iter_logical lch (fun lp -> iter_logical rch (fun rp -> emit lp rp))));
    hash_agg =
      (fun schema keys aggs ->
        let rv = Storage.Relation.resolver schema in
        let kixs = key_ixs rv keys in
        let agg_binds = Array.of_list (List.map (bind_agg rv) aggs) in
        fun mode ch ->
          match mode with
          | In_memory -> hash_agg_chunk ~kixs ~agg_binds ch
          | Spilled { mem; bytes } -> spill_agg mem ~bytes ~kixs ~agg_binds ch);
    sort =
      (fun schema keys ->
        let rv = Storage.Relation.resolver schema in
        let kix = List.map (fun (a, desc) -> (key_ix rv a, desc)) keys in
        sort_chunk ~kix);
    union =
      (fun schema ->
        let width = List.length schema in
        fun parts ->
          let mats = List.map materialize parts in
          let cols = Array.init width (fun j -> Col.concat (List.map (fun m -> m.(j)) mats)) in
          { cols; card = List.fold_left (fun acc ch -> acc + ch.card) 0 parts; sel = None });
    card = (fun ch -> ch.card);
    byte_size = chunk_bytes;
    to_relation =
      (fun schema ch -> Storage.Relation.of_cols ~schema ~card:ch.card (materialize ch));
  }

type t = chunk plan

let schema = plan_schema
let compile ~db ~table_cols plan = Runtime.compile kernels ~db ~table_cols plan
let execute = Runtime.execute

let run ?faults ?retry ?budget ~network ~db ~table_cols plan =
  execute ?faults ?retry ?budget ~network (compile ~db ~table_cols plan)
