(* Vectorized executor for physical plans.

   The production engine. Where the reference interpreter's kernels
   ([Interp]) work over one boxed [Value.t array] row at a time, this
   engine's kernels run over the column-major representation
   ([Storage.Column]) directly, in batches of up to 256 rows:

   - a node's output is a {i chunk}: the input columns plus an optional
     selection vector, so filters refine a selvec per batch without
     materializing anything (a filter every row passes returns its
     input);
   - a predicate binds once per execution to a {i view} of typed
     columns and becomes a {i refiner}, which narrows a batch's list of
     positions: each atom whose operands have a typed representation
     (column vs constant or vs a same-variant column, IN over a
     same-variant list, LIKE over strings) runs one loop over the
     unboxed array with its operator chosen before the loop; And, Or
     and Not combine position lists; any other atom evaluates per
     boxed row behind the same interface;
   - hash joins and aggregations share one unboxed key table: each key
     component becomes an int code (the value itself, or a string or
     boxed-value dictionary code; a group key holding a NULL takes the
     boxed dictionary) and the code tuple maps to a dense id. When
     every component is an int value and the product of the
     components' ranges is at most max(4,096, 4 * rows), the id sits
     at the tuple's mixed-radix offset into one int array (direct
     layout); otherwise open addressing over flat int arrays finds it
     (hashed layout). A join's build and probe and a grouping run one
     key loop: encode a batch of rows one key component at a time,
     drop a join's NULL keys, then look the batch up;
   - hash joins chain build rows per id, collect matching row-index
     pairs, and materialize the output once with [Column.gather]; a
     join residual refines candidate pairs a batch at a time through
     the filters' refiners, reading each side's columns through its
     candidate queue, so nothing is gathered before it passes;
   - merge join and sort compare key cells through typed comparators;
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

(* Rows per batch in filter, join and aggregation loops. A batch buffer
   of at most 256 words is the largest block OCaml allocates in the
   minor heap, so per-execution scratch never lands in the major heap,
   where it would raise the heap's high-water mark. *)
let batch_rows = 256

(* A batch-at-rest: columns plus an optional selection vector mapping
   logical position -> physical row index. [card] is the logical row
   count (= length of [sel] when present). *)
type chunk = { cols : Col.t array; card : int; sel : int array option }

(* --- chunk primitives --- *)

let materialize ch =
  match ch.sel with
  | None -> ch.cols
  | Some sel -> Array.map (fun c -> Col.gather c sel) ch.cols

(* The physical row of logical position [j] under selection [sel]. *)
let at sel j = match sel with Some s -> Array.unsafe_get s j | None -> j

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

(* --- scalar binding ---

   Compilation is two-stage: plan-compile time resolves attributes to
   column indices and folds constants, and execution binds the result
   to a concrete chunk's columns. Bound scalars and predicates evaluate
   exactly as [Expr.eval] / [Pred.eval] do in [Interp]. *)

type getter = int -> Value.t

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

(* The one scalar binder: [bind_scalar rv e col] reads column [ix]
   through the getter [col ix] (a chunk's physical rows, or a
   predicate view's batch positions). *)
let rec bind_scalar_tree rv (e : Expr.scalar) : (int -> getter) -> getter =
  match e with
  | Expr.Const v -> fun _ _ -> v
  | Expr.Col a -> (
    match Storage.Relation.resolve rv a with
    | Some ix -> fun col -> col ix
    | None -> fun _ _ -> Value.Null)
  | Expr.Binop (op, l, r) ->
    let bl = bind_scalar_tree rv l and br = bind_scalar_tree rv r in
    let f = binop_fn op in
    fun col ->
      let gl = bl col and gr = br col in
      fun i -> f (gl i) (gr i)

let bind_scalar rv e = bind_scalar_tree rv (fold_scalar e)

(* A chunk's column [ix] by physical row. *)
let chunk_col ch ix = Col.get ch.cols.(ix)

(* --- predicates: refiners over a view ---

   A predicate binds once per execution to a view: the columns, and
   per column the buffer mapping a batch position to that column's
   physical row. A filter maps every column through its batch's rows; a
   join residual maps left columns through the left candidate queue
   and right columns through the right one, so nothing is gathered.
   Batches hold at most [size] positions.

   The bound predicate is a refiner: [refine inp n out] writes those of
   the ascending batch positions [inp.(0)], ..., [inp.(n - 1)] that
   satisfy it to [out], in order, and returns their count. A refiner
   writes [out.(m)] only after reading [inp.(m)], so [out] may be
   [inp]. [And] narrows through its conjuncts in turn; [Or] merges its
   left side's survivors with its right side's among the positions the
   left rejected; [Not] takes the complement. *)

type view = { vcols : Col.t array; rows : int array array; size : int }
type refiner = int array -> int -> int array -> int

(* The positions [0 .. batch_rows - 1], a batch before refinement:
   shared and never written, as a refiner only reads its input list
   when its output is another buffer. *)
let all_positions = Array.init batch_rows Fun.id

(* Whether row [i] is NULL in a typed column's bitmap: [null_bit]
   for a non-empty bitmap, [null_at] for any. Loops test [nn || not
   (null_bit nulls i)], with [nn] (no bitmap) computed before the
   loop. *)
let[@inline] null_bit nulls i =
  Char.code (Bytes.unsafe_get nulls (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] null_at nulls i = Bytes.length nulls > 0 && null_bit nulls i

(* A comparison as a mask over a three-way result: bit 0 less, bit 1
   equal, bit 2 greater. Typed loops test [pick mask (sign (compare x y))], so
   the operator is chosen once per binding, not per row. *)
let cmp_mask : Pred.cmp -> int = function
  | Pred.Eq -> 2
  | Pred.Ne -> 5
  | Pred.Lt -> 1
  | Pred.Le -> 3
  | Pred.Gt -> 4
  | Pred.Ge -> 6

(* [mask]'s bit for a sign [s] in {-1, 0, 1}: 1 if the comparison
   holds, else 0, computed without a branch. [sign] maps any
   three-way result to its sign. *)
let[@inline] pick mask s = (mask lsr (s + 1)) land 1
let[@inline] sign c = Bool.to_int (c > 0) - Bool.to_int (c < 0)
let[@inline] int_sign (x : int) y = Bool.to_int (x > y) - Bool.to_int (x < y)

(* Typed atom loops, one per representation. A row passes when it is
   not NULL and the comparison holds: [*_vs] against a constant [k],
   [*_vs_col] against a second column of the same variant. Floats
   compare by [Float.compare], as [Value.compare] does: NaN equals NaN
   and sorts first, and [0.0] equals [-0.0]. Each loop writes every
   position and advances past it only if it passes, so the comparison
   takes no branch. *)
let ints_vs mask (a : int array) nulls (rows : int array) k : refiner =
 fun inp n out ->
  let m = ref 0 and nn = Bytes.length nulls = 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    let i = Array.unsafe_get rows j in
    Array.unsafe_set out !m j;
    if nn || not (null_bit nulls i) then
      m := !m + pick mask (int_sign (Array.unsafe_get a i) k)
  done;
  !m

let floats_vs mask (a : float array) nulls (rows : int array) k : refiner =
 fun inp n out ->
  let m = ref 0 and nn = Bytes.length nulls = 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    let i = Array.unsafe_get rows j in
    Array.unsafe_set out !m j;
    if nn || not (null_bit nulls i) then
      m := !m + pick mask (sign (Float.compare (Array.unsafe_get a i) k))
  done;
  !m

let strs_vs mask (a : string array) nulls (rows : int array) k : refiner =
 fun inp n out ->
  let m = ref 0 and nn = Bytes.length nulls = 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    let i = Array.unsafe_get rows j in
    Array.unsafe_set out !m j;
    if nn || not (null_bit nulls i) then
      m := !m + pick mask (sign (String.compare (Array.unsafe_get a i) k))
  done;
  !m

let ints_vs_col mask (a : int array) na (ra : int array) (b : int array) nb (rb : int array) :
    refiner =
 fun inp n out ->
  let m = ref 0 and nn = Bytes.length na = 0 && Bytes.length nb = 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    let i = Array.unsafe_get ra j and i' = Array.unsafe_get rb j in
    Array.unsafe_set out !m j;
    if nn || not (null_at na i || null_at nb i') then
      m := !m + pick mask (int_sign (Array.unsafe_get a i) (Array.unsafe_get b i'))
  done;
  !m

let floats_vs_col mask (a : float array) na (ra : int array) (b : float array) nb
    (rb : int array) : refiner =
 fun inp n out ->
  let m = ref 0 and nn = Bytes.length na = 0 && Bytes.length nb = 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    let i = Array.unsafe_get ra j and i' = Array.unsafe_get rb j in
    Array.unsafe_set out !m j;
    if nn || not (null_at na i || null_at nb i') then
      m := !m + pick mask (sign (Float.compare (Array.unsafe_get a i) (Array.unsafe_get b i')))
  done;
  !m

let strs_vs_col mask (a : string array) na (ra : int array) (b : string array) nb
    (rb : int array) : refiner =
 fun inp n out ->
  let m = ref 0 and nn = Bytes.length na = 0 && Bytes.length nb = 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    let i = Array.unsafe_get ra j and i' = Array.unsafe_get rb j in
    Array.unsafe_set out !m j;
    if nn || not (null_at na i || null_at nb i') then
      m := !m + pick mask (sign (String.compare (Array.unsafe_get a i) (Array.unsafe_get b i')))
  done;
  !m

let rec mem_int (ks : int array) x k =
  k < Array.length ks && (Array.unsafe_get ks k = x || mem_int ks x (k + 1))

let rec mem_str (ks : string array) x k =
  k < Array.length ks && (String.equal x (Array.unsafe_get ks k) || mem_str ks x (k + 1))

(* IN over a same-variant list, and LIKE with wildcards. *)
let ints_in (a : int array) nulls (rows : int array) ks : refiner =
 fun inp n out ->
  let m = ref 0 and nn = Bytes.length nulls = 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    let i = Array.unsafe_get rows j in
    if (nn || not (null_bit nulls i)) && mem_int ks (Array.unsafe_get a i) 0 then begin
      Array.unsafe_set out !m j;
      incr m
    end
  done;
  !m

let strs_in (a : string array) nulls (rows : int array) ks : refiner =
 fun inp n out ->
  let m = ref 0 and nn = Bytes.length nulls = 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    let i = Array.unsafe_get rows j in
    if (nn || not (null_bit nulls i)) && mem_str ks (Array.unsafe_get a i) 0 then begin
      Array.unsafe_set out !m j;
      incr m
    end
  done;
  !m

let strs_like (a : string array) nulls (rows : int array) pattern : refiner =
 fun inp n out ->
  let m = ref 0 and nn = Bytes.length nulls = 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    let i = Array.unsafe_get rows j in
    if (nn || not (null_bit nulls i)) && Pred.like_match ~pattern (Array.unsafe_get a i) then begin
      Array.unsafe_set out !m j;
      incr m
    end
  done;
  !m

(* All of [vs] through [f], or [None] if [f] rejects one. *)
let all_of f vs =
  let xs = List.filter_map f vs in
  if List.compare_lengths xs vs = 0 then Some (Array.of_list xs) else None

(* An atom's typed loop on a view, or [None] when its operands are not
   columns (or constants) of a representation with one. Mixed Int/Float
   column pairs, Int-vs-Date, arithmetic, [Bools]/[Values] columns and
   IS [NOT] NULL have none. *)
let typed_atom rv (a : Pred.atom) : view -> (int * refiner) option =
  let resolve = function Expr.Col a -> Storage.Relation.resolve rv a | _ -> None in
  let col v ix = (v.vcols.(ix).Col.data, v.vcols.(ix).Col.nulls, v.rows.(ix)) in
  let vs_const c e (k : Value.t) =
    let mask = cmp_mask c in
    match resolve e with
    | None -> fun _ -> None
    | Some ix -> (
      fun v ->
        match col v ix, k with
        | (Col.Ints a, nulls, rows), Value.Int k | (Col.Dates a, nulls, rows), Value.Date k ->
          Some (0, ints_vs mask a nulls rows k)
        | (Col.Floats a, nulls, rows), Value.Float k -> Some (0, floats_vs mask a nulls rows k)
        (* [Value.compare] promotes the Int side *)
        | (Col.Floats a, nulls, rows), Value.Int k ->
          Some (0, floats_vs mask a nulls rows (float_of_int k))
        | (Col.Strs a, nulls, rows), Value.Str k -> Some (1, strs_vs mask a nulls rows k)
        | _ -> None)
  in
  match a with
  | Pred.Cmp (c, l, r) -> (
    match fold_scalar l, fold_scalar r with
    | e, Expr.Const k -> vs_const c e k
    | Expr.Const k, e -> vs_const (Pred.flip_cmp c) e k
    | l, r -> (
      let mask = cmp_mask c in
      match resolve l, resolve r with
      | Some il, Some ir -> (
        fun v ->
          match col v il, col v ir with
          | (Col.Ints a, na, ra), (Col.Ints b, nb, rb)
          | (Col.Dates a, na, ra), (Col.Dates b, nb, rb) ->
            Some (0, ints_vs_col mask a na ra b nb rb)
          | (Col.Floats a, na, ra), (Col.Floats b, nb, rb) ->
            Some (0, floats_vs_col mask a na ra b nb rb)
          | (Col.Strs a, na, ra), (Col.Strs b, nb, rb) ->
            Some (1, strs_vs_col mask a na ra b nb rb)
          | _ -> None)
      | _ -> fun _ -> None))
  | Pred.In (e, vs) -> (
    (* a NULL in the list equals no row *)
    let vs = List.filter (fun v -> not (Value.is_null v)) vs in
    let ints = all_of (function Value.Int k -> Some k | _ -> None) vs
    and dates = all_of (function Value.Date k -> Some k | _ -> None) vs
    and strs = all_of (function Value.Str s -> Some s | _ -> None) vs in
    match resolve e with
    | None -> fun _ -> None
    | Some ix -> (
      fun v ->
        match col v ix, ints, dates, strs with
        | (Col.Ints a, nulls, rows), Some ks, _, _ | (Col.Dates a, nulls, rows), _, Some ks, _ ->
          Some (0, ints_in a nulls rows ks)
        | (Col.Strs a, nulls, rows), _, _, Some ks -> Some (1, strs_in a nulls rows ks)
        | _ -> None))
  | Pred.Like (e, pat) -> (
    match resolve e with
    | None -> fun _ -> None
    | Some ix -> (
      fun v ->
        match col v ix with
        | Col.Strs a, nulls, rows ->
          Some
            ( 1,
              if has_wildcard pat then strs_like a nulls rows pat
              else strs_vs (cmp_mask Pred.Eq) a nulls rows pat )
        | _ -> None))
  | Pred.Is_null _ | Pred.Not_null _ -> fun _ -> None

(* Any atom, one boxed row at a time, with [Pred.eval_atom]'s
   semantics: NULL compares false and matches no LIKE or IN. *)
let generic_atom rv (a : Pred.atom) : view -> refiner =
  let test : (int -> getter) -> int -> bool =
    match a with
    | Pred.Cmp (c, l, r) ->
      let bl = bind_scalar rv l and br = bind_scalar rv r in
      fun col ->
        let gl = bl col and gr = br col in
        fun j -> Pred.eval_cmp c (gl j) (gr j)
    | Pred.Like (e, pattern) ->
      let be = bind_scalar rv e in
      fun col ->
        let g = be col in
        fun j -> ( match g j with Value.Str s -> Pred.like_match ~pattern s | _ -> false)
    | Pred.In (e, vs) ->
      let be = bind_scalar rv e in
      fun col ->
        let g = be col in
        fun j ->
          let x = g j in
          (not (Value.is_null x)) && List.exists (Value.equal x) vs
    | Pred.Is_null e ->
      let be = bind_scalar rv e in
      fun col ->
        let g = be col in
        fun j -> Value.is_null (g j)
    | Pred.Not_null e ->
      let be = bind_scalar rv e in
      fun col ->
        let g = be col in
        fun j -> not (Value.is_null (g j))
  in
  fun v ->
    let test =
      test (fun ix ->
          let c = v.vcols.(ix) and r = v.rows.(ix) in
          fun j -> Col.get c (Array.unsafe_get r j))
    in
    fun inp n out ->
      let m = ref 0 in
      for t = 0 to n - 1 do
        let j = Array.unsafe_get inp t in
        if test j then begin
          Array.unsafe_set out !m j;
          incr m
        end
      done;
      !m

(* The positions of [inp.(0 .. n - 1)] not among its ascending
   subsequence [yes.(0 .. a - 1)], into [out]. *)
let complement inp n yes a out =
  let k = ref 0 and m = ref 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get inp t in
    if !k < a && Array.unsafe_get yes !k = j then incr k
    else begin
      Array.unsafe_set out !m j;
      incr m
    end
  done;
  !m

(* The ascending, disjoint [x.(0 .. a - 1)] and [y.(0 .. b - 1)] merged
   into [out]. *)
let merge x a y b out =
  let i = ref 0 and k = ref 0 in
  for m = 0 to a + b - 1 do
    if !k >= b || (!i < a && Array.unsafe_get x !i < Array.unsafe_get y !k) then begin
      Array.unsafe_set out m (Array.unsafe_get x !i);
      incr i
    end
    else begin
      Array.unsafe_set out m (Array.unsafe_get y !k);
      incr k
    end
  done;
  a + b

(* Conjuncts in turn: the first reads [inp], the rest narrow [out] in
   place. *)
let rec narrow (fs : refiner list) inp n out =
  match fs with [] -> n | f :: rest -> narrow rest out (f inp n out) out

(* Bind a folded predicate to a refiner and its cost per row: 0 for a
   typed loop over numbers, 1 over strings, 2 for boxed rows. A
   conjunction runs its conjuncts cheapest first (stably): predicates
   are pure and total, so the order changes no result, only how many
   rows the costly conjuncts see (Q12's filter puts its string IN
   first). [Or] and [Not] take [size]-slot scratch buffers per
   binding. *)
let rec bind_refiner rv (p : Pred.t) : view -> int * refiner =
  match p with
  | Pred.True ->
    fun _ ->
      ( 0,
        fun inp n out ->
          Array.blit inp 0 out 0 n;
          n )
  | Pred.False -> fun _ -> (0, fun _ _ _ -> 0)
  | Pred.Atom a -> (
    let typed = typed_atom rv a and generic = generic_atom rv a in
    fun v -> match typed v with Some bound -> bound | None -> (2, generic v))
  | Pred.And _ ->
    let bs = List.map (bind_refiner rv) (Pred.conjuncts p) in
    fun v ->
      let fs =
        List.stable_sort (fun (c, _) (c', _) -> Int.compare c c') (List.map (fun b -> b v) bs)
      in
      (List.fold_left (fun c (c', _) -> max c c') 0 fs, narrow (List.map snd fs))
  | Pred.Or (l, r) ->
    let bl = bind_refiner rv l and br = bind_refiner rv r in
    fun v ->
      let cl, fl = bl v and cr, fr = br v in
      let yes = Array.make v.size 0 and no = Array.make v.size 0 in
      ( max cl cr,
        fun inp n out ->
          let a = fl inp n yes in
          let b = fr no (complement inp n yes a no) no in
          merge yes a no b out )
  | Pred.Not q ->
    let bq = bind_refiner rv q in
    fun v ->
      let c, fq = bq v and yes = Array.make v.size 0 in
      (c, fun inp n out -> complement inp n yes (fq inp n yes) out)

(* Folding and attribute resolution happen here, once per compiled
   plan; only the binding to a view happens per execution. *)
let bind_pred rv p =
  let b = bind_refiner rv (fold_pred p) in
  fun v -> snd (b v)

(* --- join machinery --- *)

(* Run a join kernel, collecting the (left physical, right physical)
   pairs it emits in emission order, then gather both sides once: the
   single materialization point of a join. With a residual (bound
   against the joined schema, left columns then right), candidates
   queue up to [batch_rows] at a time, and each full queue is refined
   through a view that reads left columns through the left queue and
   right columns through the right one; survivors keep their order. *)
let collect_pairs ?residual lch rch (kernel : (int -> int -> unit) -> unit) : chunk =
  let lidx = Ivec.create () and ridx = Ivec.create () in
  (match residual with
  | None ->
    kernel (fun lp rp ->
        Ivec.push lidx lp;
        Ivec.push ridx rp)
  | Some bind ->
    let size = min batch_rows (lch.card * rch.card) in
    let ql = Array.make size 0 and qr = Array.make size 0 in
    let lw = Array.length lch.cols and width = Array.length lch.cols + Array.length rch.cols in
    let refine =
      bind
        {
          vcols = Array.append lch.cols rch.cols;
          rows = Array.init width (fun k -> if k < lw then ql else qr);
          size;
        }
    in
    let keep = Array.make size 0 in
    let n = ref 0 in
    let flush () =
      for t = 0 to refine all_positions !n keep - 1 do
        let j = Array.unsafe_get keep t in
        Ivec.push lidx (Array.unsafe_get ql j);
        Ivec.push ridx (Array.unsafe_get qr j)
      done;
      n := 0
    in
    kernel (fun lp rp ->
        Array.unsafe_set ql !n lp;
        Array.unsafe_set qr !n rp;
        incr n;
        if !n = size then flush ());
    if !n > 0 then flush ());
  let lidx = Ivec.to_array lidx and ridx = Ivec.to_array ridx in
  let gl = Array.map (fun c -> Col.gather c lidx) lch.cols in
  let gr = Array.map (fun c -> Col.gather c ridx) rch.cols in
  { cols = Array.append gl gr; card = Array.length lidx; sel = None }

(* A join residual, bound against the joined schema; [None] when it
   folds to [True]. *)
let bind_residual (cschema : Attr.t list) (p : Pred.t) =
  match fold_pred p with
  | Pred.True -> None
  | p -> Some (bind_pred (Storage.Relation.resolver cschema) p)

(* --- the key table: int-code tuples -> dense ids ---

   Hash joins and aggregations encode each key component of a row as
   an int code (see the encoders below) and map the [nk]-tuple of codes
   to a dense id, 0, 1, 2, ... in first-insertion order. Ids live in
   one flat [int array] of slots (-1 = empty), and the table's layout,
   chosen when it is created, is how a code tuple finds its slot:

   - direct: when every component's codes are int values in a known
     range ([Raw_key]s: a join's, or a grouping's NULL-free
     [Ints]/[Dates] keys) and
     the product of the ranges' widths is within [direct_bound], the
     slot is the tuple's mixed-radix offset: no hash, no probe, and a
     code outside its component's range misses before any load;
   - hashed: otherwise (dictionary codes, wide ranges), a multiplicative
     hash and linear probing, with the codes of each id kept in a
     second flat array to compare against.

   Nothing is boxed, and only the hashed layout's growth allocates. *)
module Keytab = struct
  type t = {
    nk : int;
    mutable slots : int array;  (* an id, or -1 = empty *)
    mutable n : int;  (* ids assigned *)
    direct : bool;
    (* direct: component [k]'s codes run from [lo.(k)] over [width.(k)] values *)
    lo : int array;
    width : int array;
    (* hashed: [slots] has a power-of-two length, and id's codes sit at
       [keys.(id * nk)], ..., [keys.(id * nk + nk - 1)] *)
    mutable keys : int array;
  }

  let rec pow2_above c n = if c > n then c else pow2_above (2 * c) n

  (* The hashed layout, with room for [size] ids before the first
     growth: at least [2 size] slots plus [size * nk] keys. *)
  let hashed ~nk size =
    let size = max 8 size in
    {
      nk;
      slots = Array.make (pow2_above 16 (2 * size)) (-1);
      n = 0;
      direct = false;
      lo = [||];
      width = [||];
      keys = Array.make (size * nk) 0;
    }

  (* The direct layout's slot budget over [rows] input rows: at most
     four words a row (a key column itself takes one), with a floor of
     4,096 words (32 KB) for small inputs. The hashed layout takes at
     least [2n] slots plus [n * nk] keys for room for [n] ids. A join
     makes room for its [n] build rows, so once [n] passes 1,024 its
     direct table takes at most 4/3 of the hashed one's words at
     [nk = 1], and no more at [nk >= 2]. A grouping's hashed table
     grows with its groups instead, so a few groups spread over a wide
     range can take more words direct, but never more than four a
     row. *)
  let direct_bound rows = max 4096 (4 * rows)

  (* The number of values from [lo] to [hi]: 0 when [lo > hi] (no
     value seen), [max_int] when it has no int: [hi - lo] wraps
     negative past [max_int] (keys at [min_int] and [max_int]), and
     [max_int] has no successor. *)
  let width lo hi =
    if lo > hi then 0
    else
      let span = hi - lo in
      if span < 0 || span = max_int then max_int else span + 1

  (* The direct layout over components whose codes run from [lo] over
     [width] values, one [(lo, width)] pair each, or [None] when the
     widths' product passes [direct_bound rows]. The product is tested
     by division, so it never overflows. *)
  let direct ~rows ranges =
    let lo = Array.map fst ranges and width = Array.map snd ranges in
    let bound = direct_bound rows in
    let size =
      Array.fold_left
        (fun p w -> if p > bound || (w > 0 && p > bound / w) then bound + 1 else p * w)
        1 width
    in
    if size > bound then None
    else
      Some
        {
          nk = Array.length width;
          slots = Array.make size (-1);
          n = 0;
          direct = true;
          lo;
          width;
          keys = [||];
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

  let rec same keys base (codes : int array) at nk k =
    k = nk
    || Array.unsafe_get keys (base + k) = Array.unsafe_get codes (at + k)
       && same keys base codes at nk (k + 1)

  (* The direct slot of the codes at [codes.(at)]: component [k]'s
     digit is [code - lo.(k)], or -1 for the whole tuple when the digit
     falls outside [0, width.(k)). The subtraction may wrap, but ints
     add modulo 2^63, so the digit lands in range exactly when the code
     does. *)
  let rec offset lo width (codes : int array) at nk k o =
    if k = nk then o
    else
      let d = Array.unsafe_get codes (at + k) - Array.unsafe_get lo k
      and w = Array.unsafe_get width k in
      if d < 0 || d >= w then -1 else offset lo width codes at nk (k + 1) ((o * w) + d)

  (* Assign the next id to the codes at [codes.(at)], which probed to
     the empty hashed slot [s]; past half load, double the slots and
     re-place every id. *)
  let add t (codes : int array) at s =
    let id = t.n and nk = t.nk in
    let base = id * nk in
    if base + nk > Array.length t.keys then begin
      let keys = Array.make (2 * Array.length t.keys) 0 in
      Array.blit t.keys 0 keys 0 base;
      t.keys <- keys
    end;
    for k = 0 to nk - 1 do
      Array.unsafe_set t.keys (base + k) (Array.unsafe_get codes (at + k))
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

  (* The next id, for the empty direct slot [s]. *)
  let fill t s =
    let id = t.n in
    Array.unsafe_set t.slots s id;
    t.n <- id + 1;
    id

  (* The id of the [nk] codes at [codes.(at)]: -1 when absent, unless
     [insert], which assigns the next id. Inserted codes are in range
     in the direct layout: its ranges cover every row inserted. *)
  let lookup t (codes : int array) at ~insert =
    if t.direct then begin
      let s = offset t.lo t.width codes at t.nk 0 0 in
      if s < 0 then -1
      else
        let id = Array.unsafe_get t.slots s in
        if id >= 0 || not insert then id else fill t s
    end
    else begin
      let slots = t.slots in
      let mask = Array.length slots - 1 in
      let s = ref (hash t.nk codes at land mask) and found = ref (-2) in
      while !found = -2 do
        let id = Array.unsafe_get slots !s in
        if id < 0 then found := if insert then add t codes at !s else -1
        else if same t.keys (id * t.nk) codes at t.nk 0 then found := id
        else s := (!s + 1) land mask
      done;
      !found
    end

  (* [lookup] for the batch positions [pos.(0)], ..., [pos.(m - 1)],
     whose codes sit at [codes.(pos.(i) * nk)], into [ids], in order.
     The layout is tested once per batch; a one-component direct table
     subtracts and tests the range inline. *)
  let lookup_batch t (codes : int array) (pos : int array) m (ids : int array) ~insert =
    if t.direct && t.nk = 1 then begin
      let lo = t.lo.(0) and w = t.width.(0) and slots = t.slots in
      for i = 0 to m - 1 do
        let s = Array.unsafe_get codes (Array.unsafe_get pos i) - lo in
        Array.unsafe_set ids i
          (if s < 0 || s >= w then -1
           else
             let id = Array.unsafe_get slots s in
             if id >= 0 || not insert then id else fill t s)
      done
    end
    else
      for i = 0 to m - 1 do
        Array.unsafe_set ids i (lookup t codes (Array.unsafe_get pos i * t.nk) ~insert)
      done
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

(* A key component, chosen once per execution from a key column pair's
   representations: a join's probe (left) and build (right) columns, or
   a group-key column paired with itself. Raw values serve as codes
   only when both sides are the same int-backed variant: Int-vs-Date
   never compares equal, and Int-vs-Float compares numerically, so
   mixed pairs take the boxed dictionary and [Value] semantics. Either
   way two values get the same code iff they are [Value.equal]. *)
type key =
  | Raw_key of int array * int array  (* probe (left), build (right) *)
  | Str_key of string array * string array * int Sdict.t
  | Boxed_key of Col.t * Col.t * int Vdict.t

let key_of (lc : Col.t) (rc : Col.t) ~build_rows =
  match lc.Col.data, rc.Col.data with
  | Col.Ints la, Col.Ints ra | Col.Dates la, Col.Dates ra -> Raw_key (la, ra)
  | Col.Strs la, Col.Strs ra -> Str_key (la, ra, Sdict.create (max 16 build_rows))
  | _ -> Boxed_key (lc, rc, Vdict.create (max 16 build_rows))

(* Key component [k]'s codes of the rows [phys.(0)], ...,
   [phys.(m - 1)], into [codes] (row [j]'s at [j * nk + k]). The build
   side assigns dictionary codes; a probe value the build side never
   saw codes as -1, which is no dictionary code. A NULL row gets junk,
   which the caller skips. *)
let encode key ~build (phys : int array) m (codes : int array) ~nk ~k =
  match key with
  | Raw_key (l, r) ->
    let a = if build then r else l in
    for j = 0 to m - 1 do
      Array.unsafe_set codes ((j * nk) + k) (Array.unsafe_get a (Array.unsafe_get phys j))
    done
  | Str_key (_, r, d) when build ->
    (* build keys repeat (group keys most): remember the last string's
       code *)
    let last = ref "" and code = ref (-1) in
    for j = 0 to m - 1 do
      let x = Array.unsafe_get r (Array.unsafe_get phys j) in
      if !code < 0 || not (x == !last || String.equal x !last) then begin
        last := x;
        code := Sdict.code d x
      end;
      Array.unsafe_set codes ((j * nk) + k) !code
    done
  | Str_key (l, _, d) ->
    for j = 0 to m - 1 do
      Array.unsafe_set codes ((j * nk) + k)
        (match Sdict.find_opt d (Array.unsafe_get l (Array.unsafe_get phys j)) with
        | Some c -> c
        | None -> -1)
    done
  | Boxed_key (_, r, d) when build ->
    for j = 0 to m - 1 do
      Array.unsafe_set codes ((j * nk) + k) (Vdict.code d (Col.get r (Array.unsafe_get phys j)))
    done
  | Boxed_key (l, _, d) ->
    for j = 0 to m - 1 do
      Array.unsafe_set codes ((j * nk) + k)
        (match Vdict.find_opt d (Col.get l (Array.unsafe_get phys j)) with
        | Some c -> c
        | None -> -1)
    done

(* The columns of [cols] that may hold a NULL: a typed column with a
   bitmap, or a boxed one. *)
let nullable (cols : Col.t array) =
  Array.of_list
    (List.filter
       (fun c -> Col.has_nulls c || match c.Col.data with Col.Values _ -> true | _ -> false)
       (Array.to_list cols))

let rec any_null (cols : Col.t array) i k =
  k < Array.length cols && (Col.is_null cols.(k) i || any_null cols i (k + 1))

let resolved ixs = Array.for_all (fun ix -> ix >= 0) ixs

(* The lowest value of [a] at the logical rows [0 .. n - 1] under [sel]
   and the width of its range ([Keytab.width]), skipping the rows where
   a column of [nulls] is NULL. *)
let int_range (a : int array) sel n nulls =
  let lo = ref max_int and hi = ref min_int in
  for j = 0 to n - 1 do
    let i = at sel j in
    if not (any_null nulls i 0) then begin
      let x = Array.unsafe_get a i in
      if x < !lo then lo := x;
      if x > !hi then hi := x
    end
  done;
  (!lo, Keytab.width !lo !hi)

(* The key table for [keys] over the logical rows [0 .. n - 1] under
   [sel], skipping the rows where a column of [drop] is NULL: direct
   when every component is a [Raw_key] and the ranges of its build
   values fit ([Keytab.direct]), else hashed with room for [hint] ids. *)
let key_table keys ~drop ~sel ~n ~hint =
  let raws = all_of (function Raw_key (_, r) -> Some r | _ -> None) (Array.to_list keys) in
  match
    Option.bind raws (fun rs ->
        Keytab.direct ~rows:n (Array.map (fun r -> int_range r sel n drop) rs))
  with
  | Some t -> t
  | None -> Keytab.hashed ~nk:(Array.length keys) hint

(* The one key loop of hash joins and groupings, over the logical rows
   [0 .. n - 1] under [sel], a batch at a time: fill the batch's
   physical rows into [phys], encode each component of [keys] into flat
   codes ([build]: from the build columns, assigning dictionary codes),
   keep the batch positions whose row has no NULL in a column of [drop]
   (every position when [drop] is empty), look those up in [tab]
   (inserting when [build]; with no table every id stays 0), and call
   [f b phys live l ids]: the batch starts at logical row [b], and its
   live position [live.(t)], [t < l], is physical row
   [phys.(live.(t))] with id [ids.(t)]. *)
let key_loop keys ~build ~drop tab ~sel ~n f =
  let nk = Array.length keys in
  let size = max 1 (min (batch_rows / max 1 nk) n) in
  let phys = Array.make size 0 and ids = Array.make size 0 in
  let live = if Array.length drop = 0 then all_positions else Array.make size 0 in
  let codes = Array.make (size * nk) 0 in
  let b = ref 0 in
  while !b < n do
    let m = min size (n - !b) in
    (match sel with
    | Some s -> Array.blit s !b phys 0 m
    | None ->
      for j = 0 to m - 1 do
        Array.unsafe_set phys j (!b + j)
      done);
    Array.iteri (fun k key -> encode key ~build phys m codes ~nk ~k) keys;
    let l =
      if Array.length drop = 0 then m
      else begin
        let l = ref 0 in
        for j = 0 to m - 1 do
          if not (any_null drop (Array.unsafe_get phys j) 0) then begin
            Array.unsafe_set live !l j;
            incr l
          end
        done;
        !l
      end
    in
    Option.iter (fun t -> Keytab.lookup_batch t codes live l ids ~insert:build) tab;
    f !b phys live l ids;
    b := !b + m
  done

(* Build on the right, probe from the left, through one key table and
   the key loop. The build side chains its logical positions per key
   id, newest first, so each probe row emits its matches in the build
   side's reverse-insertion order, as the contract requires. Rows with
   a NULL key component never join, and an unresolvable key reads NULL
   on every row. *)
let hash_join_pairs ~(lixs : int array) ~(rixs : int array) lch rch emit =
  let n = rch.card in
  if n > 0 && lch.card > 0 && resolved lixs && resolved rixs then begin
    let lcols = Array.map (fun ix -> lch.cols.(ix)) lixs
    and rcols = Array.map (fun ix -> rch.cols.(ix)) rixs in
    let keys = Array.mapi (fun k l -> key_of l rcols.(k) ~build_rows:n) lcols in
    let rnulls = nullable rcols in
    let tab = key_table keys ~drop:rnulls ~sel:rch.sel ~n ~hint:n in
    (* [head.(id)]: the newest build position with key [id];
       [next.(j)]: the next older one after position [j]; -1 ends *)
    let head = Array.make n (-1) and next = Array.make n (-1) in
    key_loop keys ~build:true ~drop:rnulls (Some tab) ~sel:rch.sel ~n (fun b _ live l ids ->
        for t = 0 to l - 1 do
          let id = Array.unsafe_get ids t and pos = b + Array.unsafe_get live t in
          next.(pos) <- head.(id);
          head.(id) <- pos
        done);
    key_loop keys ~build:false ~drop:(nullable lcols) (Some tab) ~sel:lch.sel ~n:lch.card
      (fun _ phys live l ids ->
        for t = 0 to l - 1 do
          let id = Array.unsafe_get ids t in
          if id >= 0 then begin
            let lp = Array.unsafe_get phys (Array.unsafe_get live t) and r = ref head.(id) in
            while !r >= 0 do
              emit lp (at rch.sel !r);
              r := next.(!r)
            done
          end
        done)
  end

(* [cell_compare a b i j] orders row [i] of [a] against row [j] of [b]
   as [Value.compare] orders their values, NULL first: through the
   typed arrays when both columns have the same typed variant, else
   boxed. Merge join and sort compare key cells through these. *)
let cell_compare (a : Col.t) (b : Col.t) : int -> int -> int =
  let na = a.Col.nulls and nb = b.Col.nulls in
  let typed cmp =
    if Bytes.length na = 0 && Bytes.length nb = 0 then cmp
    else fun i j ->
      let ni = null_at na i and nj = null_at nb j in
      if ni || nj then Bool.compare nj ni else cmp i j
  in
  match a.Col.data, b.Col.data with
  | Col.Ints x, Col.Ints y | Col.Dates x, Col.Dates y ->
    typed (fun i j -> Int.compare (Array.unsafe_get x i) (Array.unsafe_get y j))
  | Col.Floats x, Col.Floats y ->
    typed (fun i j -> Float.compare (Array.unsafe_get x i) (Array.unsafe_get y j))
  | Col.Strs x, Col.Strs y ->
    typed (fun i j -> String.compare (Array.unsafe_get x i) (Array.unsafe_get y j))
  | _ -> fun i j -> Value.compare (Col.get a i) (Col.get b j)

let rec compare_keys (cmps : (int -> int -> int) array) i j k =
  if k = Array.length cmps then 0
  else
    let c = (Array.unsafe_get cmps k) i j in
    if c <> 0 then c else compare_keys cmps i j (k + 1)

(* Inputs arrive sorted ascending on their key columns; same run logic
   and emit order as the row engines' merge kernels. An unresolvable
   key reads NULL on every row, so nothing joins. *)
let merge_join_pairs ~(lixs : int array) ~(rixs : int array) lch rch emit =
  if resolved lixs && resolved rixs then begin
    let lcols = Array.map (fun ix -> lch.cols.(ix)) lixs
    and rcols = Array.map (fun ix -> rch.cols.(ix)) rixs in
    let lr = Array.map2 cell_compare lcols rcols
    and ll = Array.map (fun c -> cell_compare c c) lcols
    and lnulls = nullable lcols in
    let nl = lch.card and nr = rch.card in
    let i = ref 0 and j = ref 0 in
    while !i < nl && !j < nr do
      let lp = at lch.sel !i in
      if any_null lnulls lp 0 then incr i
      else begin
        let c = compare_keys lr lp (at rch.sel !j) 0 in
        if c < 0 then incr i
        else if c > 0 then incr j
        else begin
          (* find the run of equal right keys *)
          let j2 = ref !j in
          while !j2 < nr && compare_keys lr lp (at rch.sel !j2) 0 = 0 do
            incr j2
          done;
          (* emit pairs for every left row sharing this key *)
          let i2 = ref !i in
          while !i2 < nl && compare_keys ll (at lch.sel !i2) lp 0 = 0 do
            let lp2 = at lch.sel !i2 in
            for jj = !j to !j2 - 1 do
              emit lp2 (at rch.sel jj)
            done;
            incr i2
          done;
          i := !i2;
          j := !j2
        end
      end
    done
  end

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
    | None -> boxed_agg a.fn (boxed (chunk_col ch))

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
   of group [g]'s first row, whose key is the group's output key. *)
type groups = {
  ngroups : int;
  firsts : int array;
  key : int -> int -> Value.t;  (* [key k g]: key component [k] of group [g] *)
  agg : int -> int -> Value.t;  (* [agg a g]: aggregate [a] of group [g], finished *)
}

(* Each key column is a [key] paired with itself and runs through the
   key loop as a join's build side does, dropping no row. A column that
   holds a NULL is a [Boxed_key], whose dictionary groups NULL with
   NULL by [Value.equal], as [Interp]'s row keys do. An unresolvable
   key reads NULL on every row, so it splits no group: it is left out
   of the code tuple. A global aggregate runs the loop without a table:
   every row is group 0. *)
let group_rows ~(kcols : Col.t option array) ~(aggs : aggregator array) ~n ~ksel ~asel =
  let nk = Array.length kcols in
  let key c =
    if Col.has_nulls c then Boxed_key (c, c, Vdict.create 64) else key_of c c ~build_rows:64
  in
  let keys = Array.of_list (List.filter_map (Option.map key) (Array.to_list kcols)) in
  let tab = if nk = 0 then None else Some (key_table keys ~drop:[||] ~sel:ksel ~n ~hint:64) in
  (* a global aggregate is one group, even over an empty input *)
  let ngroups () = match tab with Some t -> Keytab.length t | None -> 1 in
  if nk = 0 then Array.iter (fun a -> a.grow 1) aggs;
  let firsts = Ivec.create () and phys = Array.make (max 1 (min batch_rows n)) 0 in
  key_loop keys ~build:true ~drop:[||] tab ~sel:ksel ~n (fun b _ _ m gids ->
      for j = 0 to m - 1 do
        Array.unsafe_set phys j (at asel (b + j));
        if Array.unsafe_get gids j = Ivec.length firsts then Ivec.push firsts (b + j)
      done;
      Array.iter
        (fun a ->
          a.grow (ngroups ());
          a.fold gids phys m)
        aggs);
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
  (* an unresolvable key reads NULL on every row: it never orders *)
  let keys =
    List.filter_map
      (fun (ix, desc) ->
        if ix < 0 then None
        else
          let c = ch.cols.(ix) in
          Some (cell_compare c c, desc))
      kix
  in
  let cmp i1 i2 =
    let rec go = function
      | [] -> 0
      | (f, desc) :: rest ->
        let c = f i1 i2 in
        if c <> 0 then if desc then -c else c else go rest
    in
    go keys
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
        let bind = bind_pred (Storage.Relation.resolver schema) pred in
        fun ch ->
          (* every column reads through [phys], the batch's physical
             rows; survivors are appended to the output selvec, which
             is allocated at the first rejected row: a filter every row
             passes returns its input *)
          let size = min ch.card batch_rows in
          let phys = Array.make size 0 in
          let rows = Array.make (Array.length ch.cols) phys in
          let refine = bind { vcols = ch.cols; rows; size } in
          let keep = Array.make size 0 in
          let out = ref [||] and n = ref 0 and b = ref 0 in
          while !b < ch.card do
            let m = min batch_rows (ch.card - !b) in
            (match ch.sel with
            | Some s -> Array.blit s !b phys 0 m
            | None ->
              for j = 0 to m - 1 do
                Array.unsafe_set phys j (!b + j)
              done);
            let kept = refine all_positions m keep in
            if !n = !b && kept = m then n := !n + m
            else begin
              if !n = !b then begin
                (* the first rejection: the rows before this batch passed *)
                out := Array.make ch.card 0;
                for j = 0 to !b - 1 do
                  Array.unsafe_set !out j (at ch.sel j)
                done
              end;
              for t = 0 to kept - 1 do
                Array.unsafe_set !out !n (Array.unsafe_get phys (Array.unsafe_get keep t));
                incr n
              done
            end;
            b := !b + m
          done;
          if !n = ch.card then ch else { ch with card = !n; sel = Some (Array.sub !out 0 !n) });
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
                  let g = bind (chunk_col ch) in
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
