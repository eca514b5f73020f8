(* Vectorized executor for physical plans.

   The production engine. Where the reference interpreter ([Interp])
   walks the plan over one boxed [Value.t array] row at a time, this
   engine runs over the column-major representation ([Storage.Column])
   directly, in 1024-row batches:

   - a node's output is a {i chunk}: the input columns plus an optional
     selection vector, so filters refine a selvec per batch without
     materializing anything;
   - predicates bind to the concrete column representation per chunk —
     a comparison against a constant over an [int array]/[float array]/
     [string array] column becomes a primitive compare loop with the
     null bitmap checked only when the column has nulls;
   - hash joins build and probe over column slices (an int-keyed table
     when both key columns are int-backed), collect matching row-index
     pairs, and materialize the output once with [Column.gather]; a
     join residual tests candidate pairs a batch at a time with the
     same column binders filters use;
   - aggregation binds its getters to the columns once and runs fused
     accumulator loops batch by batch;
   - sort produces a permutation selvec over the input columns instead
     of moving rows.

   Aggregate accumulators, row keys, the memory budget and the SHIP path
   come from the shared [Runtime], and the engine follows the
   child-iteration contract documented in runtime.mli (right child first for binary operators,
   unions left-to-right, rows in relation order, probe matches in
   reverse build-insertion order). Results, SHIP accounting, profiles
   and makespans are byte-identical to the reference interpreter —
   enforced by the differential properties in test/test_exec.ml. *)

open Relalg
open Runtime
module Col = Storage.Column

(* Rows per batch in filter, aggregation and join-residual loops. *)
let batch_rows = 1024

type ctx = {
  stats : stats;
  profile : node_profile list ref;
  faults : Catalog.Network.Fault.schedule;
  retry : retry_policy;
  network : Catalog.Network.t;
  mem : mem;  (* this execution's byte account *)
  spill : Spill.t;
}

(* A batch-at-rest: columns plus an optional selection vector mapping
   logical position -> physical row index. [card] is the logical row
   count (= length of [sel] when present). *)
type chunk = { cols : Col.t array; card : int; sel : int array option }

(* [exec] returns the chunk, the bytes charged against the memory
   budget for it (released by the parent once consumed), and the
   subtree's simulated finish time. *)
type cnode = { cschema : Attr.t list; exec : ctx -> chunk * int * float }
type t = cnode

let schema t = t.cschema

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
let fixed_width (c : Col.t) =
  match c.Col.data with
  | Col.Ints _ | Col.Floats _ -> 8
  | Col.Dates _ -> 4
  | Col.Bools _ -> 1
  | Col.Strs _ | Col.Values _ -> 0

let col_sel_bytes (c : Col.t) (sel : int array) =
  let w = fixed_width c in
  if w > 0 && not (Col.has_nulls c) then w * Array.length sel
  else
    Array.fold_left (fun acc i -> acc + Value.byte_width (Col.get c i)) 0 sel

let chunk_bytes ch =
  match ch.sel with
  | None -> Array.fold_left (fun acc c -> acc + Col.byte_size c) 0 ch.cols
  | Some sel -> Array.fold_left (fun acc c -> acc + col_sel_bytes c sel) 0 ch.cols

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

(* Growable row-index pair accumulator. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let na = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 na 0 v.n;
      v.a <- na
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

(* Key of row [i] into [buf] from key columns; false if any component
   is NULL (such rows never join), as in [Interp]'s hash join. *)
let fill_key_cols (cols : Col.t array) (ixs : int array) i (buf : Value.t array) =
  let ok = ref true in
  for k = 0 to Array.length ixs - 1 do
    let ix = Array.unsafe_get ixs k in
    let v = if ix >= 0 then Col.get cols.(ix) i else Value.Null in
    if Value.is_null v then ok := false;
    buf.(k) <- v
  done;
  !ok

(* Spill-side row view of a chunk: one synthetic row per logical
   position carrying the boxed key components plus the physical row
   index as a trailing [Int]. The spill kernels only ever look at the
   key (via the closures below); [emit] recovers the physical indices
   and the join output is gathered exactly like the in-memory path, so
   spilling cannot change the output's column representation. *)
let key_rows ch (ixs : int array) : Value.t array array =
  let nk = Array.length ixs in
  let phys =
    match ch.sel with
    | Some sel -> fun j -> Array.unsafe_get sel j
    | None -> fun j -> j
  in
  Array.init ch.card (fun j ->
      let i = phys j in
      let row = Array.make (nk + 1) Value.Null in
      for k = 0 to nk - 1 do
        let ix = Array.unsafe_get ixs k in
        row.(k) <- (if ix >= 0 then Col.get ch.cols.(ix) i else Value.Null)
      done;
      row.(nk) <- Value.Int i;
      row)

(* Key extractors over [key_rows] rows; the join variant drops NULL
   keys, matching the in-memory build/probe. *)
let srow_key nk (row : Value.t array) = Array.sub row 0 nk

let srow_join_key nk (row : Value.t array) =
  let k = Array.sub row 0 nk in
  if Array.exists Value.is_null k then None else Some k

let srow_phys (row : Value.t array) =
  match row.(Array.length row - 1) with
  | Value.Int i -> i
  | _ -> assert false

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

(* Build on the right, probe from the left over column slices. Matches
   are emitted per probe row in the build side's reverse-insertion
   order ([Hashtbl.find_all]), as the contract requires. *)
let hash_join_pairs ~(lixs : int array) ~(rixs : int array) lch rch emit =
  let int_backed =
    (* single-key fast path only when both columns are the same
       int-backed variant: Int-vs-Date never compares equal, and
       Int-vs-Float compares numerically, so mixed variants must go
       through [Value] semantics *)
    if Array.length lixs = 1 && lixs.(0) >= 0 && rixs.(0) >= 0 then
      match lch.cols.(lixs.(0)).Col.data, rch.cols.(rixs.(0)).Col.data with
      | Col.Ints la, Col.Ints ra | Col.Dates la, Col.Dates ra -> Some (la, ra)
      | _ -> None
    else None
  in
  match int_backed with
  | Some (la, ra) ->
    let lc = lch.cols.(lixs.(0)) and rc = rch.cols.(rixs.(0)) in
    let tbl : (int, int) Hashtbl.t = Hashtbl.create (max 16 rch.card) in
    iter_logical rch (fun rp ->
        if not (Col.is_null rc rp) then
          Hashtbl.add tbl (Array.unsafe_get ra rp) rp);
    iter_logical lch (fun lp ->
        if not (Col.is_null lc lp) then
          List.iter (fun rp -> emit lp rp)
            (Hashtbl.find_all tbl (Array.unsafe_get la lp)))
  | None ->
    let nk = Array.length rixs in
    let tbl : int Row_tbl.t = Row_tbl.create (max 16 rch.card) in
    let kbuf = Array.make nk Value.Null in
    iter_logical rch (fun rp ->
        if fill_key_cols rch.cols rixs rp kbuf then
          Row_tbl.add tbl (Array.copy kbuf) rp);
    iter_logical lch (fun lp ->
        if fill_key_cols lch.cols lixs lp kbuf then
          List.iter (fun rp -> emit lp rp) (Row_tbl.find_all tbl kbuf))

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

(* --- aggregation: fused accumulators per batch --- *)

(* One output row per (key, accumulators) group, in list order: the key
   columns, then the finished aggregates. Both the in-memory kernel and
   the spill path materialize through here. *)
let groups_chunk ~nk ~(agg_fns : Expr.agg_fn array) (groups : (Value.t array * acc array) list) =
  let groups = Array.of_list groups in
  let cols =
    Array.init (nk + Array.length agg_fns) (fun c ->
        Col.of_values
          (Array.map
             (fun (k, accs) -> if c < nk then k.(c) else finish agg_fns.(c - nk) accs.(c - nk))
             groups))
  in
  { cols; card = Array.length groups; sel = None }

let hash_agg_chunk ~(kixs : int array) ~(agg_fns : Expr.agg_fn array)
    ~(agg_binds : (chunk -> getter) array) ch =
  let nk = Array.length kixs and na = Array.length agg_fns in
  let groups : acc array Row_tbl.t = Row_tbl.create 64 in
  (* groups in reverse first-seen order *)
  let order = ref [] in
  let kbuf = Array.make nk Value.Null in
  (* getters bound to the columns once; the batch loops below touch
     only unboxed indices and the bound closures *)
  let gets = Array.map (fun b -> b ch) agg_binds in
  let accumulate i =
    (* NULLs are legal in group keys (unlike join keys) *)
    for k = 0 to nk - 1 do
      let ix = Array.unsafe_get kixs k in
      kbuf.(k) <- (if ix >= 0 then Col.get ch.cols.(ix) i else Value.Null)
    done;
    let accs =
      match Row_tbl.find_opt groups kbuf with
      | Some accs -> accs
      | None ->
        let k = Array.copy kbuf in
        let accs = Array.init na (fun _ -> fresh_acc ()) in
        Row_tbl.add groups k accs;
        order := (k, accs) :: !order;
        accs
    in
    for a = 0 to na - 1 do
      feed accs.(a) ((Array.unsafe_get gets a) i)
    done
  in
  let phys =
    match ch.sel with
    | Some sel -> fun j -> Array.unsafe_get sel j
    | None -> fun j -> j
  in
  let b = ref 0 in
  while !b < ch.card do
    let hi = min ch.card (!b + batch_rows) in
    for j = !b to hi - 1 do
      accumulate (phys j)
    done;
    b := hi
  done;
  (* a global aggregate over an empty input still yields one row *)
  if nk = 0 && !order = [] then order := [ ([||], Array.init na (fun _ -> fresh_acc ())) ];
  groups_chunk ~nk ~agg_fns (List.rev !order)

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

(* --- plan compilation --- *)

let compile ~(db : Storage.Database.t) ~(table_cols : string -> string list)
    (plan : Pplan.t) : t =
  (* [rpath] is the node's root-to-node child-index path, reversed.
     [project] is the parent's item list when the parent is a
     [Project] (a paged scan decodes only the columns it reads). *)
  let rec comp ?project (rpath : int list) (p : Pplan.t) : cnode =
    let label = Pplan.node_label p.Pplan.node and loc = p.Pplan.loc in
    (* Same bookkeeping and float arithmetic as [Interp]'s per-node
       epilogue: record the node, charge its output bytes, release the
       children's charges ([release]) now that they are consumed. *)
    let book ?bytes ctx ~release ch fin =
      let bytes = match bytes with Some b -> b | None -> chunk_bytes ch in
      record_node ~stats:ctx.stats ~profile:ctx.profile ~rpath ~label ~loc ~ship:None
        ~card:ch.card ~bytes;
      mem_charge ctx.mem bytes;
      List.iter (mem_release ctx.mem) release;
      (ch, bytes, fin +. (float_of_int ch.card *. row_cost_ms))
    in
    (* Right child first (see the child-iteration contract in
       runtime.mli). *)
    let comp2 l r =
      let cl = comp (0 :: rpath) l and cr = comp (1 :: rpath) r in
      ( cl,
        cr,
        fun ctx ->
          let rch, rb, rfin = cr.exec ctx in
          let lch, lb, lfin = cl.exec ctx in
          (lch, lb, rch, rb, Float.max lfin rfin) )
    in
    match p.Pplan.node, p.Pplan.children with
    | Pplan.Table_scan { table; alias; partition }, [] ->
      let r = Storage.Database.find_exn db ~table ~partition () in
      let cschema =
        (* re-qualify the stored schema with the query alias *)
        List.map2
          (fun (_ : Attr.t) c -> Attr.make ~rel:alias ~name:c)
          (Storage.Relation.schema r) (table_cols table)
      in
      let card = Storage.Relation.cardinality r in
      (* A paged scan under a [Project] decodes only the columns its
         items reference, resolved as [Project] resolves them; the rest
         are zero-length placeholders nothing reads. A resident
         relation ignores the mask. Either way the scan records and
         charges the whole relation's bytes ([byte_size] sums the
         segment footers of a paged one), so profiles, memory charges
         and spill decisions do not depend on the mask. *)
      let needed =
        match project with
        | Some items when Storage.Relation.is_paged r ->
          read_mask (Storage.Relation.resolver cschema) (List.length cschema)
            (List.fold_left (fun s (e, _) -> Attr.Set.union s (Expr.cols e)) Attr.Set.empty items)
        | _ -> Array.make (List.length cschema) true
      in
      {
        cschema;
        exec =
          (fun ctx ->
            check_replica ~faults:ctx.faults ~table ~partition ~site:loc;
            (* fetched per execution, not at compile time: paged
               relations re-read their segments on every access *)
            let cols = Storage.Relation.read_cols r ~needed in
            book ctx ~bytes:(Storage.Relation.byte_size r) ~release:[]
              { cols; card; sel = None } 0.);
      }
    | Pplan.Filter pred, [ c ] ->
      let cc = comp (0 :: rpath) c in
      let bp = bind_pred (Storage.Relation.resolver cc.cschema) pred in
      {
        cschema = cc.cschema;
        exec =
          (fun ctx ->
            let ch, cb, fin = cc.exec ctx in
            let sel = filter_select ch (bp ch) in
            book ctx ~release:[ cb ]
              { ch with card = Array.length sel; sel = Some sel }
              fin);
      }
    | Pplan.Project items, [ c ] ->
      let project =
        match c.Pplan.node with Pplan.Table_scan _ -> Some items | _ -> None
      in
      let cc = comp ?project (0 :: rpath) c in
      let rv = Storage.Relation.resolver cc.cschema in
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
      {
        cschema = List.map snd items;
        exec =
          (fun ctx ->
            let ch, cb, fin = cc.exec ctx in
            let cols =
              Array.map
                (function
                  | `Pass ix -> (
                    match ch.sel with
                    | None -> ch.cols.(ix)
                    | Some sel -> Col.gather ch.cols.(ix) sel)
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
            book ctx ~release:[ cb ] { cols; card = ch.card; sel = None } fin);
      }
    | Pplan.Hash_join { keys; residual }, [ l; r ] ->
      let cl, cr, exec2 = comp2 l r in
      let lrv = Storage.Relation.resolver cl.cschema
      and rrv = Storage.Relation.resolver cr.cschema in
      let lixs = key_ixs lrv (List.map fst keys)
      and rixs = key_ixs rrv (List.map snd keys) in
      let cschema = cl.cschema @ cr.cschema in
      let residual = bind_residual cschema residual in
      let nk = Array.length lixs in
      {
        cschema;
        exec =
          (fun ctx ->
            let lch, lb, rch, rb, fin = exec2 ctx in
            let out =
              (* [rb] is the build side's serialized size — the same
                 number the row engines see, so the spill decision is
                 engine-independent *)
              if should_spill ctx.mem rb then
                collect_pairs ?residual lch rch (fun emit ->
                    Spill.join ctx.spill ~build_bytes:rb
                      ~lkey:(srow_join_key nk) ~rkey:(srow_join_key nk)
                      ~emit:(fun lrow rrow -> emit (srow_phys lrow) (srow_phys rrow))
                      (key_rows lch lixs) (key_rows rch rixs))
              else begin
                mem_charge ctx.mem rb;
                let o = collect_pairs ?residual lch rch (hash_join_pairs ~lixs ~rixs lch rch) in
                mem_release ctx.mem rb;
                o
              end
            in
            book ctx ~release:[ lb; rb ] out fin);
      }
    | Pplan.Nl_join pred, [ l; r ] ->
      let cl, cr, exec2 = comp2 l r in
      let cschema = cl.cschema @ cr.cschema in
      let residual = bind_residual cschema pred in
      {
        cschema;
        exec =
          (fun ctx ->
            let lch, lb, rch, rb, fin = exec2 ctx in
            let out =
              collect_pairs ?residual lch rch (fun emit ->
                  iter_logical lch (fun lp -> iter_logical rch (fun rp -> emit lp rp)))
            in
            book ctx ~release:[ lb; rb ] out fin);
      }
    | Pplan.Hash_agg { keys; aggs }, [ c ] ->
      let cc = comp (0 :: rpath) c in
      let rv = Storage.Relation.resolver cc.cschema in
      let kixs = key_ixs rv keys in
      let agg_fns = Array.of_list (List.map (fun (a : Expr.agg) -> a.fn) aggs) in
      let agg_binds =
        Array.of_list (List.map (fun (a : Expr.agg) -> bind_scalar rv a.arg) aggs)
      in
      let cschema =
        keys @ List.map (fun (a : Expr.agg) -> Attr.unqualified a.alias) aggs
      in
      let nk = Array.length kixs and na = Array.length agg_fns in
      {
        cschema;
        exec =
          (fun ctx ->
            let ch, cb, fin = cc.exec ctx in
            let out =
              (* a global aggregate ([nk = 0]) is one group of scalar
                 accumulators — nothing worth spilling *)
              if nk > 0 && should_spill ctx.mem cb then begin
                let gets = Array.map (fun b -> b ch) agg_binds in
                let acc = ref [] in
                Spill.agg ctx.spill ~input_bytes:cb ~key:(srow_key nk) ~na
                  ~feed_row:(fun accs row ->
                    let i = srow_phys row in
                    for a = 0 to na - 1 do
                      feed accs.(a) ((Array.unsafe_get gets a) i)
                    done)
                  ~emit_group:(fun k accs -> acc := (k, accs) :: !acc)
                  (key_rows ch kixs);
                groups_chunk ~nk ~agg_fns (List.rev !acc)
              end
              else begin
                mem_charge ctx.mem cb;
                let o = hash_agg_chunk ~kixs ~agg_fns ~agg_binds ch in
                mem_release ctx.mem cb;
                o
              end
            in
            book ctx ~release:[ cb ] out fin);
      }
    | Pplan.Sort keys, [ c ] ->
      let cc = comp (0 :: rpath) c in
      let rv = Storage.Relation.resolver cc.cschema in
      let kix = List.map (fun (a, desc) -> (key_ix rv a, desc)) keys in
      {
        cschema = cc.cschema;
        exec =
          (fun ctx ->
            let ch, cb, fin = cc.exec ctx in
            book ctx ~release:[ cb ] (sort_chunk ~kix ch) fin);
      }
    | Pplan.Merge_join { keys; residual }, [ l; r ] ->
      let cl, cr, exec2 = comp2 l r in
      let lrv = Storage.Relation.resolver cl.cschema
      and rrv = Storage.Relation.resolver cr.cschema in
      let lixs = key_ixs lrv (List.map fst keys)
      and rixs = key_ixs rrv (List.map snd keys) in
      let cschema = cl.cschema @ cr.cschema in
      let residual = bind_residual cschema residual in
      {
        cschema;
        exec =
          (fun ctx ->
            let lch, lb, rch, rb, fin = exec2 ctx in
            book ctx ~release:[ lb; rb ]
              (collect_pairs ?residual lch rch (merge_join_pairs ~lixs ~rixs lch rch))
              fin);
      }
    | Pplan.Union_all, (_ :: _ as children) ->
      let ccs = List.mapi (fun i c -> comp (i :: rpath) c) children in
      let cschema = (List.hd ccs).cschema in
      let width = List.length cschema in
      {
        cschema;
        exec =
          (fun ctx ->
            (* children left-to-right, explicitly (ship-order
               determinism; see runtime.mli) *)
            let rec run_children fin acc bs = function
              | [] -> (List.rev acc, List.rev bs, fin)
              | (c : cnode) :: rest ->
                let ch, b, f = c.exec ctx in
                run_children (Float.max fin f) (ch :: acc) (b :: bs) rest
            in
            let parts, bs, fin = run_children 0. [] [] ccs in
            List.iter
              (fun ch ->
                if Array.length ch.cols <> width then
                  fail "union children of unequal width")
              parts;
            let mats = List.map materialize parts in
            let cols =
              Array.init width (fun j ->
                  Col.concat (List.map (fun m -> m.(j)) mats))
            in
            let card = List.fold_left (fun acc ch -> acc + ch.card) 0 parts in
            book ctx ~release:bs { cols; card; sel = None } fin);
      }
    | Pplan.Ship { from_loc; to_loc }, [ c ] ->
      let cc = comp (0 :: rpath) c in
      {
        cschema = cc.cschema;
        exec =
          (fun ctx ->
            let ch, cb, fin = cc.exec ctx in
            (* [cb] is [chunk_bytes ch], just computed by the child's
               [book] *)
            let bytes = cb in
            let record =
              do_ship ~faults:ctx.faults ~retry:ctx.retry ~network:ctx.network
                ~stats:ctx.stats ~from_loc ~to_loc ~bytes ~rows:ch.card
            in
            record_node ~stats:ctx.stats ~profile:ctx.profile ~rpath ~label ~loc
              ~ship:(Some record) ~card:ch.card ~bytes;
            (* memory-wise a SHIP is an alias of its child: no charge,
               no release — the child's bytes stay live for the parent *)
            (ch, cb, fin +. record.cost_ms));
      }
    | node, children ->
      fail "malformed plan: %s with %d children" (Pplan.node_label node)
        (List.length children)
  in
  comp [] plan

let execute ?(faults = Catalog.Network.Fault.empty) ?(retry = default_retry)
    ?budget ~(network : Catalog.Network.t) (t : t) : result =
  let stats = fresh_stats () in
  let profile = ref [] in
  let mem =
    mem_create
      ~budget:(match budget with Some b -> b | None -> budget_from_env ())
  in
  let spill = Spill.create mem in
  let ctx = { stats; profile; faults; retry; network; mem; spill } in
  Fun.protect
    ~finally:(fun () ->
      Spill.cleanup spill;
      mem_finish mem)
    (fun () ->
      let ch, _bytes, makespan_ms =
        Obs.Trace.span "exec.run" (fun () -> t.exec ctx)
      in
      let relation =
        Storage.Relation.of_cols ~schema:t.cschema ~card:ch.card (materialize ch)
      in
      { relation; stats; profile = List.rev !profile; makespan_ms })

let run ?faults ?retry ?budget ~network ~db ~table_cols plan =
  execute ?faults ?retry ?budget ~network (compile ~db ~table_cols plan)
