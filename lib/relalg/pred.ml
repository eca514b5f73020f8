(* Predicates: boolean combinations of comparison / LIKE / IN atoms over
   scalar expressions. Used both for query WHERE clauses and for the
   `where` clause of policy expressions. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type atom =
  | Cmp of cmp * Expr.scalar * Expr.scalar
  | Like of Expr.scalar * string  (* SQL LIKE with % and _ wildcards *)
  | In of Expr.scalar * Value.t list
  | Is_null of Expr.scalar
  | Not_null of Expr.scalar

type t =
  | True
  | False
  | Atom of atom
  | And of t * t
  | Or of t * t
  | Not of t

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let flip_cmp = function Eq -> Eq | Ne -> Ne | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

let atom_cols = function
  | Cmp (_, l, r) -> Attr.Set.union (Expr.cols l) (Expr.cols r)
  | Like (e, _) | In (e, _) | Is_null e | Not_null e -> Expr.cols e

let rec cols = function
  | True | False -> Attr.Set.empty
  | Atom a -> atom_cols a
  | And (l, r) | Or (l, r) -> Attr.Set.union (cols l) (cols r)
  | Not p -> cols p

let conj a b =
  match a, b with
  | True, p | p, True -> p
  | False, _ | _, False -> False
  | _ -> And (a, b)

let disj a b =
  match a, b with
  | False, p | p, False -> p
  | True, _ | _, True -> True
  | _ -> Or (a, b)

let conj_all = List.fold_left conj True

(* Split a predicate into its top-level conjuncts. *)
let rec conjuncts = function
  | True -> []
  | And (l, r) -> conjuncts l @ conjuncts r
  | p -> [ p ]

let map_atom_exprs f = function
  | Cmp (c, l, r) -> Cmp (c, f l, f r)
  | Like (e, pat) -> Like (f e, pat)
  | In (e, vs) -> In (f e, vs)
  | Is_null e -> Is_null (f e)
  | Not_null e -> Not_null (f e)

let rec map_exprs f = function
  | True -> True
  | False -> False
  | Atom a -> Atom (map_atom_exprs f a)
  | And (l, r) -> And (map_exprs f l, map_exprs f r)
  | Or (l, r) -> Or (map_exprs f l, map_exprs f r)
  | Not p -> Not (map_exprs f p)

let map_cols f p = map_exprs (Expr.map_cols f) p
let subst env p = map_exprs (Expr.subst env) p

(* SQL LIKE matching: '%' matches any sequence, '_' any single char.
   Two pointers over the pattern and the string; on a mismatch the
   last '%' seen ([star], -1 = none) absorbs one more character of the
   string (its match currently ends at [mark]) and matching resumes
   just after it. Backtracking only to the last '%' suffices: any match
   an earlier '%' could extend, the later one extends too. Top-level
   functions over plain ints, so a call allocates nothing. *)
let rec like_tail pattern np pi =
  pi = np || (String.unsafe_get pattern pi = '%' && like_tail pattern np (pi + 1))

let rec like_go pattern np s ns pi si star mark =
  if si = ns then like_tail pattern np pi
  else if pi < np && String.unsafe_get pattern pi = '%' then
    like_go pattern np s ns (pi + 1) si pi si
  else if
    pi < np
    && (String.unsafe_get pattern pi = '_'
       || String.unsafe_get pattern pi = String.unsafe_get s si)
  then like_go pattern np s ns (pi + 1) (si + 1) star mark
  else if star >= 0 then like_go pattern np s ns (star + 1) (mark + 1) star (mark + 1)
  else false

let like_match ~pattern s =
  like_go pattern (String.length pattern) s (String.length s) 0 0 (-1) 0

let eval_cmp c v1 v2 =
  match v1, v2 with
  | Value.Null, _ | _, Value.Null -> false
  | _ ->
    let k = Value.compare v1 v2 in
    (match c with
    | Eq -> k = 0
    | Ne -> k <> 0
    | Lt -> k < 0
    | Le -> k <= 0
    | Gt -> k > 0
    | Ge -> k >= 0)

let eval_atom lookup = function
  | Cmp (c, l, r) -> eval_cmp c (Expr.eval lookup l) (Expr.eval lookup r)
  | Like (e, pat) -> (
    match Expr.eval lookup e with
    | Value.Str s -> like_match ~pattern:pat s
    | _ -> false)
  | In (e, vs) ->
    let v = Expr.eval lookup e in
    (not (Value.is_null v)) && List.exists (Value.equal v) vs
  | Is_null e -> Value.is_null (Expr.eval lookup e)
  | Not_null e -> not (Value.is_null (Expr.eval lookup e))

let rec eval lookup = function
  | True -> true
  | False -> false
  | Atom a -> eval_atom lookup a
  | And (l, r) -> eval lookup l && eval lookup r
  | Or (l, r) -> eval lookup l || eval lookup r
  | Not p -> not (eval lookup p)

let pp_atom ppf = function
  | Cmp (c, l, r) -> Fmt.pf ppf "%a %s %a" Expr.pp_scalar l (cmp_to_string c) Expr.pp_scalar r
  | Like (e, pat) -> Fmt.pf ppf "%a LIKE '%s'" Expr.pp_scalar e pat
  | In (e, vs) -> Fmt.pf ppf "%a IN (%a)" Expr.pp_scalar e Fmt.(list ~sep:comma Value.pp) vs
  | Is_null e -> Fmt.pf ppf "%a IS NULL" Expr.pp_scalar e
  | Not_null e -> Fmt.pf ppf "%a IS NOT NULL" Expr.pp_scalar e

let rec pp ppf = function
  | True -> Fmt.string ppf "TRUE"
  | False -> Fmt.string ppf "FALSE"
  | Atom a -> pp_atom ppf a
  | And (l, r) -> Fmt.pf ppf "(%a AND %a)" pp l pp r
  | Or (l, r) -> Fmt.pf ppf "(%a OR %a)" pp l pp r
  | Not p -> Fmt.pf ppf "NOT (%a)" pp p

let to_string p = Fmt.str "%a" pp p

let rec compare_pred a b =
  if a == b then 0 (* hash-consed subterms short-circuit *)
  else
    Stdlib.compare (rank a) (rank b) |> fun c ->
    if c <> 0 then c
    else
      match a, b with
      | True, True | False, False -> 0
      | Atom x, Atom y -> compare_atom x y
      | And (l1, r1), And (l2, r2) | Or (l1, r1), Or (l2, r2) ->
        let c = compare_pred l1 l2 in
        if c <> 0 then c else compare_pred r1 r2
      | Not p, Not q -> compare_pred p q
      | _ -> 0

and rank = function True -> 0 | False -> 1 | Atom _ -> 2 | And _ -> 3 | Or _ -> 4 | Not _ -> 5

and compare_atom x y =
  match x, y with
  | Cmp (c1, l1, r1), Cmp (c2, l2, r2) ->
    let c = Stdlib.compare c1 c2 in
    if c <> 0 then c
    else
      let c = Expr.compare_scalar l1 l2 in
      if c <> 0 then c else Expr.compare_scalar r1 r2
  | Like (e1, p1), Like (e2, p2) ->
    let c = Expr.compare_scalar e1 e2 in
    if c <> 0 then c else String.compare p1 p2
  | In (e1, v1), In (e2, v2) ->
    let c = Expr.compare_scalar e1 e2 in
    if c <> 0 then c else List.compare Value.compare v1 v2
  | Is_null e1, Is_null e2 | Not_null e1, Not_null e2 -> Expr.compare_scalar e1 e2
  | Cmp _, _ -> -1
  | _, Cmp _ -> 1
  | Like _, _ -> -1
  | _, Like _ -> 1
  | In _, _ -> -1
  | _, In _ -> 1
  | Is_null _, _ -> -1
  | _, Is_null _ -> 1

let equal a b = a == b || compare_pred a b = 0

(* -- Hash-consing -------------------------------------------------

   [compare_pred] treats [Int n] and [Float n.] as equal (numeric
   comparison in [Value.compare]), so the hash must too: [Value.hash]
   hashes integer-valued floats like the integer. Everything else in a
   predicate is strings and constant constructors, where the
   polymorphic hash agrees with the structural compare. *)

let hash_combine h1 h2 = (h1 * 0x01000193) lxor h2

let rec hash_scalar = function
  | Expr.Col a -> hash_combine 3 (Hashtbl.hash a)
  | Expr.Const v -> hash_combine 5 (Value.hash v)
  | Expr.Binop (op, l, r) ->
    hash_combine (hash_combine (hash_combine 7 (Hashtbl.hash op)) (hash_scalar l))
      (hash_scalar r)

let hash_atom = function
  | Cmp (c, l, r) ->
    hash_combine (hash_combine (hash_combine 11 (Hashtbl.hash c)) (hash_scalar l))
      (hash_scalar r)
  | Like (e, pat) -> hash_combine (hash_combine 13 (hash_scalar e)) (Hashtbl.hash pat)
  | In (e, vs) ->
    List.fold_left
      (fun acc v -> hash_combine acc (Value.hash v))
      (hash_combine 17 (hash_scalar e))
      vs
  | Is_null e -> hash_combine 19 (hash_scalar e)
  | Not_null e -> hash_combine 23 (hash_scalar e)

let rec hash = function
  | True -> 1
  | False -> 2
  | Atom a -> hash_combine 29 (hash_atom a)
  | And (l, r) -> hash_combine (hash_combine 31 (hash l)) (hash r)
  | Or (l, r) -> hash_combine (hash_combine 37 (hash l)) (hash r)
  | Not p -> hash_combine 41 (hash p)

module Hc = Intern.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Bottom-up interning: children are canonicalized first, so shared
   subterms become physically equal and [compare_pred] on two
   hash-consed predicates short-circuits at the first shared node. *)
let rec hc p : Hc.node =
  match p with
  | True | False | Atom _ -> Hc.intern p
  | And (l, r) ->
    let l' = (hc l).node and r' = (hc r).node in
    Hc.intern (if l' == l && r' == r then p else And (l', r'))
  | Or (l, r) ->
    let l' = (hc l).node and r' = (hc r).node in
    Hc.intern (if l' == l && r' == r then p else Or (l', r'))
  | Not q ->
    let q' = (hc q).node in
    Hc.intern (if q' == q then p else Not q')

let hashcons p = (hc p).node

(* Canonical node plus unique id, the key shape used by verdict
   caches: two predicates imply the same cache slot iff they are
   structurally equal. *)
let intern p =
  let n = hc p in
  (n.node, n.id)

let intern_stats () = (Hc.hits (), Hc.misses (), Hc.size ())
