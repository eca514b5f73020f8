(* Sound-but-incomplete logical implication test [P_q => P_e], in the
   spirit of Goldstein & Larson (the paper's §5 "Discussion").

   Both predicates are converted to bounded DNF over literals;
   [P_q => P_e] holds when every disjunct of [P_q] implies some disjunct
   of [P_e], where a conjunction implies another if it implies each of
   its literals. Literal entailment combines (i) syntactic matching,
   (ii) evaluation over finitely-pinned attributes, and (iii) range
   subsumption over the engine's total value order — which makes the
   test sound with respect to [Pred.eval], including its treatment of
   NULL (atoms over NULL are false; negative literals therefore
   contribute no range information). The paper's own incompleteness
   example, [A=5 AND B=3 => A+B=8], fails here too. *)

open Relalg

type literal = Pos of Pred.atom | Neg of Pred.atom

let max_disjuncts = 128

(* Negation normal form. *)
let rec nnf (sign : bool) (p : Pred.t) : Pred.t =
  match p, sign with
  | Pred.True, true | Pred.False, false -> Pred.True
  | Pred.True, false | Pred.False, true -> Pred.False
  | Pred.Atom a, true -> Pred.Atom a
  | Pred.Atom a, false -> Pred.Not (Pred.Atom a)
  | Pred.And (l, r), true -> Pred.And (nnf true l, nnf true r)
  | Pred.And (l, r), false -> Pred.Or (nnf false l, nnf false r)
  | Pred.Or (l, r), true -> Pred.Or (nnf true l, nnf true r)
  | Pred.Or (l, r), false -> Pred.And (nnf false l, nnf false r)
  | Pred.Not q, _ -> nnf (not sign) q

exception Too_large

(* DNF as a list of conjunctions of literals. [[]] is True, [] is
   False. *)
let dnf (p : Pred.t) : literal list list option =
  let rec go p =
    match p with
    | Pred.True -> [ [] ]
    | Pred.False -> []
    | Pred.Atom a -> [ [ Pos a ] ]
    | Pred.Not (Pred.Atom a) -> [ [ Neg a ] ]
    | Pred.Not _ -> assert false (* eliminated by nnf *)
    | Pred.Or (l, r) ->
      let d = go l @ go r in
      if List.length d > max_disjuncts then raise Too_large else d
    | Pred.And (l, r) ->
      let dl = go l and dr = go r in
      if List.length dl * List.length dr > max_disjuncts then raise Too_large
      else List.concat_map (fun cl -> List.map (fun cr -> cl @ cr) dr) dl
  in
  try Some (go (nnf true p)) with Too_large -> None

let literal_equal l1 l2 =
  match l1, l2 with
  | Pos a, Pos b | Neg a, Neg b -> Pred.compare_atom a b = 0
  | Pos _, Neg _ | Neg _, Pos _ -> false

(* Normalize a comparison atom to [attr cmp const] when possible. *)
let as_attr_const = function
  | Pred.Cmp (c, Expr.Col a, Expr.Const v) -> Some (a, c, v)
  | Pred.Cmp (c, Expr.Const v, Expr.Col a) -> Some (a, Pred.flip_cmp c, v)
  | Pred.Cmp _ | Pred.Like _ | Pred.In _ | Pred.Is_null _ | Pred.Not_null _ -> None

let single_attr_of_atom atom =
  match Pred.atom_cols atom with
  | s when Attr.Set.cardinal s = 1 -> Some (Attr.Set.choose s)
  | _ -> None

(* --- information about one attribute extracted from a conjunction --- *)

type bound = (Value.t * bool) option  (* value, inclusive *)

type info = {
  lo : bound;
  hi : bound;
  candidates : Value.t list option;  (* finite domain, when pinned *)
  has_positive : bool;  (* some positive literal constrains the attr *)
}

let no_info = { lo = None; hi = None; candidates = None; has_positive = false }

let tighten_lo lo v inclusive =
  match lo with
  | None -> Some (v, inclusive)
  | Some (u, ui) ->
    let c = Value.compare v u in
    if c > 0 then Some (v, inclusive)
    else if c < 0 then lo
    else Some (u, ui && inclusive)

let tighten_hi hi v inclusive =
  match hi with
  | None -> Some (v, inclusive)
  | Some (u, ui) ->
    let c = Value.compare v u in
    if c < 0 then Some (v, inclusive)
    else if c > 0 then hi
    else Some (u, ui && inclusive)

let inter_candidates c vs =
  match c with
  | None -> Some vs
  | Some us -> Some (List.filter (fun u -> List.exists (Value.equal u) vs) us)

(* Collect range/domain info for attribute [a] from the positive
   literals of conjunction [q]. Negative literals are ignored: under the
   engine's NULL semantics they admit NULL and hence constrain
   nothing. *)
let attr_info (q : literal list) (a : Attr.t) : info =
  List.fold_left
    (fun acc lit ->
      match lit with
      | Neg _ -> acc
      | Pos atom -> (
        match as_attr_const atom with
        | Some (b, c, v) when Attr.equal a b -> (
          let acc = { acc with has_positive = true } in
          match c with
          | Pred.Eq ->
            { acc with
              lo = tighten_lo acc.lo v true;
              hi = tighten_hi acc.hi v true;
              candidates = inter_candidates acc.candidates [ v ] }
          | Pred.Ge -> { acc with lo = tighten_lo acc.lo v true }
          | Pred.Gt -> { acc with lo = tighten_lo acc.lo v false }
          | Pred.Le -> { acc with hi = tighten_hi acc.hi v true }
          | Pred.Lt -> { acc with hi = tighten_hi acc.hi v false }
          | Pred.Ne -> acc)
        | Some _ -> acc
        | None -> (
          match atom with
          | Pred.In (Expr.Col b, vs) when Attr.equal a b ->
            { (match vs with
              | [] -> acc
              | v0 :: _ ->
                let lo, hi =
                  List.fold_left
                    (fun (lo, hi) v ->
                      ( (if Value.compare v lo < 0 then v else lo),
                        if Value.compare v hi > 0 then v else hi ))
                    (v0, v0) vs
                in
                { acc with
                  lo = tighten_lo acc.lo lo true;
                  hi = tighten_hi acc.hi hi true;
                  candidates = inter_candidates acc.candidates vs })
              with has_positive = true }
          | Pred.Like (Expr.Col b, _) when Attr.equal a b ->
            { acc with has_positive = true }
          | Pred.Not_null (Expr.Col b) when Attr.equal a b ->
            { acc with has_positive = true }
          | _ -> acc)))
    no_info q

(* Does the range [info] entail [a cmp v]? All values in the range are
   non-NULL (ranges come from positive literals only). *)
let range_entails info c v =
  let lo_at_least ~strict =
    match info.lo with
    | None -> false
    | Some (u, inclusive) ->
      let k = Value.compare u v in
      if strict then k > 0 || (k = 0 && not inclusive) else k >= 0
  in
  let hi_at_most ~strict =
    match info.hi with
    | None -> false
    | Some (u, inclusive) ->
      let k = Value.compare u v in
      if strict then k < 0 || (k = 0 && not inclusive) else k <= 0
  in
  match c with
  | Pred.Ge -> lo_at_least ~strict:false
  | Pred.Gt -> lo_at_least ~strict:true
  | Pred.Le -> hi_at_most ~strict:false
  | Pred.Lt -> hi_at_most ~strict:true
  | Pred.Eq -> (
    match info.lo, info.hi with
    | Some (u, true), Some (w, true) -> Value.equal u v && Value.equal w v
    | _ -> false)
  | Pred.Ne ->
    (* the whole range lies strictly below or strictly above v *)
    hi_at_most ~strict:true || lo_at_least ~strict:true

(* Evaluate a literal with attribute [a] pinned to [v]. *)
let literal_holds_at lit a v =
  let lookup b = if Attr.equal a b then v else Value.Null in
  match lit with
  | Pos atom -> Pred.eval_atom lookup atom
  | Neg atom -> not (Pred.eval_atom lookup atom)

(* Does conjunction [q] imply literal [d]? *)
let conj_implies_literal (q : literal list) (d : literal) : bool =
  if List.exists (literal_equal d) q then true
  else
    let atom = match d with Pos a | Neg a -> a in
    match single_attr_of_atom atom with
    | None -> false (* multi-attribute literal: syntactic match only *)
    | Some a -> (
      let info = attr_info q a in
      match info.candidates with
      | Some vs when vs <> [] && List.length vs <= 64 ->
        List.for_all (fun v -> literal_holds_at d a v) vs
      | Some [] -> true (* contradictory conjunction: implies anything *)
      | _ -> (
        match d with
        | Pos atom -> (
          match as_attr_const atom with
          | Some (_, c, v) -> range_entails info c v
          | None -> (
            match atom with
            | Pred.Not_null _ -> info.has_positive
            | Pred.In (_, vs) ->
              (* a finite IN-range check via bounds is only sound for
                 singleton lists *)
              (match vs with
              | [ v ] -> range_entails info Pred.Eq v
              | _ -> false)
            | Pred.Like _ | Pred.Is_null _ | Pred.Cmp _ -> false))
        | Neg atom -> (
          (* NOT atom is true when the atom is false, incl. at NULL; a
             pinned range never contains NULL, so disproving the atom on
             the whole range suffices. *)
          match as_attr_const atom with
          | Some (_, Pred.Eq, v) -> range_entails info Pred.Ne v
          | Some (_, Pred.Lt, v) -> range_entails info Pred.Ge v
          | Some (_, Pred.Le, v) -> range_entails info Pred.Gt v
          | Some (_, Pred.Gt, v) -> range_entails info Pred.Le v
          | Some (_, Pred.Ge, v) -> range_entails info Pred.Lt v
          | Some (_, Pred.Ne, v) -> range_entails info Pred.Eq v
          | None -> false)))

let conj_implies_conj q d = List.for_all (conj_implies_literal q) d

(* [implies pq pe]: sound test for pq => pe. *)
let implies_uncached (pq : Pred.t) (pe : Pred.t) : bool =
  match pe with
  | Pred.True -> true
  | _ -> (
    if Pred.equal pq pe then true
    else
      match dnf pq, dnf pe with
      | Some dq, Some de ->
        List.for_all (fun q -> List.exists (fun d -> conj_implies_conj q d) de) dq
      | _ -> false)

(* -- Verdict cache ------------------------------------------------

   The optimizer re-tests the same (query-predicate, policy-predicate)
   pairs for every memo group it annotates; the verdict only depends
   on the two predicates, so it is memoized on their intern ids. The
   [enabled] switch exists for the differential test suite, which
   compares cached against from-scratch runs. *)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = (a * 65599) + b
end)

let cache : bool Pair_tbl.t = Pair_tbl.create 4096
let enabled = ref true
let hits = ref 0
let misses = ref 0
let max_entries = 1 lsl 18

(* Registry counterparts of the bespoke hit/miss refs above: monotone
   process-wide counters for the metrics export. The refs stay — their
   reset semantics anchor the differential suite and the e11 bench
   windows — but the registry is the reporting surface. *)
let c_cache_hit =
  Obs.Metrics.counter
    ~labels:[ ("cache", "implication"); ("outcome", "hit") ]
    "cgqp_policy_cache_total"

let c_cache_miss =
  Obs.Metrics.counter
    ~labels:[ ("cache", "implication"); ("outcome", "miss") ]
    "cgqp_policy_cache_total"

let set_cache_enabled b = enabled := b
let cache_stats () = (!hits, !misses)

let reset_cache () =
  Pair_tbl.reset cache;
  hits := 0;
  misses := 0

let implies (pq : Pred.t) (pe : Pred.t) : bool =
  if not !enabled then implies_uncached pq pe
  else
    let pq, qid = Pred.intern pq in
    let pe, eid = Pred.intern pe in
    match Pair_tbl.find_opt cache (qid, eid) with
    | Some v ->
      incr hits;
      Obs.Metrics.inc c_cache_hit;
      v
    | None ->
      incr misses;
      Obs.Metrics.inc c_cache_miss;
      let v = implies_uncached pq pe in
      if Pair_tbl.length cache >= max_entries then Pair_tbl.reset cache;
      Pair_tbl.add cache (qid, eid) v;
      v
