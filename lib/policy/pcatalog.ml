(* The policy catalog (Figure 2): all policy expressions in force,
   indexed by the table they govern. *)

module String_map = Map.Make (String)

type t = {
  by_table : Expression.t list String_map.t;
  all : Expression.t list;
  stamp : int;  (* unique per catalog; keys cross-catalog caches *)
  fingerprint : int;  (* content hash; equal for semantically equal sets *)
}

(* Policy catalogs are immutable after [make]; a construction-time
   stamp identifies one soundly in process-wide cache keys. *)
let next_stamp = ref 0

let fresh_stamp () =
  incr next_stamp;
  !next_stamp

(* Content fingerprint: fold the sorted expression hashes through
   splitmix64 (the fault scheduler's mixing discipline, so the
   fingerprint has no structure an LRU key could accidentally collide
   on). Sorting makes it order-insensitive; [make] dedupes, so it is
   also duplicate-insensitive — installing the same statement twice
   leaves the fingerprint (and any cache keyed by it) unchanged. *)
let fingerprint_of (exprs : Expression.t list) : int =
  let hs = List.sort compare (List.map Expression.hash exprs) in
  let h =
    List.fold_left
      (fun acc h -> Relalg.Splitmix.mix64 (Int64.logxor acc (Int64.of_int h)))
      (Relalg.Splitmix.mix64 Relalg.Splitmix.gamma) hs
  in
  Int64.to_int h land max_int

let empty =
  {
    by_table = String_map.empty;
    all = [];
    stamp = fresh_stamp ();
    fingerprint = fingerprint_of [];
  }

let make (exprs : Expression.t list) : t =
  (* Intern on entry: every expression the evaluator ever sees is the
     canonical node, so the predicate intern table (and with it the
     implication-verdict cache) is shared across queries and sets. *)
  let exprs = List.map Expression.intern exprs in
  (* Drop duplicate statements (first occurrence wins): interning makes
     structural equality a pointer test. Re-installing an expression is
     a no-op, so the evaluator never pays twice for one policy and
     [fingerprint] is stable under repeated [add_policies]. *)
  let exprs =
    List.rev
      (List.fold_left
         (fun acc e -> if List.memq e acc then acc else e :: acc)
         [] exprs)
  in
  let by_table =
    List.fold_left
      (fun m e ->
        String_map.update e.Expression.table
          (function None -> Some [ e ] | Some es -> Some (es @ [ e ]))
          m)
      String_map.empty exprs
  in
  { by_table; all = exprs; stamp = fresh_stamp (); fingerprint = fingerprint_of exprs }

let stamp t = t.stamp
let fingerprint t = t.fingerprint

let of_texts (cat : Catalog.t) (texts : string list) : t =
  make (List.map (Expression.parse cat) texts)

let for_table t name =
  match String_map.find_opt (String.lowercase_ascii name) t.by_table with
  | Some es -> es
  | None -> []

let all t = t.all
let size t = List.length t.all

let pp ppf t =
  Fmt.(list ~sep:(any "@.") Expression.pp) ppf t.all
