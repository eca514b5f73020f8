(* Policy-epoch plan cache: optimizer outcomes keyed by
   (normalized SQL, policy fingerprint, catalog stamp, mask fingerprint,
   optimizer mode), LRU-evicted, purged wholesale on every policy
   epoch bump. A second table caches *template* plans keyed by the
   literal-normalized statement plus a parameter fingerprint that
   covers exactly the compliance-sensitive literals. See plan_cache.mli
   and docs/FEEDBACK.md for the invariants. *)

type key = {
  sql : string;  (* normalized exact text, or the template text *)
  param_fp : int;  (* 0 for exact keys; sensitive-literal fp for templates *)
  policy_fp : int;
  catalog_fp : int;
  mask_fp : int;  (* 0 = healthy network *)
  mode : Optimizer.Memo.mode;
}

type entry = {
  outcome : Optimizer.Planner.outcome;
  epoch : int;  (* insert-time epoch, for the purge sweep *)
  mutable last_use : int;  (* LRU tick *)
}

(* A template entry keeps the bindings it was certified under so a hit
   can substitute the new literals into the stored plan. *)
type tentry = {
  planned : Optimizer.Planner.planned;
  params : (string * Relalg.Value.t) array;
  t_epoch : int;
  mutable t_last_use : int;
}

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
  template_hits : int;
  template_misses : int;
}

type t = {
  table : (key, entry) Hashtbl.t;
  templates : (key, tentry) Hashtbl.t;
  cap : int;
  mutable tick : int;
  mutable cur_epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
  mutable template_hits : int;
  mutable template_misses : int;
}

(* Global metrics, aggregated over every cache instance: per-instance
   gauges would grow the registry without bound under property tests
   that create thousands of short-lived caches. *)
let c_hits = Obs.Metrics.counter "cgqp_plancache_hits_total"
let c_misses = Obs.Metrics.counter "cgqp_plancache_misses_total"
let c_invalidations = Obs.Metrics.counter "cgqp_plancache_invalidations_total"
let c_evictions = Obs.Metrics.counter "cgqp_plancache_evictions_total"
let c_template_hits = Obs.Metrics.counter "cgqp_plancache_template_hits_total"

let c_template_misses =
  Obs.Metrics.counter "cgqp_plancache_template_misses_total"

(* Entries live across all instances, sampled by one gauge. *)
let live_entries = ref 0
let live_add n = live_entries := !live_entries + n

let () =
  Obs.Metrics.gauge "cgqp_plancache_entries" (fun () ->
      float_of_int !live_entries)

let create ?(capacity = 128) () =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be positive";
  {
    table = Hashtbl.create (2 * capacity);
    templates = Hashtbl.create (2 * capacity);
    cap = capacity;
    tick = 0;
    cur_epoch = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
    template_hits = 0;
    template_misses = 0;
  }

let capacity t = t.cap
let size t = Hashtbl.length t.table
let template_size t = Hashtbl.length t.templates
let epoch t = t.cur_epoch

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    evictions = t.evictions;
    template_hits = t.template_hits;
    template_misses = t.template_misses;
  }

(* --- SQL normalization --- *)

(* Whitespace runs collapse, trailing ';' drops, everything outside
   single-quoted literals is lowercased. Deliberately textual: a
   normalizer that merges too much is a compliance hazard. *)
let normalize_sql sql =
  let b = Buffer.create (String.length sql) in
  let in_string = ref false and pending_space = ref false in
  String.iter
    (fun c ->
      if !in_string then begin
        Buffer.add_char b c;
        if c = '\'' then in_string := false
      end
      else
        match c with
        | ' ' | '\t' | '\n' | '\r' -> if Buffer.length b > 0 then pending_space := true
        | c ->
          if !pending_space then begin
            Buffer.add_char b ' ';
            pending_space := false
          end;
          Buffer.add_char b (Char.lowercase_ascii c);
          if c = '\'' then in_string := true)
    sql;
  let s = Buffer.contents b in
  let n = String.length s in
  if n > 0 && s.[n - 1] = ';' then String.trim (String.sub s 0 (n - 1)) else s

(* --- fingerprints --- *)

open Relalg.Splitmix

(* Order-insensitive over all three lists; 0 iff the mask is empty, so
   the healthy-network key is stable across [run] and [optimize]. *)
let mask_fingerprint ?(replicas = []) ~links ~sites () =
  if links = [] && sites = [] && replicas = [] then 0
  else
    let link_h (a, b) =
      (* undirected: both orientations hash alike *)
      let a, b = if String.compare a b <= 0 then (a, b) else (b, a) in
      hash_str (hash_str (mix64 1L) a) b
    in
    let site_h l = hash_str (mix64 2L) l in
    let replica_h (table, site) = hash_str (hash_str (mix64 6L) table) site in
    let hs =
      List.sort Int64.compare
        (List.map link_h links @ List.map site_h sites
        @ List.map replica_h replicas)
    in
    let h = List.fold_left (fun acc h -> mix64 (Int64.logxor acc h)) (mix64 3L) hs in
    (* never collide with the reserved healthy value *)
    let v = Int64.to_int h land max_int in
    if v = 0 then 1 else v

let key ~sql ~policies ~catalog ?(mask_fp = 0) ~mode () =
  {
    sql = normalize_sql sql;
    param_fp = 0;
    policy_fp = Policy.Pcatalog.fingerprint policies;
    catalog_fp = Catalog.stamp catalog;
    mask_fp;
    mode;
  }

(* Typed value fingerprint: the tag keeps e.g. Str "1994-01-01" and the
   Date it parses to distinct (a split template is only a missed hit;
   a merged one would be a correctness bug). *)
let value_fp (v : Relalg.Value.t) =
  let tag =
    match v with
    | Relalg.Value.Null -> "n"
    | Relalg.Value.Int _ -> "i"
    | Relalg.Value.Float _ -> "f"
    | Relalg.Value.Str _ -> "s"
    | Relalg.Value.Date _ -> "d"
    | Relalg.Value.Bool _ -> "b"
  in
  hash_str (hash_str (mix64 5L) tag) (Relalg.Value.to_string v)

(* The compliance-verdict guard: a parameter whose column occurs in
   some policy predicate can flip a SHIP verdict, so its *value* joins
   the key; insensitive parameters contribute only their ordinal and
   column, which is what lets distinct literals share one plan. *)
let param_fp ~sensitive params =
  let h = ref (mix64 4L) in
  Array.iteri
    (fun i (col, v) ->
      h := mix64 (Int64.logxor !h (Int64.of_int (i + 1)));
      h := hash_str !h col;
      if sensitive col then h := mix64 (Int64.logxor !h (value_fp v)))
    params;
  let v = Int64.to_int !h land max_int in
  if v = 0 then 1 else v

let template_key ~template ~params ~sensitive ~policies ~catalog ?(mask_fp = 0)
    ~mode () =
  {
    sql = template;
    param_fp = param_fp ~sensitive params;
    policy_fp = Policy.Pcatalog.fingerprint policies;
    catalog_fp = Catalog.stamp catalog;
    mask_fp;
    mode;
  }

(* --- literal substitution on a cached template plan --- *)

(* Substitute the new bindings into every [col = const] atom over a
   parameterized column. The normalizer's single-occurrence rule means
   there is exactly one such atom per parameter, and equality
   selectivity is value-independent, so everything else in the planned
   record (costs, estimates, eval and prune stats) is exactly what a
   fresh optimization of the new statement would compute. *)
let rebind_planned ~params (p : Optimizer.Planner.planned) =
  let tbl = Hashtbl.create 8 in
  Array.iter (fun (c, v) -> Hashtbl.replace tbl c v) params;
  let subst_atom a =
    match a with
    | Relalg.Pred.Cmp (Relalg.Pred.Eq, (Relalg.Expr.Col at as l), Relalg.Expr.Const _)
      -> (
      match Hashtbl.find_opt tbl at.Relalg.Attr.name with
      | Some nv -> Relalg.Pred.Cmp (Relalg.Pred.Eq, l, Relalg.Expr.Const nv)
      | None -> a)
    | Relalg.Pred.Cmp (Relalg.Pred.Eq, Relalg.Expr.Const _, (Relalg.Expr.Col at as r))
      -> (
      match Hashtbl.find_opt tbl at.Relalg.Attr.name with
      | Some nv -> Relalg.Pred.Cmp (Relalg.Pred.Eq, Relalg.Expr.Const nv, r)
      | None -> a)
    | a -> a
  in
  let rec subst_pred = function
    | Relalg.Pred.Atom a -> Relalg.Pred.Atom (subst_atom a)
    | Relalg.Pred.And (l, r) -> Relalg.Pred.And (subst_pred l, subst_pred r)
    | Relalg.Pred.Or (l, r) -> Relalg.Pred.Or (subst_pred l, subst_pred r)
    | Relalg.Pred.Not q -> Relalg.Pred.Not (subst_pred q)
    | (Relalg.Pred.True | Relalg.Pred.False) as q -> q
  in
  let subst_node = function
    | Exec.Pplan.Filter q -> Exec.Pplan.Filter (subst_pred q)
    | Exec.Pplan.Hash_join { keys; residual } ->
      Exec.Pplan.Hash_join { keys; residual = subst_pred residual }
    | Exec.Pplan.Merge_join { keys; residual } ->
      Exec.Pplan.Merge_join { keys; residual = subst_pred residual }
    | Exec.Pplan.Nl_join q -> Exec.Pplan.Nl_join (subst_pred q)
    | n -> n
  in
  let rec subst_plan (pl : Exec.Pplan.t) =
    {
      pl with
      Exec.Pplan.node = subst_node pl.Exec.Pplan.node;
      children = List.map subst_plan pl.Exec.Pplan.children;
    }
  in
  let rec subst_anode (a : Optimizer.Memo.anode) =
    {
      a with
      Optimizer.Memo.shape = subst_node a.Optimizer.Memo.shape;
      children = List.map subst_anode a.Optimizer.Memo.children;
    }
  in
  {
    p with
    Optimizer.Planner.plan = subst_plan p.Optimizer.Planner.plan;
    annotated = subst_anode p.Optimizer.Planner.annotated;
  }

(* --- the cache proper --- *)

let bump_epoch ?(reason = "policy-change") t =
  let purged = Hashtbl.length t.table + Hashtbl.length t.templates in
  Hashtbl.reset t.table;
  Hashtbl.reset t.templates;
  live_add (-purged);
  t.cur_epoch <- t.cur_epoch + 1;
  t.invalidations <- t.invalidations + purged;
  Obs.Metrics.inc ~by:purged c_invalidations;
  if Obs.Trace.enabled () then
    Obs.Trace.instant "plancache.invalidate"
      [
        ("reason", Obs.Json.Str reason);
        ("epoch", Obs.Json.Num (float_of_int t.cur_epoch));
        ("purged", Obs.Json.Num (float_of_int purged));
      ]

let clear t =
  live_add (-(Hashtbl.length t.table + Hashtbl.length t.templates));
  Hashtbl.reset t.table;
  Hashtbl.reset t.templates;
  (* counters restart with the entries: hit rates over a clear boundary
     would otherwise mix two unrelated populations *)
  t.hits <- 0;
  t.misses <- 0;
  t.invalidations <- 0;
  t.evictions <- 0;
  t.template_hits <- 0;
  t.template_misses <- 0

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    (* entries from an older epoch cannot survive the purge in
       [bump_epoch]; the check is belt-and-braces *)
    if e.epoch <> t.cur_epoch then begin
      Hashtbl.remove t.table key;
      live_add (-1);
      t.misses <- t.misses + 1;
      Obs.Metrics.inc c_misses;
      None
    end
    else begin
      t.tick <- t.tick + 1;
      e.last_use <- t.tick;
      t.hits <- t.hits + 1;
      Obs.Metrics.inc c_hits;
      Some e.outcome
    end
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.inc c_misses;
    None

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, lu) when lu <= e.last_use -> ()
      | _ -> victim := Some (k, e.last_use))
    t.table;
  match !victim with
  | None -> ()
  | Some (k, _) ->
    Hashtbl.remove t.table k;
    live_add (-1);
    t.evictions <- t.evictions + 1;
    Obs.Metrics.inc c_evictions

let add t key outcome =
  (if Hashtbl.mem t.table key then begin
     Hashtbl.remove t.table key;
     live_add (-1)
   end
   else if Hashtbl.length t.table >= t.cap then evict_lru t);
  t.tick <- t.tick + 1;
  Hashtbl.replace t.table key
    { outcome; epoch = t.cur_epoch; last_use = t.tick };
  live_add 1

(* --- template table --- *)

let template_miss t =
  t.template_misses <- t.template_misses + 1;
  Obs.Metrics.inc c_template_misses

let find_template t key ~params =
  match Hashtbl.find_opt t.templates key with
  | Some e
    when e.t_epoch = t.cur_epoch
         && Array.length e.params = Array.length params
         && Array.for_all2 (fun (c, _) (c', _) -> String.equal c c') e.params
              params ->
    t.tick <- t.tick + 1;
    e.t_last_use <- t.tick;
    (* a template hit is a hit: the optimizer did not run. Counting it
       in [hits] (and not [misses]) is what keeps the scheduler's
       Hit/Miss flag derivation working unchanged. *)
    t.template_hits <- t.template_hits + 1;
    t.hits <- t.hits + 1;
    Obs.Metrics.inc c_template_hits;
    Obs.Metrics.inc c_hits;
    if
      Array.for_all2
        (fun (_, v) (_, v') -> Relalg.Value.equal v v')
        e.params params
    then Some e.planned
    else Some (rebind_planned ~params e.planned)
  | Some _ ->
    (* stale epoch or mismatched shape: drop and miss *)
    Hashtbl.remove t.templates key;
    live_add (-1);
    template_miss t;
    None
  | None ->
    template_miss t;
    None

let evict_template_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, lu) when lu <= e.t_last_use -> ()
      | _ -> victim := Some (k, e.t_last_use))
    t.templates;
  match !victim with
  | None -> ()
  | Some (k, _) ->
    Hashtbl.remove t.templates k;
    live_add (-1);
    t.evictions <- t.evictions + 1;
    Obs.Metrics.inc c_evictions

let add_template t key ~params planned =
  (if Hashtbl.mem t.templates key then begin
     Hashtbl.remove t.templates key;
     live_add (-1)
   end
   else if Hashtbl.length t.templates >= t.cap then evict_template_lru t);
  t.tick <- t.tick + 1;
  Hashtbl.replace t.templates key
    { planned; params; t_epoch = t.cur_epoch; t_last_use = t.tick };
  live_add 1
