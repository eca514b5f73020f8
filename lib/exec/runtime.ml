(* Shared execution scaffolding for the engines (the reference
   interpreter in [Interp] and the vectorized executor in [Vector]) and
   the Grace spill path ([Spill]), and the one plan walk both engines
   run ([compile], at the bottom): SHIP accounting under the message
   cost model with fault injection and retry/backoff, per-operator
   profiles for EXPLAIN ANALYZE, the memory budget and the spill
   decision, the boxed aggregate accumulators ([Interp]'s; [Vector]'s
   kernels have unboxed ones), and the metrics/trace emission. The
   engines supply only operator kernels, which is what makes them
   byte-identical on stats, profiles and traces. *)

open Relalg

type ship_record = {
  from_loc : Catalog.Location.t;
  to_loc : Catalog.Location.t;
  bytes : int;
  rows : int;
  cost_ms : float;
  attempts : int;
}

type stats = {
  mutable ships : ship_record list;
  mutable rows_processed : int;
  mutable ship_retries : int;
}

let fresh_stats () = { ships = []; rows_processed = 0; ship_retries = 0 }

type retry_policy = {
  max_attempts : int;  (* total tries per SHIP, >= 1 *)
  base_backoff_ms : float;  (* backoff before retry k: base * 2^(k-1), capped *)
  max_backoff_ms : float;
  attempt_timeout_ms : float;
      (* an attempt whose simulated transfer time exceeds this is
         abandoned (and charged the timeout) *)
  budget_ms : float;  (* simulated-clock budget per SHIP, backoffs included *)
}

let default_retry =
  {
    max_attempts = 4;
    base_backoff_ms = 50.;
    max_backoff_ms = 1600.;
    attempt_timeout_ms = Float.infinity;
    budget_ms = Float.infinity;
  }

type ship_failure =
  [ `Link_down
  | `Site_down of Catalog.Location.t
  | `Attempts_exhausted
  | `Budget_exhausted ]

exception
  Ship_failed of {
    from_loc : Catalog.Location.t;
    to_loc : Catalog.Location.t;
    attempts : int;
    reason : ship_failure;
  }

let ship_failure_to_string : ship_failure -> string = function
  | `Link_down -> "link down"
  | `Site_down l -> "site " ^ l ^ " down"
  | `Attempts_exhausted -> "retry attempts exhausted"
  | `Budget_exhausted -> "simulated-clock budget exhausted"

exception
  Replica_stale of {
    table : string;
    partition : int;
    site : Catalog.Location.t;
  }

(* Freshness gate the walk runs before reading a scan's rows: a
   scheduled [replica-lag] makes the copy at [site] unreadable, exactly
   like a down link makes a SHIP impossible. The predicate only looks at
   (faults, table, site) — never at the catalog — so a session whose
   catalog carries no replica sets raises identically when its (only)
   copy is scheduled stale, and the degradation path stays uniform. *)
let check_replica ~faults ~table ~partition ~site =
  if Catalog.Network.Fault.replica_stale faults ~table ~site then
    raise (Replica_stale { table; partition; site })

let () =
  Printexc.register_printer (function
    | Ship_failed { from_loc; to_loc; attempts; reason } ->
      Some
        (Printf.sprintf "Exec.Interp.Ship_failed(%s -> %s after %d attempts: %s)"
           from_loc to_loc attempts (ship_failure_to_string reason))
    | Replica_stale { table; partition; site } ->
      Some
        (Printf.sprintf "Exec.Interp.Replica_stale(%s/%d at %s)" table partition
           site)
    | _ -> None)

(* Per-operator execution profile, keyed by the node's position in the
   plan tree (root-to-node child indices) so EXPLAIN ANALYZE can match
   actuals back to plan nodes without identity tricks. *)
type node_profile = {
  path : int list;
  label : string;
  actual_rows : int;
  actual_bytes : int;
  ship : ship_record option;
}

type result = {
  relation : Storage.Relation.t;
  stats : stats;
  profile : node_profile list;  (* execution (post-) order *)
  makespan_ms : float;
      (* simulated response time: sibling subtrees proceed in parallel,
         transfers follow the message cost model, local processing is
         charged per materialized row *)
}

let c_rows = Obs.Metrics.counter "cgqp_exec_rows_processed_total"
let c_ships = Obs.Metrics.counter "cgqp_exec_ships_total"
let c_ship_bytes = Obs.Metrics.counter "cgqp_exec_ship_bytes_total"
let c_ship_retries = Obs.Metrics.counter "cgqp_exec_ship_retries_total"
let c_ship_retry_bytes = Obs.Metrics.counter "cgqp_exec_ship_retry_bytes_total"
let h_ship_cost_ms = Obs.Metrics.histogram "cgqp_exec_ship_cost_ms"

(* Simulated per-row local processing cost (ms); only relative
   magnitudes matter. *)
let row_cost_ms = 1e-5

let total_ship_cost stats = List.fold_left (fun a s -> a +. s.cost_ms) 0. stats.ships
let total_ship_bytes stats = List.fold_left (fun a s -> a + s.bytes) 0 stats.ships

(* Bytes the network actually carried: a retried payload crosses the
   link once per attempt, but counts only once toward the result. *)
let total_traffic_bytes stats =
  List.fold_left (fun a s -> a + (s.bytes * s.attempts)) 0 stats.ships

exception Runtime_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

(* --- memory budget ------------------------------------------------

   A per-execution byte account over serialized sizes (the same
   [Value.byte_width] sums the SHIP ledger uses, so the numbers are
   engine-independent): every operator charges its materialized output
   and releases its children's after consuming them; hash join and
   aggregation additionally charge their scratch state (the build side
   / the input) for the duration of the kernel. When a charge would
   exceed the budget, those two operators switch to the Grace spill
   path ([Spill]) instead. [unlimited_budget] (the default) makes all
   accounting a no-op, so budget-free runs pay nothing.

   The spill decision is a pure function of (budget, deterministic byte
   counts), identical across engines — which is what lets the spilling
   and in-memory paths be differentially tested for byte-identity. *)

type mem = {
  budget : int;
  mutable tracked : int;  (* currently charged bytes *)
  mutable peak : int;
  mutable spill_ops : int;  (* operators that took the spill path *)
  mutable spill_parts : int;  (* Grace partitions across those *)
  mutable spill_run_bytes : int;  (* bytes appended to run files *)
}

let unlimited_budget = max_int

let mem_create ~budget =
  { budget; tracked = 0; peak = 0; spill_ops = 0; spill_parts = 0; spill_run_bytes = 0 }

let mem_charge m b =
  if m.budget <> unlimited_budget then begin
    m.tracked <- m.tracked + b;
    if m.tracked > m.peak then m.peak <- m.tracked
  end

let mem_release m b =
  if m.budget <> unlimited_budget then m.tracked <- max 0 (m.tracked - b)

(* Would charging [b] more bytes trip the budget? *)
let should_spill m b =
  m.budget <> unlimited_budget && b > 0 && m.tracked + b > m.budget

(* "64m"-style byte counts: plain bytes, or a k/m/g suffix (powers of
   1024); "unlimited" / "none" / "inf" / empty / unset mean no budget.
   A count whose product with its suffix overflows is rejected rather
   than wrapped. *)
let parse_budget s =
  let s = String.trim (String.lowercase_ascii s) in
  match s with
  | "" | "unlimited" | "none" | "inf" -> Some unlimited_budget
  | _ ->
    let mul, num =
      let n = String.length s in
      match s.[n - 1] with
      | 'k' -> (1024, String.sub s 0 (n - 1))
      | 'm' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    (match int_of_string_opt (String.trim num) with
    | Some v when v >= 0 && v <= max_int / mul -> Some (v * mul)
    | _ -> None)

let budget_from_env () =
  match Sys.getenv_opt "CGQP_MEM_BUDGET" with
  | None -> unlimited_budget
  | Some s -> (
    match parse_budget s with
    | Some b -> b
    | None ->
      invalid_arg
        (Printf.sprintf
           "CGQP_MEM_BUDGET=%S: expected bytes, optionally suffixed k/m/g" s))

(* Process-wide spill/paging observability (the per-execution [mem]
   folds in at the end). *)
let c_spill_ops = Obs.Metrics.counter "cgqp_exec_spilled_operators_total"
let c_spill_parts = Obs.Metrics.counter "cgqp_exec_spill_partitions_total"
let c_spill_bytes = Obs.Metrics.counter "cgqp_exec_spill_bytes_total"
let peak_tracked = ref 0

let () =
  Obs.Metrics.gauge "cgqp_exec_peak_tracked_bytes" (fun () ->
      float_of_int !peak_tracked);
  Obs.Metrics.gauge "cgqp_storage_segment_page_reads" (fun () ->
      float_of_int (Storage.Segment.page_reads ()))

(* Fold a finished execution's account into the process-wide stats. *)
let mem_finish m =
  peak_tracked := max !peak_tracked m.peak;
  if m.spill_ops > 0 then begin
    Obs.Metrics.inc ~by:m.spill_ops c_spill_ops;
    Obs.Metrics.inc ~by:m.spill_parts c_spill_parts;
    Obs.Metrics.inc ~by:m.spill_run_bytes c_spill_bytes
  end

(* Readers for [--stats] and the bench. *)
let peak_tracked_bytes () = !peak_tracked
let spilled_operators () = Obs.Metrics.value c_spill_ops
let spill_partitions () = Obs.Metrics.value c_spill_parts
let spill_run_bytes () = Obs.Metrics.value c_spill_bytes

let reset_mem_stats () = peak_tracked := 0

(* --- aggregate accumulation --- *)

type acc = {
  mutable sum : Value.t;
  mutable count : int;
  mutable vmin : Value.t;
  mutable vmax : Value.t;
}

let fresh_acc () = { sum = Value.Null; count = 0; vmin = Value.Null; vmax = Value.Null }

let feed acc v =
  if not (Value.is_null v) then begin
    acc.count <- acc.count + 1;
    acc.sum <- (if Value.is_null acc.sum then v else Value.add acc.sum v);
    acc.vmin <-
      (if Value.is_null acc.vmin || Value.compare v acc.vmin < 0 then v else acc.vmin);
    acc.vmax <-
      (if Value.is_null acc.vmax || Value.compare v acc.vmax > 0 then v else acc.vmax)
  end

let finish (fn : Expr.agg_fn) acc =
  match fn with
  | Expr.Sum -> acc.sum
  | Expr.Count -> Value.Int acc.count
  | Expr.Min -> acc.vmin
  | Expr.Max -> acc.vmax
  | Expr.Avg ->
    if acc.count = 0 then Value.Null
    else Value.div acc.sum (Value.Int acc.count)

(* --- row utilities --- *)

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }
  let length v = v.n

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

(* --- shared SHIP path --- *)

(* Execute one SHIP: topology checks, then the retry loop on the
   simulated clock, then stats/metrics/trace. The drop fate of each
   attempt is keyed by the ship's index in [stats.ships], so the walk's
   child order fixes every fate. *)
let do_ship ~faults ~retry ~network ~stats ~from_loc ~to_loc ~bytes ~rows :
    ship_record =
  let ship_idx = List.length stats.ships in
  let fail_ship ~attempts reason =
    raise (Ship_failed { from_loc; to_loc; attempts; reason })
  in
  (* permanent topology failures discovered at transfer time *)
  if Catalog.Network.Fault.site_down faults from_loc then
    fail_ship ~attempts:0 (`Site_down from_loc);
  if Catalog.Network.Fault.site_down faults to_loc then
    fail_ship ~attempts:0 (`Site_down to_loc);
  if Catalog.Network.Fault.link_down faults ~from_loc ~to_loc then
    fail_ship ~attempts:0 `Link_down;
  (* Healthy transfer time, inflated by any latency fault. The
     schedule is applied here, on top of the network's own — run
     with a healthy network plus an explicit schedule, or with a
     pre-masked network and no schedule, never both. *)
  let attempt_cost =
    Catalog.Network.ship_cost network ~from_loc ~to_loc ~bytes:(float_of_int bytes)
    *. Catalog.Network.Fault.latency_factor faults ~from_loc ~to_loc
  in
  (* Retry loop on the simulated clock: a dropped or timed-out
     attempt consumes the link (bytes crossed, result lost), then
     backs off exponentially with a cap. *)
  let rec go ~attempt ~elapsed =
    if attempt > retry.max_attempts then
      fail_ship ~attempts:(attempt - 1) `Attempts_exhausted;
    if elapsed +. attempt_cost > retry.budget_ms then
      fail_ship ~attempts:(attempt - 1) `Budget_exhausted;
    let timed_out = attempt_cost > retry.attempt_timeout_ms in
    if
      timed_out
      || Catalog.Network.Fault.drops faults ~from_loc ~to_loc ~ship:ship_idx
           ~attempt
    then begin
      let charged = Float.min attempt_cost retry.attempt_timeout_ms in
      let backoff =
        Float.min retry.max_backoff_ms
          (retry.base_backoff_ms *. (2. ** float_of_int (attempt - 1)))
      in
      if Obs.Trace.enabled () then
        Obs.Trace.instant "exec.ship_retry"
          [
            ("from", Obs.Json.Str from_loc);
            ("to", Obs.Json.Str to_loc);
            ("attempt", Obs.Json.Num (float_of_int attempt));
            ("cause", Obs.Json.Str (if timed_out then "timeout" else "drop"));
            ("backoff_ms", Obs.Json.Num backoff);
          ];
      go ~attempt:(attempt + 1) ~elapsed:(elapsed +. charged +. backoff)
    end
    else (attempt, elapsed +. attempt_cost)
  in
  let attempts, cost_ms = go ~attempt:1 ~elapsed:0. in
  let record = { from_loc; to_loc; bytes; rows; cost_ms; attempts } in
  stats.ships <- record :: stats.ships;
  stats.ship_retries <- stats.ship_retries + (attempts - 1);
  Obs.Metrics.inc c_ships;
  Obs.Metrics.inc ~by:bytes c_ship_bytes;
  if attempts > 1 then begin
    Obs.Metrics.inc ~by:(attempts - 1) c_ship_retries;
    Obs.Metrics.inc ~by:(bytes * (attempts - 1)) c_ship_retry_bytes
  end;
  Obs.Metrics.observe h_ship_cost_ms cost_ms;
  if Obs.Trace.enabled () then
    Obs.Trace.instant "exec.ship"
      [
        ("from", Obs.Json.Str from_loc);
        ("to", Obs.Json.Str to_loc);
        ("bytes", Obs.Json.Num (float_of_int bytes));
        ("rows", Obs.Json.Num (float_of_int rows));
        ("cost_ms", Obs.Json.Num cost_ms);
        ("attempts", Obs.Json.Num (float_of_int attempts));
      ];
  record

(* Post-order per-node bookkeeping: rows_processed, the rows counter,
   the profile entry and the per-operator trace event. *)
let record_node ~stats ~(profile : node_profile list ref) ~rpath ~label
    ~(loc : Catalog.Location.t) ~ship ~card ~bytes =
  stats.rows_processed <- stats.rows_processed + card;
  Obs.Metrics.inc ~by:card c_rows;
  profile :=
    { path = List.rev rpath; label; actual_rows = card; actual_bytes = bytes; ship }
    :: !profile;
  if Obs.Trace.enabled () then
    Obs.Trace.instant "exec.op"
      [
        ("op", Obs.Json.Str label);
        ("loc", Obs.Json.Str loc);
        ("rows", Obs.Json.Num (float_of_int card));
      ]

(* --- the plan walk ---

   One compile-time walk over the placed plan, shared by the engines:
   it keeps the contract's child order, runs the replica gate and every
   SHIP, records each operator, keeps the memory account (including the
   spill decision) and computes finish times. An engine supplies only
   its kernels, over its own output type ['o]: [Interp] threads boxed
   relations, [Vector] column chunks. Each kernel is applied to its
   compile-time arguments once, here, and the closure it returns runs
   per execution. *)

type hash_mode = In_memory | Spilled of { mem : mem; bytes : int }

type 'o kernels = {
  scan :
    Storage.Relation.t -> Attr.t list -> project:(Expr.scalar * Attr.t) list option -> unit -> 'o;
  filter : Attr.t list -> Pred.t -> 'o -> 'o;
  project : Attr.t list -> (Expr.scalar * Attr.t) list -> 'o -> 'o;
  hash_join :
    Attr.t list -> Attr.t list -> (Attr.t * Attr.t) list -> Pred.t -> hash_mode -> 'o -> 'o -> 'o;
  merge_join : Attr.t list -> Attr.t list -> (Attr.t * Attr.t) list -> Pred.t -> 'o -> 'o -> 'o;
  nl_join : Attr.t list -> Attr.t list -> Pred.t -> 'o -> 'o -> 'o;
  hash_agg : Attr.t list -> Attr.t list -> Expr.agg list -> hash_mode -> 'o -> 'o;
  sort : Attr.t list -> (Attr.t * bool) list -> 'o -> 'o;
  union : Attr.t list -> 'o list -> 'o;
  card : 'o -> int;
  byte_size : 'o -> int;
  to_relation : Attr.t list -> 'o -> Storage.Relation.t;
}

let agg_schema keys (aggs : Expr.agg list) =
  keys @ List.map (fun (a : Expr.agg) -> Attr.unqualified a.alias) aggs

type env = {
  faults : Catalog.Network.Fault.schedule;
  retry : retry_policy;
  network : Catalog.Network.t;
  stats : stats;
  profile : node_profile list ref;
  mem : mem;
}

(* A compiled operator returns its output, the bytes charged for it
   (released by the parent once consumed) and its finish time. *)
type 'o plan = {
  schema : Attr.t list;
  exec : env -> 'o * int * float;
  to_rel : 'o -> Storage.Relation.t;
}

let plan_schema p = p.schema

(* A hash operator's scratch state ([bytes]: the build side, or the
   input) is charged for the in-memory kernel's duration, unless
   charging it would trip the budget: then the kernel spills. *)
let hashed env ~bytes ~can_spill kernel =
  if can_spill && should_spill env.mem bytes then kernel (Spilled { mem = env.mem; bytes })
  else begin
    mem_charge env.mem bytes;
    let out = kernel In_memory in
    mem_release env.mem bytes;
    out
  end

(* A kernel that needs neither the environment nor its input's bytes. *)
let pure f _env _bytes = f

let compile (k : 'o kernels) ~(db : Storage.Database.t) ~(table_cols : string -> string list)
    (plan : Pplan.t) : 'o plan =
  (* [rpath] is the node's root-to-node child-index path, reversed.
     [project] is the parent's item list when the parent is a
     [Project]. *)
  let rec comp ?project rpath (p : Pplan.t) : Attr.t list * (env -> 'o * int * float) =
    let label = Pplan.node_label p.node and loc = p.loc in
    (* Record the operator, charge its output and release its
       children's charges now that they are consumed. *)
    let finish env ~release ?bytes out fin =
      let card = k.card out in
      let bytes = match bytes with Some b -> b | None -> k.byte_size out in
      record_node ~stats:env.stats ~profile:env.profile ~rpath ~label ~loc ~ship:None ~card
        ~bytes;
      mem_charge env.mem bytes;
      List.iter (mem_release env.mem) release;
      (out, bytes, fin +. (float_of_int card *. row_cost_ms))
    in
    (* [bind] applies the kernel to its children's schemas; the result
       runs with the environment and the bytes charged for its input
       (the build side, for a join). *)
    let unary ?project ?(schema = Fun.id) c bind =
      let cs, cx = comp ?project (0 :: rpath) c in
      let f = bind cs in
      ( schema cs,
        fun env ->
          let o, b, fin = cx env in
          finish env ~release:[ b ] (f env b o) fin )
    in
    (* Right child first: SHIP indices, and with them the per-attempt
       drop fates, follow execution order. *)
    let binary l r bind =
      let ls, lx = comp (0 :: rpath) l and rs, rx = comp (1 :: rpath) r in
      let f = bind ls rs in
      ( ls @ rs,
        fun env ->
          let ro, rb, rfin = rx env in
          let lo, lb, lfin = lx env in
          finish env ~release:[ lb; rb ] (f env rb lo ro) (Float.max lfin rfin) )
    in
    match p.node, p.children with
    | Pplan.Table_scan { table; alias; partition }, [] ->
      let r = Storage.Database.find_exn db ~table ~partition () in
      let schema =
        (* re-qualify the stored schema with the query alias *)
        List.map2
          (fun (_ : Attr.t) c -> Attr.make ~rel:alias ~name:c)
          (Storage.Relation.schema r) (table_cols table)
      in
      let scan = k.scan r schema ~project in
      ( schema,
        fun env ->
          check_replica ~faults:env.faults ~table ~partition ~site:loc;
          let out = scan () in
          (* a paged relation's size comes from its segment footers *)
          finish env ~release:[] ~bytes:(Storage.Relation.byte_size r) out 0. )
    | Pplan.Filter pred, [ c ] -> unary c (fun cs -> pure (k.filter cs pred))
    | Pplan.Project items, [ c ] ->
      let project = match c.node with Pplan.Table_scan _ -> Some items | _ -> None in
      unary ?project ~schema:(fun _ -> List.map snd items) c (fun cs -> pure (k.project cs items))
    | Pplan.Hash_join { keys; residual }, [ l; r ] ->
      binary l r (fun ls rs ->
          let f = k.hash_join ls rs keys residual in
          fun env rb lo ro -> hashed env ~bytes:rb ~can_spill:true (fun mode -> f mode lo ro))
    | Pplan.Merge_join { keys; residual }, [ l; r ] ->
      binary l r (fun ls rs -> pure (k.merge_join ls rs keys residual))
    | Pplan.Nl_join pred, [ l; r ] -> binary l r (fun ls rs -> pure (k.nl_join ls rs pred))
    | Pplan.Hash_agg { keys; aggs }, [ c ] ->
      unary ~schema:(fun _ -> agg_schema keys aggs) c (fun cs ->
          let f = k.hash_agg cs keys aggs in
          (* a global aggregate is one group: nothing worth spilling *)
          fun env b o -> hashed env ~bytes:b ~can_spill:(keys <> []) (fun mode -> f mode o))
    | Pplan.Sort keys, [ c ] -> unary c (fun cs -> pure (k.sort cs keys))
    | Pplan.Union_all, (_ :: _ as children) ->
      let cs = List.mapi (fun i c -> comp (i :: rpath) c) children in
      let schema = fst (List.hd cs) in
      let width = List.length schema in
      if List.exists (fun (s, _) -> List.length s <> width) cs then
        fail "union children of unequal width";
      let f = k.union schema in
      ( schema,
        fun env ->
          (* children left to right *)
          let rec go fin outs bs = function
            | [] -> finish env ~release:(List.rev bs) (f (List.rev outs)) fin
            | (_, cx) :: rest ->
              let o, b, cfin = cx env in
              go (Float.max fin cfin) (o :: outs) (b :: bs) rest
          in
          go 0. [] [] cs )
    | Pplan.Ship { from_loc; to_loc }, [ c ] ->
      let cs, cx = comp (0 :: rpath) c in
      ( cs,
        fun env ->
          let o, b, fin = cx env in
          let card = k.card o in
          let record =
            do_ship ~faults:env.faults ~retry:env.retry ~network:env.network ~stats:env.stats
              ~from_loc ~to_loc ~bytes:b ~rows:card
          in
          record_node ~stats:env.stats ~profile:env.profile ~rpath ~label ~loc
            ~ship:(Some record) ~card ~bytes:b;
          (* memory-wise a SHIP aliases its child: no charge, no
             release — the child's bytes stay live for the parent *)
          (o, b, fin +. record.cost_ms) )
    | node, children ->
      fail "malformed plan: %s with %d children" (Pplan.node_label node)
        (List.length children)
  in
  let schema, exec = comp [] plan in
  { schema; exec; to_rel = k.to_relation schema }

let execute ?(faults = Catalog.Network.Fault.empty) ?(retry = default_retry) ?budget
    ~(network : Catalog.Network.t) (plan : 'o plan) : result =
  let stats = fresh_stats () and profile = ref [] in
  let mem =
    mem_create ~budget:(match budget with Some b -> b | None -> budget_from_env ())
  in
  let env = { faults; retry; network; stats; profile; mem } in
  Fun.protect
    ~finally:(fun () -> mem_finish mem)
    (fun () ->
      let out, _, makespan_ms = Obs.Trace.span "exec.run" (fun () -> plan.exec env) in
      { relation = plan.to_rel out; stats; profile = List.rev !profile; makespan_ms })
