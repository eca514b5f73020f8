(* Reference interpreter for physical plans: the semantic baseline the
   vectorized executor ([Vector]) is differentially tested against.
   Its kernels work row by row over plain boxed row arrays: a scan
   builds a stored relation's row view, and the root's rows become the
   result relation through [Relation.make]. The plan walk, SHIP
   accounting, retry/backoff, profiles, the memory account and
   observability are [Runtime]'s, shared with [Vector], so both engines
   produce byte-identical results and stats. Its hash
   join and aggregation kernels key boxed rows through one [Row_tbl],
   run over the whole input in memory and per partition under the
   Grace spill driver ([Spill]). *)

open Relalg

(* Re-export the shared scaffolding: [Exec.Interp.Ship_failed] etc.
   remain the same constructors as [Exec.Runtime]'s, so handlers keep
   working whichever engine raised. *)
include Runtime

module R = Storage.Relation

type rows = Value.t array array

(* Serialized size: the [Value.byte_width] sum a SHIP charges. *)
let rows_bytes : rows -> int =
  Array.fold_left (Array.fold_left (fun n v -> n + Value.byte_width v)) 0

(* A join's output rows, with [residual] tested on each candidate. *)
let join_out ls rs residual =
  let keep =
    match residual with
    | Pred.True -> fun _ -> true
    | residual ->
      let look = R.lookup_of_schema (ls @ rs) in
      fun row -> Pred.eval (fun a -> look a row) residual
  in
  let out = ref [] in
  let emit lrow rrow =
    let row = Array.append lrow rrow in
    if keep row then out := row :: !out
  in
  (emit, fun () -> Array.of_list (List.rev !out))

(* --- boxed row keys: the hash kernels' key data, in memory and spilled --- *)

module Row_key = struct
  type t = Value.t array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b
  let hash a = Array.fold_left (fun h v -> (h * 31) + Value.hash v) 17 a
end

module Row_tbl = Hashtbl.Make (Row_key)

let key_of look keys row = Array.of_list (List.map (fun a -> look a row) keys)

(* Rows' [keys] as a spill side: one boxed key tuple per row. *)
let key_side look keys rows : Row_key.t array Spill.side =
  {
    rows = Array.length rows;
    hashes =
      Array.of_list
        (List.map
           (fun a j -> match look a rows.(j) with Value.Null -> -1 | v -> Value.hash v)
           keys);
    gather = Array.map (fun j -> key_of look keys rows.(j));
    key_bytes = rows_bytes;
  }

(* Build a table on the build block's keys and probe it with the probe
   block's: [find_all] yields each probe row's matches in reverse
   insertion order. A key with a NULL component never joins. *)
let join_pairs (probe : Row_key.t array Spill.block) (build : Row_key.t array Spill.block)
    emit =
  let tbl = Row_tbl.create (max 16 (Array.length build.keys)) in
  let has_null = Array.exists Value.is_null in
  Array.iteri (fun j k -> if not (has_null k) then Row_tbl.add tbl k j) build.keys;
  Array.iteri
    (fun i k -> if not (has_null k) then List.iter (emit i) (Row_tbl.find_all tbl k))
    probe.keys

let hash_join ls rs keys residual mode (lrows : rows) (rrows : rows) =
  let probe = key_side (R.lookup_of_schema ls) (List.map fst keys) lrows
  and build = key_side (R.lookup_of_schema rs) (List.map snd keys) rrows in
  let emit, result = join_out ls rs residual in
  let emit i j = emit lrows.(i) rrows.(j) in
  (match mode with
  | Spilled { mem; bytes } -> Spill.join mem ~bytes ~kernel:join_pairs probe build emit
  | In_memory -> join_pairs (Spill.whole probe) (Spill.whole build) emit);
  result ()

(* Inputs arrive sorted ascending on their key columns. *)
let merge_join ls rs keys residual (lrows : rows) (rrows : rows) =
  let llook = R.lookup_of_schema ls and rlook = R.lookup_of_schema rs in
  let lkeys = List.map fst keys and rkeys = List.map snd keys in
  let keyl row = List.map (fun a -> llook a row) lkeys in
  let keyr row = List.map (fun a -> rlook a row) rkeys in
  let emit, result = join_out ls rs residual in
  let nl = Array.length lrows and nr = Array.length rrows in
  let j = ref 0 in
  let i = ref 0 in
  while !i < nl && !j < nr do
    let kl = keyl lrows.(!i) in
    if List.exists Value.is_null kl then incr i
    else begin
      let c = List.compare Value.compare kl (keyr rrows.(!j)) in
      if c < 0 then incr i
      else if c > 0 then incr j
      else begin
        (* find the run of equal right keys *)
        let j2 = ref !j in
        while !j2 < nr && List.compare Value.compare kl (keyr rrows.(!j2)) = 0 do
          incr j2
        done;
        (* emit pairs for every left row sharing this key *)
        let i2 = ref !i in
        while !i2 < nl && List.compare Value.compare (keyl lrows.(!i2)) kl = 0 do
          for jj = !j to !j2 - 1 do
            emit lrows.(!i2) rrows.(jj)
          done;
          incr i2
        done;
        i := !i2;
        j := !j2
      end
    end
  done;
  result ()

let nl_join ls rs pred (lrows : rows) (rrows : rows) =
  let emit, result = join_out ls rs pred in
  Array.iter (fun lrow -> Array.iter (fun rrow -> emit lrow rrow) rrows) lrows;
  result ()

(* Group a block's rows by key in first-seen order, feeding each
   group's accumulators its rows ([rows.(pos)]) in order: the groups
   (key, accumulators) and each one's first block index. *)
let group_rows ~na ~feed_row rows ({ pos; keys } : Row_key.t array Spill.block) =
  let tbl = Row_tbl.create 64 and groups = ref [] and firsts = Ivec.create () in
  Array.iteri
    (fun j k ->
      let accs =
        match Row_tbl.find_opt tbl k with
        | Some accs -> accs
        | None ->
          let accs = Array.init na (fun _ -> fresh_acc ()) in
          Row_tbl.add tbl k accs;
          groups := (k, accs) :: !groups;
          Ivec.push firsts j;
          accs
      in
      feed_row accs rows.(pos.(j)))
    keys;
  (Array.of_list (List.rev !groups), Ivec.to_array firsts)

let hash_agg schema keys (aggs : Expr.agg list) mode (rows : rows) =
  let look = R.lookup_of_schema schema in
  let na = List.length aggs in
  let feed_row accs row =
    List.iteri
      (fun i (a : Expr.agg) -> feed accs.(i) (Expr.eval (fun at -> look at row) a.arg))
      aggs
  in
  let finish_group (k, accs) =
    Array.append k (Array.of_list (List.mapi (fun i (a : Expr.agg) -> finish a.fn accs.(i)) aggs))
  in
  let kernel = group_rows ~na ~feed_row rows and input = key_side look keys rows in
  let groups =
    match mode with
    | Spilled { mem; bytes } ->
      Array.map (fun (gs, g) -> gs.(g)) (Spill.agg mem ~bytes ~kernel input)
    | In_memory -> fst (kernel (Spill.whole input))
  in
  (* a global aggregate over an empty input still yields one row *)
  let groups =
    if keys = [] && Array.length groups = 0 then [| ([||], Array.init na (fun _ -> fresh_acc ())) |]
    else groups
  in
  Array.map finish_group groups

(* A stable sort by (attribute, descending?) keys, positions resolved
   once: an unknown attribute reads NULL on every row, so it never
   orders. *)
let sort schema keys =
  let rv = R.resolver schema in
  let kix =
    List.filter_map (fun (a, desc) -> Option.map (fun ix -> (ix, desc)) (R.resolve rv a)) keys
  in
  let cmp (r1 : Value.t array) r2 =
    let rec go = function
      | [] -> 0
      | (ix, desc) :: rest ->
        let c = Value.compare r1.(ix) r2.(ix) in
        if c <> 0 then if desc then -c else c else go rest
    in
    go kix
  in
  fun (rows : rows) ->
    let rows = Array.copy rows in
    Array.stable_sort cmp rows;
    rows

let kernels : rows kernels =
  {
    (* a stored table is columnar: its row view is built here, at each scan *)
    scan = (fun r _ ~project:_ () -> R.rows r);
    filter =
      (fun schema pred ->
        let look = R.lookup_of_schema schema in
        fun rows ->
          Array.of_seq
            (Seq.filter (fun row -> Pred.eval (fun a -> look a row) pred) (Array.to_seq rows)));
    project =
      (fun schema items ->
        let look = R.lookup_of_schema schema in
        let exprs = Array.of_list (List.map fst items) in
        Array.map (fun row -> Array.map (fun e -> Expr.eval (fun a -> look a row) e) exprs));
    hash_join;
    merge_join;
    nl_join;
    hash_agg;
    sort;
    union = (fun _ parts -> Array.concat parts);
    card = Array.length;
    byte_size = rows_bytes;
    to_relation = (fun schema rows -> R.make ~schema ~rows);
  }

let run ?faults ?retry ?budget ~network ~db ~table_cols plan =
  execute ?faults ?retry ?budget ~network (compile kernels ~db ~table_cols plan)
