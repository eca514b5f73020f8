(* Reference interpreter for physical plans: the semantic baseline the
   vectorized executor ([Vector]) is differentially tested against.
   Its kernels work row by row over boxed [Storage.Relation.t]s; the
   plan walk, SHIP accounting, retry/backoff, profiles, the memory
   account and observability are [Runtime]'s, shared with [Vector], so
   both engines produce byte-identical results and stats. *)

open Relalg

(* Re-export the shared scaffolding: [Exec.Interp.Ship_failed] etc.
   remain the same constructors as [Exec.Runtime]'s, so handlers keep
   working whichever engine raised. *)
include Runtime

module R = Storage.Relation

(* A join's output rows, with [residual] tested on each candidate. *)
let join_out ls rs residual =
  let schema = ls @ rs in
  let keep =
    match residual with
    | Pred.True -> fun _ -> true
    | residual ->
      let look = R.lookup_of_schema schema in
      fun row -> Pred.eval (fun a -> look a row) residual
  in
  let out = ref [] in
  let emit lrow rrow =
    let row = Array.append lrow rrow in
    if keep row then out := row :: !out
  in
  (emit, fun () -> R.make ~schema ~rows:(Array.of_list (List.rev !out)))

let key_of look keys row = Array.of_list (List.map (fun a -> look a row) keys)

let hash_join ls rs keys residual mode lrel rrel =
  let llook = R.lookup_of_schema ls and rlook = R.lookup_of_schema rs in
  let lkeys = List.map fst keys and rkeys = List.map snd keys in
  let emit, result = join_out ls rs residual in
  (match mode with
  | Spilled { mem; bytes } ->
    let keyf look keys row =
      let k = key_of look keys row in
      if Array.exists Value.is_null k then None else Some k
    in
    Spill.join mem ~build_bytes:bytes ~lkey:(keyf llook lkeys) ~rkey:(keyf rlook rkeys) ~emit
      (R.rows lrel) (R.rows rrel)
  | In_memory ->
    let tbl = Row_tbl.create (max 16 (R.cardinality rrel)) in
    Array.iter
      (fun row ->
        let k = key_of rlook rkeys row in
        if not (Array.exists Value.is_null k) then Row_tbl.add tbl k row)
      (R.rows rrel);
    Array.iter
      (fun lrow ->
        let k = key_of llook lkeys lrow in
        if not (Array.exists Value.is_null k) then
          List.iter (fun rrow -> emit lrow rrow) (Row_tbl.find_all tbl k))
      (R.rows lrel));
  result ()

(* Inputs arrive sorted ascending on their key columns. *)
let merge_join ls rs keys residual lrel rrel =
  let llook = R.lookup_of_schema ls and rlook = R.lookup_of_schema rs in
  let lkeys = List.map fst keys and rkeys = List.map snd keys in
  let lrows = R.rows lrel and rrows = R.rows rrel in
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

let nl_join ls rs pred lrel rrel =
  let emit, result = join_out ls rs pred in
  Array.iter (fun lrow -> Array.iter (fun rrow -> emit lrow rrow) (R.rows rrel)) (R.rows lrel);
  result ()

let hash_agg schema keys (aggs : Expr.agg list) mode r =
  let look = R.lookup_of_schema schema in
  let na = List.length aggs in
  let finish_group k accs =
    Array.append k (Array.of_list (List.mapi (fun i (a : Expr.agg) -> finish a.fn accs.(i)) aggs))
  in
  let feed_row accs row =
    List.iteri
      (fun i (a : Expr.agg) -> feed accs.(i) (Expr.eval (fun at -> look at row) a.arg))
      aggs
  in
  let rows =
    match mode with
    | Spilled { mem; bytes } ->
      let out = ref [] in
      Spill.agg mem ~input_bytes:bytes ~key:(key_of look keys) ~na ~feed_row
        ~emit_group:(fun k accs -> out := finish_group k accs :: !out)
        (R.rows r);
      Array.of_list (List.rev !out)
    | In_memory ->
      let groups : (Value.t array * acc array) Row_tbl.t = Row_tbl.create 64 in
      let order = ref [] in
      let group k =
        match Row_tbl.find_opt groups k with
        | Some (_, accs) -> accs
        | None ->
          let accs = Array.init na (fun _ -> fresh_acc ()) in
          Row_tbl.add groups k (k, accs);
          order := k :: !order;
          accs
      in
      Array.iter (fun row -> feed_row (group (key_of look keys row)) row) (R.rows r);
      (* a global aggregate over an empty input still yields one row *)
      if keys = [] && Row_tbl.length groups = 0 then ignore (group [||]);
      List.rev_map (fun k -> finish_group k (snd (Row_tbl.find groups k))) !order |> Array.of_list
  in
  R.make ~schema:(agg_schema keys aggs) ~rows

let kernels : R.t kernels =
  {
    scan = (fun r schema ~project:_ () -> R.make ~schema ~rows:(R.rows r));
    filter =
      (fun schema pred ->
        let look = R.lookup_of_schema schema in
        fun r ->
          R.make ~schema
            ~rows:
              (Array.of_seq
                 (Seq.filter
                    (fun row -> Pred.eval (fun a -> look a row) pred)
                    (Array.to_seq (R.rows r)))));
    project =
      (fun schema items ->
        let look = R.lookup_of_schema schema in
        let exprs = Array.of_list (List.map fst items) in
        fun r ->
          R.make ~schema:(List.map snd items)
            ~rows:
              (Array.map
                 (fun row -> Array.map (fun e -> Expr.eval (fun a -> look a row) e) exprs)
                 (R.rows r)));
    hash_join;
    merge_join;
    nl_join;
    hash_agg;
    sort = (fun _ keys r -> R.order_by r keys);
    union = (fun schema rels -> R.make ~schema ~rows:(Array.concat (List.map R.rows rels)));
    card = R.cardinality;
    byte_size = R.byte_size;
    to_relation = (fun _ r -> r);
  }

let run ?faults ?retry ?budget ~network ~db ~table_cols plan =
  execute ?faults ?retry ?budget ~network (compile kernels ~db ~table_cols plan)
