(* Reference interpreter for physical plans: a straightforward
   tree-walker, kept as the semantic baseline the vectorized executor
   ([Vector]) is differentially tested against. Executes bottom-up
   against a [Storage.Database.t]; SHIP accounting, retry/backoff,
   profiles and observability all go through the shared [Runtime], so
   both engines produce byte-identical results and stats. *)

open Relalg

(* Re-export the shared scaffolding: [Exec.Interp.Ship_failed] etc.
   remain the same constructors as [Exec.Runtime]'s, so handlers keep
   working whichever engine raised. *)
include Runtime

let run ?(faults = Catalog.Network.Fault.empty) ?(retry = default_retry) ?budget
    ~(network : Catalog.Network.t) ~(db : Storage.Database.t)
    ~(table_cols : string -> string list) (plan : Pplan.t) : result =
  let stats = fresh_stats () in
  let profile = ref [] in
  let mem =
    mem_create
      ~budget:(match budget with Some b -> b | None -> budget_from_env ())
  in
  let spill = Spill.create mem in
  (* completion time of each subtree, for the makespan *)
  let done_at : (Pplan.t, float) Hashtbl.t = Hashtbl.create 64 in
  (* charged output bytes of each subtree, released when the parent
     has consumed (and charged) its own output *)
  let bytes_at : (Pplan.t, int) Hashtbl.t = Hashtbl.create 64 in
  let child_finish p =
    List.fold_left
      (fun acc c -> Float.max acc (try Hashtbl.find done_at c with Not_found -> 0.))
      0. p.Pplan.children
  in
  (* [rpath] is the node's root-to-node child-index path, reversed. *)
  let rec exec (rpath : int list) (p : Pplan.t) : Storage.Relation.t =
    let exec1 c = exec (0 :: rpath) c in
    let exec2 l r =
      (* Right child first: SHIP indices (and with them the
         deterministic per-attempt drop fates) follow execution order.
         This is part of the child-iteration contract every engine must
         honor — see runtime.mli — and asserted by the "ship order
         contract" test in test/test_exec.ml. *)
      let rrel = exec (1 :: rpath) r in
      let lrel = exec (0 :: rpath) l in
      (lrel, rrel)
    in
    let rel =
      match p.Pplan.node, p.Pplan.children with
      | Pplan.Table_scan { table; alias; partition }, [] ->
        check_replica ~faults ~table ~partition ~site:p.Pplan.loc;
        let r = Storage.Database.find_exn db ~table ~partition () in
        let schema =
          (* re-qualify the stored schema with the query alias *)
          List.map2
            (fun (_ : Attr.t) c -> Attr.make ~rel:alias ~name:c)
            (Storage.Relation.schema r) (table_cols table)
        in
        Storage.Relation.make ~schema ~rows:(Storage.Relation.rows r)
      | Pplan.Filter pred, [ c ] ->
        let r = exec1 c in
        let look = Storage.Relation.lookup_fn r in
        let rows =
          Array.of_seq
            (Seq.filter
               (fun row -> Pred.eval (fun a -> look a row) pred)
               (Array.to_seq (Storage.Relation.rows r)))
        in
        Storage.Relation.make ~schema:(Storage.Relation.schema r) ~rows
      | Pplan.Project items, [ c ] ->
        let r = exec1 c in
        let look = Storage.Relation.lookup_fn r in
        let schema = List.map snd items in
        let exprs = Array.of_list (List.map fst items) in
        let rows =
          Array.map
            (fun row -> Array.map (fun e -> Expr.eval (fun a -> look a row) e) exprs)
            (Storage.Relation.rows r)
        in
        Storage.Relation.make ~schema ~rows
      | Pplan.Hash_join { keys; residual }, [ l; r ] ->
        let lrel, rrel = exec2 l r in
        let llook = Storage.Relation.lookup_fn lrel
        and rlook = Storage.Relation.lookup_fn rrel in
        let lkeys = List.map fst keys and rkeys = List.map snd keys in
        let schema = Storage.Relation.schema lrel @ Storage.Relation.schema rrel in
        let out = ref [] in
        let jlook = Storage.Relation.lookup_of_schema schema in
        let keep =
          match residual with
          | Pred.True -> fun _ -> true
          | residual -> fun row -> Pred.eval (fun a -> jlook a row) residual
        in
        let emit lrow rrow =
          let row = Array.append lrow rrow in
          if keep row then out := row :: !out
        in
        (* the in-memory kernel's scratch state is the build-side hash
           table — charge (or spill on) the build side's bytes *)
        let build_bytes = Storage.Relation.byte_size rrel in
        if should_spill mem build_bytes then begin
          let keyf look keys row =
            let k = Array.of_list (List.map (fun a -> look a row) keys) in
            if Array.exists Value.is_null k then None else Some k
          in
          Spill.join spill ~build_bytes ~lkey:(keyf llook lkeys)
            ~rkey:(keyf rlook rkeys) ~emit
            (Storage.Relation.rows lrel)
            (Storage.Relation.rows rrel)
        end
        else begin
          mem_charge mem build_bytes;
          let tbl = Row_tbl.create (max 16 (Storage.Relation.cardinality rrel)) in
          Array.iter
            (fun row ->
              let k = Array.of_list (List.map (fun a -> rlook a row) rkeys) in
              if not (Array.exists Value.is_null k) then Row_tbl.add tbl k row)
            (Storage.Relation.rows rrel);
          Array.iter
            (fun lrow ->
              let k = Array.of_list (List.map (fun a -> llook a lrow) lkeys) in
              if not (Array.exists Value.is_null k) then
                List.iter (fun rrow -> emit lrow rrow) (Row_tbl.find_all tbl k))
            (Storage.Relation.rows lrel);
          mem_release mem build_bytes
        end;
        Storage.Relation.make ~schema ~rows:(Array.of_list (List.rev !out))
      | Pplan.Nl_join pred, [ l; r ] ->
        let lrel, rrel = exec2 l r in
        let schema = Storage.Relation.schema lrel @ Storage.Relation.schema rrel in
        let look = Storage.Relation.lookup_of_schema schema in
        let out = ref [] in
        Array.iter
          (fun lrow ->
            Array.iter
              (fun rrow ->
                let row = Array.append lrow rrow in
                if Pred.eval (fun a -> look a row) pred then out := row :: !out)
              (Storage.Relation.rows rrel))
          (Storage.Relation.rows lrel);
        Storage.Relation.make ~schema ~rows:(Array.of_list (List.rev !out))
      | Pplan.Hash_agg { keys; aggs }, [ c ] ->
        let r = exec1 c in
        let look = Storage.Relation.lookup_fn r in
        let schema =
          keys @ List.map (fun (a : Expr.agg) -> Attr.unqualified a.alias) aggs
        in
        let finish_group k accs =
          Array.append k
            (Array.of_list
               (List.mapi (fun i (a : Expr.agg) -> finish a.fn accs.(i)) aggs))
        in
        let feed_row accs row =
          List.iteri
            (fun i (a : Expr.agg) ->
              feed accs.(i) (Expr.eval (fun at -> look at row) a.arg))
            aggs
        in
        (* the in-memory kernel's scratch is the group table, bounded by
           the input — charge (or spill on) the input's bytes. A global
           aggregate ([keys = []]) has one group and never spills. *)
        let input_bytes = Storage.Relation.byte_size r in
        let rows =
          if keys <> [] && should_spill mem input_bytes then begin
            let out = ref [] in
            Spill.agg spill ~input_bytes
              ~key:(fun row ->
                Array.of_list (List.map (fun a -> look a row) keys))
              ~na:(List.length aggs) ~feed_row
              ~emit_group:(fun k accs -> out := finish_group k accs :: !out)
              (Storage.Relation.rows r);
            Array.of_list (List.rev !out)
          end
          else begin
            mem_charge mem input_bytes;
            let groups : (Value.t array * acc array) Row_tbl.t =
              Row_tbl.create 64
            in
            let order = ref [] in
            Array.iter
              (fun row ->
                let k = Array.of_list (List.map (fun a -> look a row) keys) in
                let _, accs =
                  match Row_tbl.find_opt groups k with
                  | Some e -> e
                  | None ->
                    let e =
                      (k, Array.init (List.length aggs) (fun _ -> fresh_acc ()))
                    in
                    Row_tbl.add groups k e;
                    order := k :: !order;
                    e
                in
                feed_row accs row)
              (Storage.Relation.rows r);
            (* a global aggregate over an empty input still yields one row *)
            if keys = [] && Row_tbl.length groups = 0 then begin
              let e = ([||], Array.init (List.length aggs) (fun _ -> fresh_acc ())) in
              Row_tbl.add groups [||] e;
              order := [||] :: !order
            end;
            let rows =
              List.rev_map
                (fun k ->
                  let _, accs = Row_tbl.find groups k in
                  finish_group k accs)
                !order
              |> Array.of_list
            in
            mem_release mem input_bytes;
            rows
          end
        in
        Storage.Relation.make ~schema ~rows
      | Pplan.Sort keys, [ c ] ->
        let r = exec1 c in
        Storage.Relation.order_by r keys
      | Pplan.Merge_join { keys; residual }, [ l; r ] ->
        (* inputs arrive sorted ascending on their key columns *)
        let lrel, rrel = exec2 l r in
        let llook = Storage.Relation.lookup_fn lrel
        and rlook = Storage.Relation.lookup_fn rrel in
        let lkeys = List.map fst keys and rkeys = List.map snd keys in
        let lrows = Storage.Relation.rows lrel and rrows = Storage.Relation.rows rrel in
        let keyl row = List.map (fun a -> llook a row) lkeys in
        let keyr row = List.map (fun a -> rlook a row) rkeys in
        let schema = Storage.Relation.schema lrel @ Storage.Relation.schema rrel in
        let jlook = Storage.Relation.lookup_of_schema schema in
        let keep =
          match residual with
          | Pred.True -> fun _ -> true
          | residual -> fun row -> Pred.eval (fun a -> jlook a row) residual
        in
        let out = ref [] in
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
              while
                !j2 < nr && List.compare Value.compare kl (keyr rrows.(!j2)) = 0
              do
                incr j2
              done;
              (* emit pairs for every left row sharing this key *)
              let i2 = ref !i in
              while !i2 < nl && List.compare Value.compare (keyl lrows.(!i2)) kl = 0 do
                for jj = !j to !j2 - 1 do
                  let row = Array.append lrows.(!i2) rrows.(jj) in
                  if keep row then out := row :: !out
                done;
                incr i2
              done;
              i := !i2;
              j := !j2
            end
          end
        done;
        Storage.Relation.make ~schema ~rows:(Array.of_list (List.rev !out))
      | Pplan.Union_all, (_ :: _ as children) ->
        (* children left-to-right, explicitly (ship-order determinism) *)
        let rec exec_children i = function
          | [] -> []
          | c :: rest ->
            let r = exec (i :: rpath) c in
            r :: exec_children (i + 1) rest
        in
        let rels = exec_children 0 children in
        let schema = Storage.Relation.schema (List.hd rels) in
        let rows = Array.concat (List.map Storage.Relation.rows rels) in
        Storage.Relation.make ~schema ~rows
      | Pplan.Ship { from_loc; to_loc }, [ c ] ->
        let r = exec1 c in
        let bytes = Storage.Relation.byte_size r in
        let (_ : ship_record) =
          do_ship ~faults ~retry ~network ~stats ~from_loc ~to_loc ~bytes
            ~rows:(Storage.Relation.cardinality r)
        in
        r
      | node, children ->
        fail "malformed plan: %s with %d children" (Pplan.node_label node)
          (List.length children)
    in
    let card = Storage.Relation.cardinality rel in
    let bytes = Storage.Relation.byte_size rel in
    let ship =
      match p.Pplan.node with
      | Pplan.Ship _ -> ( match stats.ships with s :: _ -> Some s | [] -> None)
      | _ -> None
    in
    record_node ~stats ~profile ~rpath ~label:(Pplan.node_label p.Pplan.node)
      ~loc:p.Pplan.loc ~ship ~card ~bytes;
    (* Budget account: charge this operator's materialized output and
       release the children's now that they are consumed. A SHIP is an
       alias of its child (no new materialization): charge nothing,
       keep the child's charge live under this node's entry. *)
    (match p.Pplan.node with
    | Pplan.Ship _ -> ()
    | _ ->
      mem_charge mem bytes;
      List.iter
        (fun c ->
          match Hashtbl.find_opt bytes_at c with
          | Some b -> mem_release mem b
          | None -> ())
        p.Pplan.children);
    Hashtbl.replace bytes_at p bytes;
    let own_time =
      match p.Pplan.node with
      | Pplan.Ship _ ->
        (* the transfer cost was just recorded as the head of ships *)
        (match stats.ships with s :: _ -> s.cost_ms | [] -> 0.)
      | _ -> float_of_int card *. row_cost_ms
    in
    Hashtbl.replace done_at p (child_finish p +. own_time);
    rel
  in
  let relation =
    Fun.protect
      ~finally:(fun () ->
        Spill.cleanup spill;
        mem_finish mem)
      (fun () -> Obs.Trace.span "exec.run" (fun () -> exec [] plan))
  in
  { relation; stats; profile = List.rev !profile;
    makespan_ms = (try Hashtbl.find done_at plan with Not_found -> 0.) }
