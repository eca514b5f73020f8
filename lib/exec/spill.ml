(* Grace-style spill-to-disk for hash join and hash aggregation.

   When an execution's memory budget trips ([Runtime.should_spill]),
   hash join and aggregation partition their inputs into on-disk run
   files instead of building the full hash table in memory, process
   each partition with only its own state resident, and re-emit the
   output in the exact order the in-memory kernel would have produced
   — so results, profiles, SHIP ledgers and EXPLAIN ANALYZE stay
   byte-identical whether or not an operator spilled (locked by the
   qcheck differential in [test/test_exec.ml]).

   This module counts spilled operators and owns the run-file format;
   the run files live in the execution's directory
   ([Runtime.run_dir]). [Vector] partitions typed key columns itself and writes one
   block per partition ([begin_op], [write_block], [read_block]).
   [join] and [agg] below are [Interp]'s row implementation: rows are
   hash-partitioned by [Runtime.Row_key.hash], one [Marshal] record
   per row.

   Order preservation in the row implementation, the part worth being
   careful about:

   - All rows of one key land in one partition, in their original
     relative order. A partition's hash table therefore answers
     [find_all] with exactly the list the in-memory table would
     (reverse insertion order per key).
   - Join: probe rows are partitioned tagged with their global input
     index [gi]; per-partition match lists are written to run files
     and a final k-way merge replays them in ascending [gi] — the
     in-memory probe order. ([gi] is unique across partitions, so the
     merge has no ties.)
   - Agg: groups accumulate per partition (feeding each group its rows
     in input order, so non-commutative float rounding is preserved),
     are run-filed tagged with the group's first-seen input index, and
     merge back in ascending first-seen order — the in-memory
     emission order.

   Run files use [Marshal] (exact for the first-order [Value.t],
   accumulator and column records, including float bits). *)

open Relalg

(* --- run-file plumbing --- *)

let marshal_to oc v = Marshal.to_channel oc v []

let read_next (ic : in_channel) : 'a option =
  match Marshal.from_channel ic with
  | v -> Some v
  | exception End_of_file -> None

let row_bytes (row : Value.t array) =
  Array.fold_left (fun a v -> a + Value.byte_width v) 0 row

let remove_quiet p = try Sys.remove p with Sys_error _ -> ()

(* Start a spilled operator: bump counters, lay out per-partition run
   file paths. *)
let begin_op (mem : Runtime.mem) ~bytes =
  let np = Runtime.spill_partitions_for mem ~bytes in
  let seq = mem.spill_ops in
  mem.spill_ops <- seq + 1;
  mem.spill_parts <- mem.spill_parts + np;
  let dir = Runtime.run_dir mem in
  let path kind p = Filename.concat dir (Printf.sprintf "op%d-%s%d.run" seq kind p) in
  (np, path)

let part np (k : Value.t array) = Runtime.Row_key.hash k land max_int mod np

(* --- typed blocks --- *)

let write_block (mem : Runtime.mem) path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      marshal_to oc v;
      mem.spill_run_bytes <- mem.spill_run_bytes + pos_out oc;
      close_out oc)

let read_block path =
  let ic = open_in_bin path in
  let v = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Marshal.from_channel ic) in
  remove_quiet path;
  v

let close_outs (mem : Runtime.mem) ocs =
  Array.iter
    (fun oc ->
      mem.spill_run_bytes <- mem.spill_run_bytes + pos_out oc;
      close_out oc)
    ocs

(* --- spilling hash join --- *)

(* [lkey]/[rkey] box a row's join key, [None] if any component is NULL
   (such rows never join, and are dropped during partitioning exactly
   as the in-memory build/probe drops them). [emit] receives (left
   row, build-table match) pairs in the same sequence the in-memory
   kernel produces: probe rows in input order, matches per probe row
   in the build table's reverse-insertion order. *)
let join mem ~build_bytes ~lkey ~rkey ~emit (lrows : Value.t array array)
    (rrows : Value.t array array) =
  let np, path = begin_op mem ~bytes:build_bytes in
  (* phase 1: partition the build side, and the probe side tagged with
     the global probe index *)
  let bpaths = Array.init np (path "b") and ppaths = Array.init np (path "p") in
  let bocs = Array.map open_out_bin bpaths in
  Array.iter
    (fun row ->
      match rkey row with
      | None -> ()
      | Some k -> marshal_to bocs.(part np k) (k, row))
    rrows;
  close_outs mem bocs;
  let pocs = Array.map open_out_bin ppaths in
  Array.iteri
    (fun gi row ->
      match lkey row with
      | None -> ()
      | Some k -> marshal_to pocs.(part np k) (gi, k, row))
    lrows;
  close_outs mem pocs;
  (* phase 2: per partition, build a table over only that partition's
     build rows, probe, and run-file the match lists *)
  let mpaths = Array.init np (path "m") in
  for p = 0 to np - 1 do
    let tbl = Runtime.Row_tbl.create 256 in
    let resident = ref 0 in
    let bic = open_in_bin bpaths.(p) in
    let rec load () =
      match read_next bic with
      | None -> ()
      | Some ((k : Value.t array), (row : Value.t array)) ->
        Runtime.Row_tbl.add tbl k row;
        resident := !resident + row_bytes row;
        load ()
    in
    load ();
    close_in bic;
    Runtime.mem_charge mem !resident;
    let pic = open_in_bin ppaths.(p) and moc = open_out_bin mpaths.(p) in
    let rec probe () =
      match read_next pic with
      | None -> ()
      | Some ((gi : int), (k : Value.t array), (row : Value.t array)) ->
        (match Runtime.Row_tbl.find_all tbl k with
        | [] -> ()
        | ms -> marshal_to moc (gi, row, ms));
        probe ()
    in
    probe ();
    close_in pic;
    close_outs mem [| moc |];
    Runtime.mem_release mem !resident;
    remove_quiet bpaths.(p);
    remove_quiet ppaths.(p)
  done;
  (* phase 3: k-way merge of the match files by ascending probe index
     (unique across partitions — no ties) *)
  let mics = Array.map open_in_bin mpaths in
  let heads :
      (int * Value.t array * Value.t array list) option array =
    Array.map read_next mics
  in
  let rec merge () =
    let best = ref (-1) in
    Array.iteri
      (fun j h ->
        match h with
        | Some (gi, _, _) ->
          if
            !best < 0
            ||
            match heads.(!best) with
            | Some (bgi, _, _) -> gi < bgi
            | None -> true
          then best := j
        | None -> ())
      heads;
    if !best >= 0 then begin
      (match heads.(!best) with
      | Some (_, lrow, ms) -> List.iter (fun rrow -> emit lrow rrow) ms
      | None -> assert false);
      heads.(!best) <- read_next mics.(!best);
      merge ()
    end
  in
  merge ();
  Array.iter close_in mics;
  Array.iter remove_quiet mpaths

(* --- spilling hash aggregation --- *)

(* [key] boxes a row's group key (NULL components are legal group
   values). [feed_row accs row] folds one row into a group's
   accumulators; [emit_group k accs] is called per group in first-seen
   input order — exactly the in-memory kernel's emission order. *)
let agg mem ~input_bytes ~key ~na ~feed_row ~emit_group
    (rows : Value.t array array) =
  let np, path = begin_op mem ~bytes:input_bytes in
  (* phase 1: partition the input tagged with the global row index *)
  let ppaths = Array.init np (path "p") in
  let pocs = Array.map open_out_bin ppaths in
  Array.iteri
    (fun gi row ->
      let k = key row in
      marshal_to pocs.(part np k) (gi, k, row))
    rows;
  close_outs mem pocs;
  (* phase 2: accumulate per partition (rows arrive in input order, so
     per-group accumulation order is preserved), then run-file each
     group tagged with its first-seen index *)
  let gpaths = Array.init np (path "g") in
  for p = 0 to np - 1 do
    let tbl : (int * Runtime.acc array) Runtime.Row_tbl.t =
      Runtime.Row_tbl.create 256
    in
    let order = ref [] in
    let resident = ref 0 in
    let pic = open_in_bin ppaths.(p) in
    let rec load () =
      match read_next pic with
      | None -> ()
      | Some ((gi : int), (k : Value.t array), (row : Value.t array)) ->
        Runtime.mem_charge mem (row_bytes row);
        resident := !resident + row_bytes row;
        (match Runtime.Row_tbl.find_opt tbl k with
        | Some (_, accs) -> feed_row accs row
        | None ->
          let accs = Array.init na (fun _ -> Runtime.fresh_acc ()) in
          Runtime.Row_tbl.add tbl k (gi, accs);
          order := (gi, k, accs) :: !order;
          feed_row accs row);
        load ()
    in
    load ();
    close_in pic;
    let goc = open_out_bin gpaths.(p) in
    List.iter (fun g -> marshal_to goc g) (List.rev !order);
    close_outs mem [| goc |];
    Runtime.mem_release mem !resident;
    remove_quiet ppaths.(p)
  done;
  (* phase 3: merge groups back in ascending first-seen index *)
  let gics = Array.map open_in_bin gpaths in
  let heads : (int * Value.t array * Runtime.acc array) option array =
    Array.map read_next gics
  in
  let rec merge () =
    let best = ref (-1) in
    Array.iteri
      (fun j h ->
        match h with
        | Some (gi, _, _) ->
          if
            !best < 0
            ||
            match heads.(!best) with
            | Some (bgi, _, _) -> gi < bgi
            | None -> true
          then best := j
        | None -> ())
      heads;
    if !best >= 0 then begin
      (match heads.(!best) with
      | Some (_, k, accs) -> emit_group k accs
      | None -> assert false);
      heads.(!best) <- read_next gics.(!best);
      merge ()
    end
  in
  merge ();
  Array.iter close_in gics;
  Array.iter remove_quiet gpaths
