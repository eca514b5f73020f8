(* Grace-style spill-to-disk for hash join and hash aggregation.

   When an execution's memory budget trips ([Runtime.should_spill]),
   hash join and aggregation partition their inputs into an on-disk
   run file instead of building the full hash table in memory, process
   each partition with only its own state resident, and re-emit the
   output in the exact order the in-memory kernel would have produced
   — so results, profiles, SHIP ledgers and EXPLAIN ANALYZE stay
   byte-identical whether or not an operator spilled (locked by the
   qcheck differential in [test/test_exec.ml]).

   Both engines run this one algorithm; an engine supplies only its
   key data (a [side]) and its in-memory kernels. Each spilled
   operator owns one run file under [CGQP_SPILL_DIR] (default: the
   system temp dir), created when it starts and closed and removed on
   every exit path. The file holds one block per non-empty partition
   and side, appended at a remembered offset: the partition's
   ascending logical positions and the side's key data gathered at
   them, written with one [Marshal] call (exact for first-order data,
   float bits included). A join skips a partition that has no build or
   no probe rows, and appends no match block for a partition without
   matches. A partition's resident bytes — its key bytes plus an
   8-byte position per row — are charged while it is processed.

   Order preservation:

   - All rows of one key land in one partition, in ascending logical
     order, so each partition's kernel reproduces its share of the
     in-memory emission exactly.
   - Join: a partition emits each probe row's matches contiguously, in
     reverse build-insertion order, and writes them as logical
     (probe, build) position arrays. Counting the matches per probe
     position, prefix-summing and scattering puts them back in the
     in-memory order in O(n).
   - Agg: each group takes a slot at its first row's logical position
     (a group's rows share its partition and arrive in input order, so
     it folds exactly as in memory); walking the slots gives the
     first-seen order. *)

module Ivec = Runtime.Ivec

type 'k side = {
  rows : int;
  hashes : (int -> int) array;
  gather : int array -> 'k;
  key_bytes : 'k -> int;
}

type 'k block = { pos : int array; keys : 'k }

let whole side =
  let pos = Array.init side.rows Fun.id in
  { pos; keys = side.gather pos }

(* --- the run file --- *)

type run = {
  mem : Runtime.mem;
  path : string;
  oc : out_channel;
  mutable ic : in_channel option;  (* opened on the first read *)
}

(* Run [f] over a fresh run file, closed and removed on every exit
   path. *)
let with_run mem f =
  let dir =
    match Sys.getenv_opt "CGQP_SPILL_DIR" with
    | Some d when String.trim d <> "" -> d
    | _ -> Filename.get_temp_dir_name ()
  in
  let path, oc =
    try Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:dir "cgqp-run-" ""
    with Sys_error e -> Runtime.fail "cannot create a spill run file in %s: %s" dir e
  in
  let run = { mem; path; oc; ic = None } in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Option.iter close_in_noerr run.ic;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f run)

(* Append [v] and return its offset. *)
let write run v =
  let off = pos_out run.oc in
  Marshal.to_channel run.oc v [];
  run.mem.spill_run_bytes <- run.mem.spill_run_bytes + (pos_out run.oc - off);
  off

(* Untyped like [Marshal.from_channel]: each caller annotates the type
   it wrote. *)
let read run off =
  flush run.oc;
  let ic =
    match run.ic with
    | Some ic -> ic
    | None ->
      let ic = open_in_bin run.path in
      run.ic <- Some ic;
      ic
  in
  seek_in ic off;
  Marshal.from_channel ic

(* Grace fan-out: enough partitions that one partition of [bytes]
   plausibly fits in a quarter of the budget, clamped to [2, 64]. *)
let partitions_for (mem : Runtime.mem) ~bytes =
  if mem.budget <= 0 then 64
  else
    let per = max 1 (mem.budget / 4) in
    min 64 (max 2 ((bytes / per) + 1))

(* Start a spilled operator: count it and its fan-out. *)
let begin_op (mem : Runtime.mem) ~bytes =
  let np = partitions_for mem ~bytes in
  mem.spill_ops <- mem.spill_ops + 1;
  mem.spill_parts <- mem.spill_parts + np;
  np

let null_hash = Relalg.Value.hash Relalg.Value.Null

(* Partition [side]'s logical positions by the hash of the boxed key
   ([h * 31 + component hash] from 17, as a row key hashes): partition
   [p]'s ascending positions. With [join], a row with a NULL key
   component is dropped (it never joins); otherwise NULL hashes as
   [Value.hash Null]. *)
let partition side ~np ~join =
  let part = Array.make side.rows (-1) and counts = Array.make np 0 in
  let nk = Array.length side.hashes in
  for j = 0 to side.rows - 1 do
    let h = ref 17 and keep = ref true in
    for k = 0 to nk - 1 do
      let x = (Array.unsafe_get side.hashes k) j in
      if x < 0 then begin
        if join then keep := false;
        h := (!h * 31) + null_hash
      end
      else h := (!h * 31) + x
    done;
    if !keep then begin
      let p = (!h land max_int) mod np in
      part.(j) <- p;
      counts.(p) <- counts.(p) + 1
    end
  done;
  let pos = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make np 0 in
  Array.iteri
    (fun j p ->
      if p >= 0 then begin
        pos.(p).(fill.(p)) <- j;
        fill.(p) <- fill.(p) + 1
      end)
    part;
  pos

let nonempty pos = Array.length pos > 0

let write_block run side pos = write run { pos; keys = side.gather pos }

(* Read back a block and charge it as resident; the caller releases
   the returned byte count. *)
let load (type k) run (side : k side) off =
  let (b : k block) = read run off in
  let resident = side.key_bytes b.keys + (8 * Array.length b.pos) in
  Runtime.mem_charge run.mem resident;
  (b, resident)

let join (type k) mem ~bytes ~kernel (probe : k side) (build : k side) emit =
  let np = begin_op mem ~bytes in
  with_run mem @@ fun run ->
  let bpos = partition build ~np ~join:true and ppos = partition probe ~np ~join:true in
  (* a partition with no build or no probe rows has no matches: it
     writes, reads and charges nothing *)
  let live = List.filter (fun p -> nonempty bpos.(p) && nonempty ppos.(p)) (List.init np Fun.id) in
  let boffs = List.map (fun p -> write_block run build bpos.(p)) live in
  let poffs = List.map (fun p -> write_block run probe ppos.(p)) live in
  let n = probe.rows in
  (* [starts.(l + 1)] counts probe position [l]'s matches, then
     prefix-sums to [starts.(l)] = the index of its first *)
  let starts = Array.make (n + 1) 0 in
  let moffs =
    List.filter_map
      (fun (boff, poff) ->
        let b, resident = load run build boff in
        let (l : k block) = read run poff in
        let ml = Ivec.create () and mr = Ivec.create () in
        kernel l b (fun i j ->
            let lp = l.pos.(i) in
            starts.(lp + 1) <- starts.(lp + 1) + 1;
            Ivec.push ml lp;
            Ivec.push mr b.pos.(j));
        Runtime.mem_release mem resident;
        if Ivec.length ml = 0 then None
        else Some (write run (Ivec.to_array ml, Ivec.to_array mr)))
      (List.combine boffs poffs)
  in
  for l = 1 to n do
    starts.(l) <- starts.(l) + starts.(l - 1)
  done;
  let matched = Array.make starts.(n) 0 and next = Array.sub starts 0 n in
  List.iter
    (fun off ->
      let (ml : int array), (mr : int array) = read run off in
      Array.iteri
        (fun k l ->
          matched.(next.(l)) <- mr.(k);
          next.(l) <- next.(l) + 1)
        ml)
    moffs;
  for l = 0 to n - 1 do
    for x = starts.(l) to starts.(l + 1) - 1 do
      emit l matched.(x)
    done
  done

let agg mem ~bytes ~kernel input =
  let np = begin_op mem ~bytes in
  with_run mem @@ fun run ->
  let pos = partition input ~np ~join:false in
  (* [slot.(l)]: [g * np + p] when position [l] is the first row of
     group [g] of partition [p], else -1; an empty partition writes
     no block and has no groups *)
  let slot = Array.make input.rows (-1) in
  let offs =
    Array.map (fun pos -> if nonempty pos then Some (write_block run input pos) else None) pos
  in
  let parts =
    Array.mapi
      (fun p ->
        Option.map (fun off ->
            let b, resident = load run input off in
            let groups, firsts = kernel b in
            Array.iteri (fun g j -> slot.(b.pos.(j)) <- (g * np) + p) firsts;
            Runtime.mem_release mem resident;
            groups))
      offs
  in
  let order = Ivec.create () in
  Array.iter (fun v -> if v >= 0 then Ivec.push order v) slot;
  Array.map (fun v -> (Option.get parts.(v mod np), v / np)) (Ivec.to_array order)
