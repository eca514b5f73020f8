(* One benchmark for the whole pipeline: four workloads, wall-clock
   statement metrics, and a traced per-layer breakdown. See README.md.

     suite.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]
         one run of one workload in this process; the last line of
         stdout is {"correct", "attempted", "failed", "metrics"}
     suite.exe run [--seed N] [--runs R] [--seconds S] [--trace] [--smoke]
                   [--out FILE]
         R cycles over the four workloads, one child process per
         workload per cycle (every CGQP_* variable removed), then one
         traced child per workload with --trace; prints every metric
         and writes one JSON result (default .bench-suite/result.json)
     suite.exe summarize FILE
         median and quartiles per (workload, metric) of a result
     suite.exe compare OLD NEW [--out FILE]
         applies the bounds in ./BENCHMARK.json to two results, one row
         per workload; exits 1 on a regression

   Files go under .bench-suite/ in the working directory: scratch space
   for segments and spill runs (removed after each run), traced runs'
   spans as JSON lines, and results. *)

module Json = Obs.Json

let out_dir = ".bench-suite"
let default_seconds = 25
let default_seed = 2026

(* Metric names and units, as BENCHMARK.json lists them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("stmts_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("sqlfront.parse_ms", "ms");
    ("sqlfront.bind_ms", "ms");
    ("sqlfront.template_ms", "ms");
    ("plan_cache.lookup_ms", "ms");
    ("plan_cache.hit_rate", "ratio");
    ("plan_cache.template_hit_rate", "ratio");
    ("plan_cache.invalidations", "count");
    ("plan_cache.evictions", "count");
    ("optimizer.normalize_ms", "ms");
    ("optimizer.phase1_ms", "ms");
    ("optimizer.phase2_ms", "ms");
    ("optimizer.certify_ms", "ms");
    ("optimizer.runs_per_stmt", "count");
    ("optimizer.memo_groups", "count");
    ("optimizer.pruned", "count");
    ("policy.eta", "count");
    ("policy.implication_tests", "count");
    ("policy.eval_cache_hit_rate", "ratio");
    ("policy.impl_cache_hit_rate", "ratio");
    ("policy.rejected_frac", "ratio");
    ("exec.run_ms", "ms");
    ("exec.rows_processed", "count");
    ("exec.mrows_per_s", "Mrows/s");
    ("exec.ships", "count");
    ("exec.ship_kb", "KB");
    ("exec.peak_tracked_mb", "MB");
    ("exec.spill_ops", "count");
    ("exec.spill_partitions", "count");
    ("exec.spill_run_mb", "MB");
    ("storage.page_reads", "count");
    ("storage.decoded_mb", "MB");
    ("storage.load_s", "s");
    ("storage.segment_write_s", "s");
    ("sim.ship_ms", "sim_ms");
    ("sim.latency_p95_ms", "sim_ms");
    ("service.overhead_frac", "ratio");
    ("trace.unattributed_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

let workloads = [ "tpch-resident"; "adhoc-compile"; "paged-spill"; "serve-churn" ]

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("suite: " ^ m);
      exit 2)
    fmt

let mkdir_p d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let num = function Json.Num f -> f | _ -> nan
let field name j = Option.value (Json.member name j) ~default:Json.Null

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all |> Json.of_string with
  | Ok j -> j
  | Error m -> die "%s: %s" path m
  | exception Sys_error m -> die "%s" m

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* One run of one workload *)

let drive ~workload ~seed ~seconds ~trace ~smoke =
  if not (List.mem workload workloads) then
    die "unknown workload %S (one of: %s)" workload (String.concat ", " workloads);
  mkdir_p out_dir;
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  let r, spans =
    Workloads.run ~name:workload ~trace
      { Workloads.seed; window = float_of_int seconds; smoke; tmp }
  in
  Option.iter
    (fun sp ->
      Spans.write_jsonl sp
        (Filename.concat out_dir (Printf.sprintf "trace-%s.jsonl" workload)))
    spans;
  List.iter (fun (k, v) -> Printf.printf "info %s %s\n" k v) r.Workloads.info;
  List.iteri (fun i e -> if i < 20 then Printf.printf "error: %s\n" e) r.Workloads.errors;
  let table = if trace then per_layer else end_to_end in
  if List.map fst r.Workloads.metrics <> List.map fst table then
    die "%s reported metrics other than the %s table" workload
      (if trace then "per-layer" else "end-to-end");
  let correct = r.Workloads.errors = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int r.Workloads.attempted));
            ("failed", Json.Num (float_of_int r.Workloads.failed));
            ( "metrics",
              Json.Obj
                (List.map2
                   (fun (name, v) (_, u) ->
                     (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                   r.Workloads.metrics table) );
          ]));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Statistics over a set of runs *)

(* Python's statistics.quantiles(values, n=4), the 'exclusive' method *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* (metric, unit, values) over a workload's runs, in table order *)
let metric_values runs =
  match runs with
  | [] -> []
  | r0 :: _ ->
    let names =
      match field "metrics" r0 with Json.Obj kvs -> List.map fst kvs | _ -> []
    in
    List.map
      (fun name ->
        let m r = field name (field "metrics" r) in
        let unit_ = match field "unit" (m r0) with Json.Str u -> u | _ -> "" in
        (name, unit_, List.map (fun r -> num (field "value" (m r))) runs))
      names

let runs_of result w =
  match field "runs" (field w (field "workloads" result)) with
  | Json.Arr rs -> rs
  | _ -> []

let print_summary runs =
  List.iter
    (fun (name, u, vs) ->
      let q1, med, q3 = quartiles vs in
      Printf.printf "  %-30s %14.6g %-8s [%.6g .. %.6g]  n=%d\n" name med u q1 q3
        (List.length vs))
    (metric_values runs)

(* ------------------------------------------------------------------ *)
(* run: a set of runs in child processes *)

let hermetic_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"CGQP_" kv))
       (Array.to_list (Unix.environment ())))

(* Run one child to completion; returns its exit status and stdout lines. *)
let child args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) (hermetic_env ())
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, List.filter (( <> ) "") (String.split_on_char '\n' out))

let git_commit () =
  try
    let ((out, inp, err) as proc) =
      Unix.open_process_args_full "git"
        [| "git"; "rev-parse"; "--short=12"; "HEAD" |]
        (Unix.environment ())
    in
    close_out inp;
    let line = try input_line out with End_of_file -> "" in
    ignore (In_channel.input_all err);
    match Unix.close_process_full proc with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let run_set ~seed ~runs ~seconds ~trace ~smoke ~out =
  let info = Hashtbl.create 8 in
  let failures = ref 0 in
  let one w ~traced =
    let args =
      [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
        "--trace"; (if traced then "1" else "0") ]
      @ if smoke then [ "--smoke" ] else []
    in
    let status, lines = child args in
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "info"; k; v ] -> Hashtbl.replace info k v
        | _ -> if String.starts_with ~prefix:"error:" l then Printf.printf "  %s: %s\n" w l)
      lines;
    let result =
      match List.rev lines with
      | last :: _ -> ( match Json.of_string last with Ok j -> Some j | Error _ -> None)
      | [] -> None
    in
    let ok =
      status = Unix.WEXITED 0
      && match result with Some j -> field "correct" j = Json.Bool true | None -> false
    in
    if not ok then incr failures;
    Printf.printf "  %-14s%s %s, %s statements\n%!" w
      (if traced then " (traced)" else "")
      (if ok then "ok" else "FAILED")
      (match result with Some j -> Json.to_string (field "attempted" j) | None -> "?");
    result
  in
  let cycles =
    List.init runs (fun c ->
        Printf.printf "cycle %d/%d\n%!" (c + 1) runs;
        List.map (fun w -> (w, one w ~traced:false)) workloads)
  in
  let traces =
    if trace then List.map (fun w -> (w, one w ~traced:true)) workloads else []
  in
  let header =
    [
      ("host_cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
      ("seed", Json.Num (float_of_int seed));
      ("runs", Json.Num (float_of_int runs));
      ("seconds", Json.Num (float_of_int seconds));
      ("engine", Json.Str (Option.value (Hashtbl.find_opt info "engine") ~default:"?"));
      ( "pool_width",
        Json.Str (Option.value (Hashtbl.find_opt info "pool_width") ~default:"?") );
    ]
  in
  Printf.printf "\n%s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> k ^ " " ^ Json.to_string v) header));
  let result =
    Json.Obj
      [
        ("header", Json.Obj header);
        ( "workloads",
          Json.Obj
            (List.map
               (fun w ->
                 let rs = List.filter_map (List.assoc w) cycles in
                 let tr = Option.join (List.assoc_opt w traces) in
                 (* the smoke test only checks; it prints no tables *)
                 if not smoke then begin
                   Printf.printf "\n%s (%d runs: median [q1 .. q3])\n" w (List.length rs);
                   print_summary rs;
                   Option.iter
                     (fun tr ->
                       Printf.printf " traced:\n";
                       print_summary [ tr ])
                     tr
                 end;
                 ( w,
                   Json.Obj
                     [ ("runs", Json.Arr rs); ("trace", Option.value tr ~default:Json.Null) ]
                 ))
               workloads) );
      ]
  in
  mkdir_p (Filename.dirname out);
  write_json out result;
  Printf.printf "\nwrote %s; %d failed run%s\n" out !failures
    (if !failures = 1 then "" else "s");
  exit (if !failures = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* summarize, compare *)

let summarize file =
  let result = read_json file in
  List.iter
    (fun w ->
      match runs_of result w with
      | [] -> ()
      | rs ->
        Printf.printf "%s\n" w;
        print_summary rs)
    workloads

(* Bounds and directions from BENCHMARK.json's end_to_end list *)
let bounds () =
  match field "end_to_end" (read_json "BENCHMARK.json") with
  | Json.Arr ms ->
    List.map
      (fun m ->
        let s k = match field k m with Json.Str v -> v | _ -> "" in
        (s "name", (s "better", num (field "bound" m))))
      ms
  | _ -> die "BENCHMARK.json: no end_to_end list"

(* A metric regresses when NEW's median is worse than OLD's by more
   than its bound; it is unresolved when OLD's own spread (quartile
   distance over median) already exceeds the bound. *)
let compare_sets ~out old_file new_file =
  let bounds = bounds () in
  let old_r = read_json old_file and new_r = read_json new_file in
  let regressions = ref 0 in
  let diffs =
    List.map
      (fun w ->
        let olds = metric_values (runs_of old_r w)
        and news = metric_values (runs_of new_r w) in
        let cells =
          List.filter_map
            (fun (name, _, ovs) ->
              let new_values = List.find_opt (fun (n, _, _) -> n = name) news in
              match (List.assoc_opt name bounds, new_values) with
              | Some (better, bound), Some (_, _, nvs) ->
                let q1, m0, q3 = quartiles ovs in
                let _, m1, _ = quartiles nvs in
                let change = (m1 -. m0) /. m0 in
                let worse = if better = "higher" then -.change else change in
                let status =
                  if (q3 -. q1) /. Float.abs m0 > bound then "unresolved"
                  else if worse > bound then (
                    incr regressions;
                    "REGRESSION")
                  else "ok"
                in
                Some (name, change, status)
              | _ -> None)
            olds
        in
        Printf.printf "%-14s %s\n" w
          (String.concat " | "
             (List.map
                (fun (n, c, s) -> Printf.sprintf "%s %+.1f%% %s" n (100. *. c) s)
                cells));
        ( w,
          Json.Obj
            (List.map
               (fun (n, c, s) ->
                 (n, Json.Obj [ ("change", Json.Num c); ("status", Json.Str s) ]))
               cells) ))
      workloads
  in
  Option.iter
    (fun path ->
      write_json path
        (Json.Obj [ ("old", old_r); ("new", new_r); ("difference", Json.Obj diffs) ]))
    out;
  Printf.printf "%d regression%s\n" !regressions (if !regressions = 1 then "" else "s");
  exit (if !regressions = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* flags (--name value, or bare --name) and positional arguments *)
  let rec parse flags pos = function
    | [] -> (flags, List.rev pos)
    | ("--trace" | "--smoke") as f :: rest
      when match rest with v :: _ -> v <> "0" && v <> "1" | [] -> true ->
      parse ((f, "1") :: flags) pos rest
    | f :: v :: rest when String.starts_with ~prefix:"--" f -> parse ((f, v) :: flags) pos rest
    | f :: _ when String.starts_with ~prefix:"--" f -> die "%s needs a value" f
    | a :: rest -> parse flags (a :: pos) rest
  in
  let flags, pos = parse [] [] args in
  let flag f = List.assoc_opt f flags in
  let int_flag f default =
    match flag f with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with Some n when n >= 0 -> n | _ -> die "%s %S" f v)
  in
  let bool_flag f = flag f = Some "1" in
  match pos with
  | [] -> (
    match flag "--workload" with
    | None -> die "usage: see the comment at the top of bench/suite/suite.ml"
    | Some workload ->
      drive ~workload ~seed:(int_flag "--seed" default_seed)
        ~seconds:(int_flag "--seconds" default_seconds) ~trace:(bool_flag "--trace")
        ~smoke:(bool_flag "--smoke"))
  | [ "run" ] ->
    let smoke = bool_flag "--smoke" in
    run_set ~seed:(int_flag "--seed" default_seed)
      ~runs:(if smoke then 1 else max 1 (int_flag "--runs" 5))
      ~seconds:(if smoke then 0 else int_flag "--seconds" default_seconds)
      ~trace:(smoke || bool_flag "--trace") ~smoke
      ~out:(Option.value (flag "--out") ~default:(Filename.concat out_dir "result.json"))
  | [ "summarize"; file ] -> summarize file
  | [ "compare"; old_file; new_file ] -> compare_sets ~out:(flag "--out") old_file new_file
  | _ -> die "unknown command %s" (String.concat " " pos)
