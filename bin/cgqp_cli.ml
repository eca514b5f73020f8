(* cgqp — command-line driver for the compliant geo-distributed query
   processor, running against the built-in geo-distributed TPC-H setup.

   Subcommands:
     explain   optimize a query and print the (compliant) plan
     run       optimize + execute against generated TPC-H data
     serve     execute a multi-session workload script (plan cache,
               admission control, deterministic scheduler)
     check     report whether a query is legal under the policies
     catalog   print the geo-distributed catalog and policy sets

   Exit codes (beyond cmdliner's defaults): 3 = the query was rejected
   (no compliant plan), 4 = unsatisfiable under failures, 5 = a serve
   statement was denied by admission control (--strict).
*)

open Cmdliner

let exit_rejected = 3
let exit_unsatisfiable = 4
let exit_denied = 5

let compliance_exits =
  [
    Cmd.Exit.info exit_rejected
      ~doc:"the query has no compliant plan under the installed policies (rejected).";
    Cmd.Exit.info exit_unsatisfiable
      ~doc:
        "a compliant plan existed, but no compliant alternative survives the \
         failures encountered at execution time (unsatisfiable).";
  ]

(* Rejections and unsatisfiable runs get distinct exit codes so scripts
   can tell "the policies forbid this" from "the network killed this"
   without parsing stderr; other errors keep cmdliner's conventions. *)
let fail_with_code (e : Cgqp.error) =
  (match e with
  | `Rejected _ ->
    Fmt.epr "cgqp: %s@." (Cgqp.error_to_string e);
    Stdlib.exit exit_rejected
  | `Unsatisfiable _ ->
    Fmt.epr "cgqp: %s@." (Cgqp.error_to_string e);
    Stdlib.exit exit_unsatisfiable
  | _ -> ());
  `Error (false, Cgqp.error_to_string e)

let policy_set_conv =
  let parse s =
    Option.to_result (Tpch.Policies.set_name_of_string s)
      ~none:(`Msg "policy set must be one of: T, C, CR, CR+A")
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Tpch.Policies.set_name_to_string s))

let set_arg =
  Arg.(
    value
    & opt policy_set_conv Tpch.Policies.CR
    & info [ "p"; "policies" ] ~docv:"SET" ~doc:"Policy expression set (T, C, CR, CR+A).")

let policy_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "policy-file" ] ~docv:"FILE"
        ~doc:"Load policy expressions from FILE (one per line, overrides --policies).")

let traditional_arg =
  Arg.(
    value & flag
    & info [ "traditional" ]
        ~doc:"Use the purely cost-based optimizer (no compliance annotations).")

let engine_conv =
  let parse s =
    match Exec.Engine.of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg "engine must be `reference' or `vector'")
  in
  Arg.conv (parse, fun ppf e -> Fmt.string ppf (Exec.Engine.to_string e))

let engine_arg =
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Executor: $(b,vector) (batch-at-a-time over column-major storage \
           with selection vectors, the default) or $(b,reference) (the \
           tree-walking interpreter). Both produce byte-identical results \
           and accounting. Defaults to the CGQP_ENGINE environment variable, \
           else vector.")

let mem_budget_conv =
  let parse s =
    match Exec.Runtime.parse_budget s with
    | Some b -> Ok b
    | None ->
      Error
        (`Msg
          "memory budget must be a byte count with an optional k/m/g suffix \
           (e.g. 64m), or `unlimited'")
  in
  Arg.conv (parse, fun ppf b -> Fmt.pf ppf "%d" b)

(* An option's value, else the environment variable [name]'s, parsed
   with the option's converter: a bad value is a usage error (exit 124)
   before anything runs. *)
let or_env name conv = function
  | Some _ as v -> Ok v
  | None -> (
    match Sys.getenv_opt name with
    | None | Some "" -> Ok None
    | Some s -> (
      match Arg.conv_parser conv s with
      | Ok v -> Ok (Some v)
      | Error (`Msg m) -> Error (Printf.sprintf "%s=%S: %s" name s m)))

let sf_arg =
  Arg.(
    value & opt float 0.01
    & info [ "sf" ] ~docv:"SF" ~doc:"TPC-H scale factor for generated data.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Deterministic seed for the data generator and the fault scheduler. \
           Defaults to the CGQP_SEED environment variable, else 42.")

let faults_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "faults" ] ~docv:"FILE"
        ~doc:
          "Inject the fault schedule in FILE (one statement per line: seed N, \
           link-down A B, site-down A, drop A B P, slow A B F, \
           replica-lag T S L; # comments). Execution retries transient drops \
           and fails over to a compliant alternative plan (preferring a fresh \
           sibling replica) on permanent failures.")

(* --replica TABLE[:PART]=COPY,COPY,...  where COPY is SITE, SITE! \
   (jurisdiction-pinned to itself), SITE^PIN or SITE~LAGMS. The first \
   copy must be the partition's primary placement. *)
let replica_conv =
  let parse s =
    try
      let table, part, rhs =
        match String.index_opt s '=' with
        | None -> failwith "expected TABLE[:PART]=SITE[,SITE...]"
        | Some i ->
          let lhs = String.sub s 0 i
          and rhs = String.sub s (i + 1) (String.length s - i - 1) in
          let table, part =
            match String.index_opt lhs ':' with
            | None -> (lhs, 0)
            | Some j -> (
              let p = String.sub lhs (j + 1) (String.length lhs - j - 1) in
              match int_of_string_opt p with
              | Some p -> (String.sub lhs 0 j, p)
              | None -> failwith (Printf.sprintf "bad partition index %S" p))
          in
          (table, part, rhs)
      in
      let copy w =
        let w = String.trim w in
        let w, lag_ms =
          match String.index_opt w '~' with
          | None -> (w, 0.)
          | Some k -> (
            let l = String.sub w (k + 1) (String.length w - k - 1) in
            match float_of_string_opt l with
            | Some l when l >= 0. -> (String.sub w 0 k, l)
            | _ -> failwith (Printf.sprintf "bad lag %S" l))
        in
        let site, pin =
          match String.index_opt w '^' with
          | Some k ->
            ( String.sub w 0 k,
              Some (String.sub w (k + 1) (String.length w - k - 1)) )
          | None ->
            let n = String.length w in
            if n > 0 && w.[n - 1] = '!' then
              let site = String.sub w 0 (n - 1) in
              (site, Some site)
            else (w, None)
        in
        if site = "" then failwith "empty site in replica spec";
        { Catalog.site; lag_ms; pin }
      in
      let copies = List.map copy (String.split_on_char ',' rhs) in
      if copies = [] then failwith "empty replica set";
      Ok (table, part, copies)
    with Failure m -> Error (`Msg ("replica spec: " ^ m))
  in
  let print ppf (table, part, copies) =
    Fmt.pf ppf "%s:%d=%s" table part
      (String.concat ","
         (List.map
            (fun (r : Catalog.replica) ->
              r.Catalog.site
              ^ (match r.Catalog.pin with
                | Some p when String.equal p r.Catalog.site -> "!"
                | Some p -> "^" ^ p
                | None -> "")
              ^ if r.Catalog.lag_ms > 0. then Printf.sprintf "~%g" r.Catalog.lag_ms else "")
            copies))
  in
  Arg.conv (parse, print)

let replicas_arg =
  Arg.(
    value
    & opt_all replica_conv []
    & info [ "replica" ] ~docv:"SPEC"
        ~doc:
          "Attach a replica set: $(b,TABLE[:PART]=SITE,SITE,...) (repeatable). \
           The first site must be the partition's primary placement; a site \
           suffixed $(b,!) is jurisdiction-pinned to itself, $(b,^PIN) pins \
           it elsewhere, $(b,~MS) declares replication lag. The optimizer \
           reads whichever compliant fresh copy is cheapest (docs/REPLICA.md).")

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* An explicit seed (--seed flag or CGQP_SEED) re-seeds the schedule so
   one knob reproduces the whole run; otherwise the file's own [seed N]
   statement stands. *)
let load_faults ~cli_seed = function
  | None -> Ok None
  | Some file -> (
    match Catalog.Network.Fault.parse (read_file file) with
    | Error m -> Error (Printf.sprintf "%s: %s" file m)
    | Ok sched -> (
      match
        (match cli_seed with Some s -> Some s | None -> Storage.Seed.override ())
      with
      | Some seed ->
        Ok (Some (Catalog.Network.Fault.make ~seed (Catalog.Network.Fault.events sched)))
      | None -> Ok (Some sched)))

(* Tpch.Queries.resolve accepts every name of Tpch.Queries.all_extended. *)
let query_doc =
  "SQL text, or one of the built-in names (case-insensitive) Q1, Q2, Q3, Q5, Q6, Q7, \
   Q8, Q9, Q10, Q11, Q12, Q19."

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:query_doc)

let load_policies session set file =
  let texts =
    match file with
    | Some f ->
      let ic = open_in f in
      let rec lines acc =
        match input_line ic with
        | line ->
          let line = String.trim line in
          lines (if line = "" || String.length line >= 1 && line.[0] = '#' then acc else line :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      lines []
    | None -> Tpch.Policies.texts set
  in
  Cgqp.add_policies session texts

let make_session ~set ~file ~traditional ?engine ?sf ?seed ?faults
    ?(replicas = []) () =
  let cat = Tpch.Schema.catalog ~sf:10.0 () in
  (* raises Invalid_argument on a bad spec; command actions wrap it *)
  let cat = if replicas = [] then cat else Catalog.with_replicas cat replicas in
  let session = Cgqp.create ~catalog:cat () in
  load_policies session set file;
  if traditional then Cgqp.set_mode session Optimizer.Memo.Traditional;
  Option.iter (Cgqp.set_engine session) engine;
  (match sf with
  | Some sf ->
    let data = Tpch.Datagen.generate ?seed ~sf () in
    Cgqp.attach_database session (Tpch.Datagen.load ~cat data)
  | None -> ());
  Option.iter (Cgqp.set_faults session) faults;
  session

(* --- observability flags, shared by explain/run --- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured event trace (optimizer, policy evaluator, executor) \
           and write it to FILE as JSON lines.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metrics registry (counters, histograms, gauges) afterwards.")

(* Run [f] with tracing enabled when requested; afterwards write the
   jsonl trace and/or print the metrics table. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Obs.Trace.enable ();
  let r = f () in
  (match trace with
  | Some file ->
    let oc = open_out file in
    Obs.Trace.write_jsonl oc;
    close_out oc;
    Fmt.epr "trace: %d events written to %s%s@."
      (List.length (Obs.Trace.events ()))
      file
      (match Obs.Trace.dropped () with
      | 0 -> ""
      | n -> Printf.sprintf " (%d oldest dropped)" n)
  | None -> ());
  if metrics then Fmt.pr "@.-- metrics --@.%a" Obs.Metrics.render ();
  r

let dot_arg =
  Arg.(
    value & flag
    & info [ "dot" ] ~doc:"Print the plan as a Graphviz digraph instead of text.")

let traits_arg =
  Arg.(
    value & flag
    & info [ "traits" ]
        ~doc:"Also print the annotated phase-1 plan with each operator's execution trait.")

let analyze_arg =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "EXPLAIN ANALYZE: also execute the plan on generated TPC-H data (see \
           $(b,--sf)) and annotate each operator with actual rows and SHIP bytes.")

let explain_cmd =
  let action set file traditional engine traits dot analyze sf seed faults
      replicas trace metrics query =
    with_obs ~trace ~metrics @@ fun () ->
    match
      (or_env "CGQP_MEM_BUDGET" mem_budget_conv None, load_faults ~cli_seed:seed faults)
    with
    | Error m, _ | _, Error m -> `Error (false, m)
    | Ok mem_budget, Ok faults -> (
    match
      if analyze then
        make_session ~set ~file ~traditional ?engine ~sf ?seed ?faults ~replicas ()
      else make_session ~set ~file ~traditional ?engine ?seed ?faults ~replicas ()
    with
    | exception Invalid_argument m -> `Error (false, m)
    | session -> (
    Option.iter (fun b -> Cgqp.set_mem_budget session (Some b)) mem_budget;
    let sql = Tpch.Queries.resolve query in
    (* optimize (and, under --analyze, execute) exactly once *)
    match
      if analyze then
        Result.map
          (fun (r : Cgqp.run_result) ->
            (r.Cgqp.planned, Some r.Cgqp.interp, r.Cgqp.recovery))
          (Cgqp.run session sql)
      else
        Result.map
          (fun p -> (p, None, Optimizer.Explain.no_recovery))
          (Cgqp.optimize session sql)
    with
    | exception Exec.Runtime.Runtime_error m -> `Error (false, m)
    | Ok (p, interp, recovery) ->
      if dot then print_string (Exec.Pplan.to_dot p.Optimizer.Planner.plan)
      else begin
        print_string
          (Optimizer.Explain.render ?analyze:interp ~recovery
             ~cat:(Cgqp.catalog session) p);
        if traits then
          Fmt.pr "@.annotated plan (execution traits per operator):@.%a"
            (Optimizer.Memo.pp_anode ~indent:2)
            p.Optimizer.Planner.annotated
      end;
      `Ok ()
    | Error e -> fail_with_code e))
  in
  Cmd.v
    (Cmd.info "explain" ~exits:(Cmd.Exit.defaults @ compliance_exits)
       ~doc:"Optimize a query and print the annotated plan")
    Term.(
      ret
        (const action $ set_arg $ policy_file_arg $ traditional_arg $ engine_arg
       $ traits_arg $ dot_arg $ analyze_arg $ sf_arg $ seed_arg $ faults_arg
       $ replicas_arg $ trace_arg $ metrics_arg $ query_arg))

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Print the full result as CSV.")

let run_explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Also print the EXPLAIN ANALYZE plan tree (actual rows, SHIP bytes).")

let mem_budget_arg =
  Arg.(
    value
    & opt (some mem_budget_conv) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "Byte-accounted memory budget for the executor (e.g. $(b,64m)): \
           hash joins and aggregations whose scratch state would exceed it \
           spill to disk Grace-style, with byte-identical results. Defaults \
           to the CGQP_MEM_BUDGET environment variable, else unlimited.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print executor memory/IO statistics afterwards: peak tracked \
           bytes, spilled operators and partitions, and segment page reads.")

let print_exec_stats () =
  Fmt.pr
    "(mem: peak tracked %d bytes; spilled %d operator%s into %d partition%s, \
     %d run-file bytes; segment page reads %d, %d bytes)@."
    (Exec.Runtime.peak_tracked_bytes ())
    (Exec.Runtime.spilled_operators ())
    (if Exec.Runtime.spilled_operators () = 1 then "" else "s")
    (Exec.Runtime.spill_partitions ())
    (if Exec.Runtime.spill_partitions () = 1 then "" else "s")
    (Exec.Runtime.spill_run_bytes ())
    (Storage.Segment.page_reads ())
    (Storage.Segment.page_read_bytes ())

let run_cmd =
  let action set file traditional engine sf seed faults replicas csv explain
      mem_budget stats trace metrics query =
    with_obs ~trace ~metrics @@ fun () ->
    match
      (or_env "CGQP_MEM_BUDGET" mem_budget_conv mem_budget, load_faults ~cli_seed:seed faults)
    with
    | Error m, _ | _, Error m -> `Error (false, m)
    | Ok mem_budget, Ok faults -> (
    match
      make_session ~set ~file ~traditional ?engine ~sf ?seed ?faults ~replicas ()
    with
    | exception Invalid_argument m -> `Error (false, m)
    | session -> (
    Option.iter (fun b -> Cgqp.set_mem_budget session (Some b)) mem_budget;
    (* the effective seed makes every run replayable: data generation
       and the fault scheduler both derive from it *)
    if faults <> None || seed <> None then begin
      Fmt.epr "seed: %d@." (Storage.Seed.resolve ?cli:seed ());
      Option.iter
        (fun f -> Fmt.epr "fault seed: %d@." (Catalog.Network.Fault.seed f))
        faults
    end;
    match Cgqp.run session (Tpch.Queries.resolve query) with
    | exception Exec.Runtime.Runtime_error m -> `Error (false, m)
    | Ok r ->
      if csv then print_string (Storage.Relation.to_csv r.Cgqp.relation)
      else begin
        Fmt.pr "%a@." (Storage.Relation.pp ~max_rows:25) r.Cgqp.relation;
        Fmt.pr "(%d rows; shipped %d bytes; simulated transfer cost %.2f ms)@."
          (Storage.Relation.cardinality r.Cgqp.relation)
          r.Cgqp.shipped_bytes r.Cgqp.ship_cost_ms;
        let rc = r.Cgqp.recovery in
        if rc.Cgqp.failovers > 0 then
          Fmt.pr "(degraded: %d failover re-plan%s; %d ship retries%s)@."
            rc.Cgqp.failovers
            (if rc.Cgqp.failovers = 1 then "" else "s")
            r.Cgqp.interp.Exec.Interp.stats.Exec.Interp.ship_retries
            (match rc.Cgqp.masked_replicas with
            | [] -> ""
            | rs ->
              "; stale replicas "
              ^ String.concat ", " (List.map (fun (t, s) -> t ^ "@" ^ s) rs))
      end;
      if stats then print_exec_stats ();
      if explain then begin
        Fmt.pr "@.";
        print_string
          (Optimizer.Explain.render ~analyze:r.Cgqp.interp
             ~recovery:r.Cgqp.recovery ~cat:(Cgqp.catalog session)
             r.Cgqp.planned)
      end;
      `Ok ()
    | Error e -> fail_with_code e))
  in
  Cmd.v
    (Cmd.info "run" ~exits:(Cmd.Exit.defaults @ compliance_exits)
       ~doc:"Optimize and execute a query on generated TPC-H data")
    Term.(
      ret
        (const action $ set_arg $ policy_file_arg $ traditional_arg $ engine_arg
       $ sf_arg $ seed_arg $ faults_arg $ replicas_arg $ csv_arg
       $ run_explain_arg $ mem_budget_arg $ stats_arg $ trace_arg $ metrics_arg
       $ query_arg))

let check_cmd =
  let action set file query =
    let session = make_session ~set ~file ~traditional:false () in
    match Cgqp.optimize session (Tpch.Queries.resolve query) with
    | Ok p ->
      Fmt.pr "LEGAL: a compliant plan exists (ship cost %.2f ms, %d memo groups)@."
        p.Optimizer.Planner.ship_cost p.Optimizer.Planner.groups;
      `Ok ()
    | Error (`Rejected reason) ->
      Fmt.pr "ILLEGAL: %s@." reason;
      `Ok ()
    | Error e -> `Error (false, Cgqp.error_to_string e)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Report whether a query admits a compliant plan")
    Term.(ret (const action $ set_arg $ policy_file_arg $ query_arg))

let catalog_cmd =
  let action set =
    let cat = Tpch.Schema.catalog ~sf:10.0 () in
    Fmt.pr "Geo-distributed TPC-H catalog (Table 2 of the paper):@.%a@." Catalog.pp cat;
    Fmt.pr "Policy set %s:@." (Tpch.Policies.set_name_to_string set);
    List.iter (Fmt.pr "  %s@.") (Tpch.Policies.texts set);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "catalog" ~doc:"Print the geo-distributed catalog and a policy set")
    Term.(ret (const action $ set_arg))

(* Topology dump: sites, links and the replica map as JSON, so scenario
   packs are debuggable without reading OCaml. *)
let topology_cmd =
  let action replicas =
    let cat = Tpch.Schema.catalog ~sf:10.0 () in
    match if replicas = [] then cat else Catalog.with_replicas cat replicas with
    | exception Invalid_argument m -> `Error (false, m)
    | cat ->
      let net = Catalog.network cat in
      let sites = Catalog.locations cat in
      let links =
        (* unordered pairs; a pair absent from the network is skipped *)
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if String.compare a b >= 0 then None
                else
                  match Catalog.Network.alpha net a b with
                  | alpha ->
                    Some
                      Obs.Json.(
                        Obj
                          [
                            ("from", Str a);
                            ("to", Str b);
                            ("alpha_ms", Num alpha);
                            ("beta_ms_per_byte", Num (Catalog.Network.beta net a b));
                          ])
                  | exception Catalog.Network.Unknown_link _ -> None)
              sites)
          sites
      in
      let placements =
        List.map
          (fun (e : Catalog.entry) ->
            Obs.Json.(
              Obj
                [
                  ("table", Str e.Catalog.def.Catalog.Table_def.name);
                  ( "placements",
                    Arr
                      (List.map
                         (fun (p : Catalog.placement) ->
                           Obj
                             [
                               ("db", Str p.Catalog.db);
                               ("site", Str p.Catalog.location);
                               ("fraction", Num p.Catalog.fraction);
                             ])
                         e.Catalog.placements) );
                ]))
          (Catalog.all_tables cat)
      in
      let replica_map =
        List.map
          (fun (table, partition, copies) ->
            Obs.Json.(
              Obj
                [
                  ("table", Str table);
                  ("partition", Num (float_of_int partition));
                  ( "copies",
                    Arr
                      (List.map
                         (fun (r : Catalog.replica) ->
                           Obj
                             [
                               ("site", Str r.Catalog.site);
                               ("lag_ms", Num r.Catalog.lag_ms);
                               ( "pin",
                                 match r.Catalog.pin with
                                 | Some p -> Str p
                                 | None -> Null );
                             ])
                         copies) );
                ]))
          (Catalog.replica_map cat)
      in
      print_endline
        (Obs.Json.to_string
           Obs.Json.(
             Obj
               [
                 ("sites", Arr (List.map (fun s -> Str s) sites));
                 ("links", Arr links);
                 ("tables", Arr placements);
                 ("replicas", Arr replica_map);
               ]));
      `Ok ()
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Dump sites, links and the replica map as JSON"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Prints the geo-distributed topology the other subcommands run \
              against: every site, every link with its $(b,alpha)/$(b,beta) \
              cost parameters, each table's placements, and the replica map \
              (empty unless $(b,--replica) specs are given — the same specs \
              $(b,explain) and $(b,run) accept, so a scenario's replica \
              layout can be inspected exactly as the optimizer sees it).";
         ])
    Term.(ret (const action $ replicas_arg))

(* --- interactive shell --- *)

let schema_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "schema" ] ~docv:"FILE"
        ~doc:"Geo-schema definition (geodsl text); defaults to the built-in TPC-H setup.")

let data_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "data" ] ~docv:"DIR"
        ~doc:"Directory with <table>.csv files; defaults to generated TPC-H data.")

let repl_cmd =
  let action set file schema data sf =
    let cat =
      match schema with
      | Some f -> Geodsl.load_catalog_file f
      | None -> Tpch.Schema.catalog ~sf:10.0 ()
    in
    let session = Cgqp.create ~catalog:cat () in
    let grants = ref [] and denies = ref [] in
    let set_policies () =
      Cgqp.set_policy_catalog session
        (Policy.Negation.catalog_of_texts cat ~grants:!grants ~denies:!denies)
    in
    (match file, schema with
    | Some f, _ ->
      let ic = open_in f in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then grants := !grants @ [ line ]
         done
       with End_of_file -> close_in ic)
    | None, None -> grants := Tpch.Policies.texts set
    | None, Some _ -> ());
    (match data with
    | Some dir -> Cgqp.attach_database session (Geodsl.load_csv_dir ~cat dir)
    | None ->
      if schema = None then
        Cgqp.attach_database session (Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~sf ())));
    set_policies ();
    Fmt.pr "cgqp interactive shell — \\h for help, \\q to quit@.";
    let help () =
      Fmt.pr
        "  \\q                 quit@.\
        \  \\mode trad|comp    switch optimizer mode@.\
        \  \\policies          coverage report@.@.\
        \  \\ship ...          add a policy expression@.\
        \  \\deny ...          add a negative statement@.\
        \  \\explain SQL       show the plan@.\
        \  \\legal SQL         is a compliant plan possible?@.\
        \  SQL                 optimize + execute@."
    in
    let rec loop () =
      Fmt.pr "cgqp> %!";
      match input_line stdin with
      | exception End_of_file -> ()
      | line ->
        let line = String.trim line in
        (try
           if line = "" then ()
           else if line = "\\q" || line = "\\quit" then raise Exit
           else if line = "\\h" || line = "\\help" then help ()
           else if line = "\\mode trad" then begin
             Cgqp.set_mode session Optimizer.Memo.Traditional;
             Fmt.pr "mode: traditional (cost-only)@."
           end
           else if line = "\\mode comp" then begin
             Cgqp.set_mode session Optimizer.Memo.Compliant;
             Fmt.pr "mode: compliant@."
           end
           else if line = "\\policies" then
             Fmt.pr "%a@." Policy.Analysis.pp_report (cat, Cgqp.policies session)
           else if String.length line > 6 && String.sub line 0 6 = "\\ship " then begin
             grants := !grants @ [ String.sub line 1 (String.length line - 1) ];
             set_policies ();
             Fmt.pr "added.@."
           end
           else if String.length line > 6 && String.sub line 0 6 = "\\deny " then begin
             denies := !denies @ [ String.sub line 1 (String.length line - 1) ];
             set_policies ();
             Fmt.pr "added; grants re-preprocessed.@."
           end
           else if String.length line > 9 && String.sub line 0 9 = "\\explain " then begin
             match Cgqp.optimize session (String.sub line 9 (String.length line - 9)) with
             | Ok p ->
               Fmt.pr "%a@." Optimizer.Planner.pp_outcome (Optimizer.Planner.Planned p)
             | Error e -> Fmt.pr "error: %s@." (Cgqp.error_to_string e)
           end
           else if String.length line > 7 && String.sub line 0 7 = "\\legal " then
             Fmt.pr "%s@."
               (if Cgqp.is_legal session (String.sub line 7 (String.length line - 7)) then
                  "LEGAL"
                else "ILLEGAL (or invalid)")
           else
             match Cgqp.run session line with
             | Ok r ->
               Fmt.pr "%a(%d rows; shipped %d bytes; transfer cost %.2f ms)@."
                 (Storage.Relation.pp ~max_rows:20) r.Cgqp.relation
                 (Storage.Relation.cardinality r.Cgqp.relation)
                 r.Cgqp.shipped_bytes r.Cgqp.ship_cost_ms
             | Error e -> Fmt.pr "error: %s@." (Cgqp.error_to_string e)
         with
        | Exit -> raise Exit
        | e -> Fmt.pr "error: %s@." (Printexc.to_string e));
        loop ()
    in
    (try loop () with Exit -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive shell over a geo-schema and CSV data")
    Term.(ret (const action $ set_arg $ policy_file_arg $ schema_arg $ data_arg $ sf_arg))

let policies_cmd =
  let action set file =
    let session = make_session ~set ~file ~traditional:false () in
    Fmt.pr "Policy coverage report (%d expressions):@."
      (Policy.Pcatalog.size (Cgqp.policies session));
    Fmt.pr "%a@." Policy.Analysis.pp_report (Cgqp.catalog session, Cgqp.policies session);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "policies"
       ~doc:"Analyze a policy set: per-column coverage, redundancies, no-ops")
    Term.(ret (const action $ set_arg $ policy_file_arg))

(* --- serve: multi-session workload scripts --- *)

let script_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "script" ] ~docv:"FILE"
        ~doc:
          "Workload script: tenants, sessions and the statements each session \
           submits (grammar in docs/SERVICE.md). Required.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable the plan cache (every submit re-runs the optimizer).")

let positive_int_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

let cache_capacity_arg =
  Arg.(
    value & opt positive_int_conv 128
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Plan cache capacity in entries, at least 1 (LRU eviction beyond this).")

let template_cache_arg =
  Arg.(
    value & flag
    & info [ "template-cache" ]
        ~doc:
          "Enable template-level plan caching: literals are normalized out of \
           the cache key into a parameter vector, so statements differing only \
           in constants share one cached plan (guarded by the compliance-verdict \
           fingerprint of the bound literals; see docs/FEEDBACK.md). Reports \
           stay byte-identical to non-template runs. Also honors the \
           CGQP_TEMPLATE_CACHE environment variable.")

let feedback_arg =
  Arg.(
    value & flag
    & info [ "feedback" ]
        ~doc:
          "Fold observed scan cardinalities back into the catalog statistics \
           (cardinality feedback): when the estimated-vs-actual gap crosses the \
           threshold, a corrected catalog is installed, the plan cache epoch is \
           bumped once, and subsequent submissions re-optimize.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero when any statement was denied by admission control \
           (code 5), unsatisfiable under failures (4) or rejected (3); \
           admission denials take precedence.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the report as JSON instead of the text summary.")

let serve_cmd =
  let action engine sf seed faults no_cache capacity template feedback strict
      json trace metrics script =
    with_obs ~trace ~metrics @@ fun () ->
    match
      (or_env "CGQP_ENGINE" engine_conv engine, or_env "CGQP_MEM_BUDGET" mem_budget_conv None)
    with
    | Error m, _ | _, Error m -> `Error (false, m)
    | Ok engine, Ok _ -> (
    match Service.Script.parse_file script with
    | Error m -> `Error (false, Printf.sprintf "%s: %s" script m)
    | Ok wl -> (
      match load_faults ~cli_seed:seed faults with
      | Error m -> `Error (false, m)
      | Ok faults ->
        let cat = Tpch.Schema.catalog ~sf:10.0 () in
        let database =
          Tpch.Datagen.load ~cat (Tpch.Datagen.generate ?seed ~sf ())
        in
        let cache =
          if no_cache then None else Some (Cgqp.Plan_cache.create ~capacity ())
        in
        let template = if template then Some true else None in
        let fb = if feedback then Some (Cgqp.Feedback.create ()) else None in
        let env =
          Service.Scheduler.env ~catalog:cat ~database ?cache ?template
            ?feedback:fb ?faults ?engine ~resolve_query:Tpch.Queries.resolve
            ~resolve_policy_set:Tpch.Policies.texts_of_string ()
        in
        let t0 = Unix.gettimeofday () in
        match Service.Scheduler.run ~env ?seed wl with
        | exception Invalid_argument m ->
          `Error (false, Printf.sprintf "%s: %s" script m)
        | exception Exec.Runtime.Runtime_error m -> `Error (false, m)
        | report ->
        let wall_s = Unix.gettimeofday () -. t0 in
        if json then
          print_endline (Obs.Json.to_string (Service.Scheduler.report_to_json report))
        else begin
          Fmt.pr "%a@." Service.Scheduler.pp_report report;
          (* wall-clock is outside the report: it is the one
             nondeterministic quantity, kept out of the byte-identical
             surface *)
          Fmt.pr "  wall-clock %.3f s@." wall_s;
          (* only under --feedback: keeps default output byte-stable *)
          Option.iter
            (fun fb ->
              Fmt.pr "  feedback: %d observations, %d folds@."
                (Cgqp.Feedback.observations fb)
                (Cgqp.Feedback.folds fb))
            fb
        end;
        if strict then
          if report.Service.Scheduler.denied > 0 then Stdlib.exit exit_denied
          else if report.Service.Scheduler.unsatisfiable > 0 then
            Stdlib.exit exit_unsatisfiable
          else if report.Service.Scheduler.rejected > 0 then
            Stdlib.exit exit_rejected;
        `Ok ()))
  in
  Cmd.v
    (Cmd.info "serve"
       ~exits:
         (Cmd.Exit.defaults @ compliance_exits
         @ [
             Cmd.Exit.info exit_denied
               ~doc:
                 "with $(b,--strict): at least one statement was denied by \
                  admission control.";
           ])
       ~doc:"Execute a multi-session workload script"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Replays a workload script against the built-in geo-distributed \
              TPC-H setup: sessions run closed-loop on a deterministic \
              simulated clock, statements pass per-tenant admission control, \
              and optimizer outcomes are served from a policy-epoch plan \
              cache shared by all sessions. Any policy mutation (or failover \
              re-plan mask) invalidates affected entries, so cached runs are \
              byte-identical to uncached ones.";
           `P
             "The report lists every statement with its simulated latency and \
              cache flag (hit/miss), then aggregates: counts by outcome, \
              cache hit rate, p50/p95 latency.";
         ])
    Term.(
      ret
        (const action $ engine_arg $ sf_arg $ seed_arg $ faults_arg $ no_cache_arg
       $ cache_capacity_arg $ template_cache_arg $ feedback_arg $ strict_arg
       $ json_arg $ trace_arg $ metrics_arg $ script_arg))

(* Default term: lets the common one-shot forms work without naming a
   subcommand — [cgqp --explain Q3] is EXPLAIN ANALYZE, [cgqp Q3] is
   run. *)
let default_term =
  let action set file traditional engine sf explain trace metrics query =
    match query with
    | None -> `Help (`Pager, None)
    | Some q ->
      with_obs ~trace ~metrics @@ fun () ->
      match or_env "CGQP_MEM_BUDGET" mem_budget_conv None with
      | Error m -> `Error (false, m)
      | Ok mem_budget -> (
      match make_session ~set ~file ~traditional ?engine ~sf () with
      | exception Invalid_argument m -> `Error (false, m)
      | session ->
      Option.iter (fun b -> Cgqp.set_mem_budget session (Some b)) mem_budget;
      let sql = Tpch.Queries.resolve q in
      if explain then (
        match Cgqp.explain_analyze session sql with
        | exception Exec.Runtime.Runtime_error m -> `Error (false, m)
        | Ok text ->
          print_string text;
          `Ok ()
        | Error e -> fail_with_code e)
      else (
        match Cgqp.run session sql with
        | exception Exec.Runtime.Runtime_error m -> `Error (false, m)
        | Ok r ->
          Fmt.pr "%a@." (Storage.Relation.pp ~max_rows:25) r.Cgqp.relation;
          Fmt.pr "(%d rows; shipped %d bytes; simulated transfer cost %.2f ms)@."
            (Storage.Relation.cardinality r.Cgqp.relation)
            r.Cgqp.shipped_bytes r.Cgqp.ship_cost_ms;
          `Ok ()
        | Error e -> fail_with_code e))
  in
  let opt_query =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:query_doc)
  in
  Term.(
    ret
      (const action $ set_arg $ policy_file_arg $ traditional_arg $ engine_arg
     $ sf_arg $ run_explain_arg $ trace_arg $ metrics_arg $ opt_query))

let () =
  let doc = "compliant geo-distributed query processing" in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term
          (Cmd.info "cgqp" ~doc ~version:"1.0.0")
          [
            explain_cmd; run_cmd; serve_cmd; check_cmd; catalog_cmd;
            topology_cmd; policies_cmd; repl_cmd;
          ]))
