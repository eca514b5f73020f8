(* The [cgqp serve] workload-script DSL: line-based, one statement per
   line, '#' comments — the same parsing discipline as the fault
   schedule DSL (Catalog.Network.Fault). Grammar in script.mli and
   docs/SERVICE.md. *)

type action =
  | Submit of string
  | Add_policy of string
  | Set_policy_set of string
  | Clear_policies
  | Set_mode of Optimizer.Memo.mode
  | Wait of float

type session_spec = { sid : string; tenant : string; actions : action list }

type t = {
  seed : int option;
  tenants : (string * Admission.quota) list;
  sessions : session_spec list;
}

(* Session being parsed: actions accumulate reversed; [closed] sessions
   reject further statements. *)
type open_session = {
  o_sid : string;
  o_tenant : string;
  mutable o_actions : action list;
  mutable o_closed : bool;
}

(* Zipf-distributed point-lookup workload: [statements] submits spread
   round-robin over [sessions] sessions, parameters drawn by CDF
   inversion over 1/(k+1)^skew weights from a splitmix64 stream — the
   whole script is a pure function of the arguments. *)
let zipf_workload ?(skew = 1.1) ~sessions ~statements ~universe
    ~make_statement ~seed () =
  if sessions <= 0 then invalid_arg "Script.zipf_workload: sessions must be positive";
  if statements <= 0 then
    invalid_arg "Script.zipf_workload: statements must be positive";
  if universe <= 0 then invalid_arg "Script.zipf_workload: universe must be positive";
  if skew <= 0. then invalid_arg "Script.zipf_workload: skew must be positive";
  (* cdf.(k) = sum of weights for ranks 0..k; sample by binary search *)
  let cdf = Array.make universe 0. in
  let total = ref 0. in
  for k = 0 to universe - 1 do
    total := !total +. (1. /. Float.of_int (k + 1) ** skew);
    cdf.(k) <- !total
  done;
  let prng = Storage.Prng.create ~seed in
  let sample () =
    let u = Storage.Prng.float prng !total in
    let lo = ref 0 and hi = ref (universe - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) <= u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let acts = Array.make sessions [] (* reversed per-session action lists *) in
  for i = 0 to statements - 1 do
    let s = i mod sessions in
    acts.(s) <- Submit (make_statement (sample ())) :: acts.(s)
  done;
  let specs =
    List.init sessions (fun s ->
        let sid = Printf.sprintf "z%02d" (s + 1) in
        { sid; tenant = sid; actions = List.rev acts.(s) })
  in
  { seed = Some seed; tenants = []; sessions = specs }

let parse text : (t, string) result =
  let error = ref None in
  let fail lineno fmt =
    Printf.ksprintf
      (fun m ->
        if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno m))
      fmt
  in
  let seed = ref None in
  let tenants = ref [] (* reversed *) in
  let sessions = ref [] (* reversed, open order *) in
  let find_session sid =
    List.find_opt (fun o -> String.equal o.o_sid sid) !sessions
  in
  let with_session lineno sid k =
    match find_session sid with
    | None -> fail lineno "unknown session %S (no open statement)" sid
    | Some o ->
      if o.o_closed then fail lineno "session %S is already closed" sid else k o
  in
  (* [tenant NAME key value ...] — keys in any order, each optional *)
  let parse_tenant lineno name opts =
    let quota = ref Admission.unlimited in
    let rec go = function
      | [] -> ()
      | "max-inflight" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n ->
          quota := { !quota with Admission.max_in_flight = Some n };
          go rest
        | None -> fail lineno "tenant %s: max-inflight expects an integer, found %S" name n)
      | "ship-budget" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n ->
          quota := { !quota with Admission.ship_budget_bytes = Some n };
          go rest
        | None -> fail lineno "tenant %s: ship-budget expects an integer, found %S" name n)
      | "window" :: n :: rest -> (
        match float_of_string_opt n with
        | Some w when w > 0. ->
          quota := { !quota with Admission.window_ms = w };
          go rest
        | _ -> fail lineno "tenant %s: window expects a positive number, found %S" name n)
      | "on-deny" :: v :: rest -> (
        match v with
        | "reject" ->
          quota := { !quota with Admission.on_deny = Admission.Reject };
          go rest
        | "queue" ->
          quota := { !quota with Admission.on_deny = Admission.Queue };
          go rest
        | _ -> fail lineno "tenant %s: on-deny expects reject|queue, found %S" name v)
      | w :: _ -> fail lineno "tenant %s: unknown option %S" name w
    in
    go opts;
    if List.mem_assoc name !tenants then fail lineno "tenant %S declared twice" name
    else tenants := (name, !quota) :: !tenants
  in
  let parse_open lineno sid opts =
    if find_session sid <> None then fail lineno "session %S opened twice" sid
    else begin
      let tenant = ref sid and policy_set = ref None in
      let rec go = function
        | [] -> ()
        | "tenant" :: name :: rest ->
          tenant := name;
          go rest
        | "policies" :: set :: rest ->
          policy_set := Some set;
          go rest
        | w :: _ -> fail lineno "open %s: unknown option %S" sid w
      in
      go opts;
      let actions =
        match !policy_set with Some s -> [ Set_policy_set s ] | None -> []
      in
      sessions :=
        { o_sid = sid; o_tenant = !tenant; o_actions = List.rev actions; o_closed = false }
        :: !sessions
    end
  in
  let push o a = o.o_actions <- a :: o.o_actions in
  (* split off the first [n] words; the remainder keeps its internal
     spacing (SQL and policy texts are free-form) *)
  let words line = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some k -> String.sub raw 0 k
        | None -> raw
      in
      let line = String.map (function '\t' -> ' ' | c -> c) (String.trim line) in
      match words line with
      | [] -> ()
      | "seed" :: rest -> (
        match rest with
        | [ n ] -> (
          match int_of_string_opt n with
          | Some n -> seed := Some n
          | None -> fail lineno "seed: expected an integer, found %S" n)
        | _ -> fail lineno "seed: expected exactly one integer")
      | "tenant" :: name :: opts -> parse_tenant lineno name opts
      | "open" :: sid :: opts -> parse_open lineno sid opts
      | "close" :: rest -> (
        match rest with
        | [ sid ] -> with_session lineno sid (fun o -> o.o_closed <- true)
        | _ -> fail lineno "close: expected exactly one session id")
      | "clear-policies" :: rest -> (
        match rest with
        | [ sid ] -> with_session lineno sid (fun o -> push o Clear_policies)
        | _ -> fail lineno "clear-policies: expected exactly one session id")
      | "set-policies" :: rest -> (
        match rest with
        | [ sid; set ] -> with_session lineno sid (fun o -> push o (Set_policy_set set))
        | _ -> fail lineno "set-policies: expected SESSION SET")
      | "mode" :: rest -> (
        match rest with
        | [ sid; "compliant" ] ->
          with_session lineno sid (fun o -> push o (Set_mode Optimizer.Memo.Compliant))
        | [ sid; "traditional" ] ->
          with_session lineno sid (fun o ->
              push o (Set_mode Optimizer.Memo.Traditional))
        | _ -> fail lineno "mode: expected SESSION compliant|traditional")
      | "wait" :: rest -> (
        match rest with
        | [ sid; ms ] -> (
          match float_of_string_opt ms with
          | Some ms when ms >= 0. -> with_session lineno sid (fun o -> push o (Wait ms))
          | _ -> fail lineno "wait: expected a non-negative number of ms, found %S" ms)
        | _ -> fail lineno "wait: expected SESSION MS")
      | "submit" :: sid :: (_ :: _ as rest) ->
        with_session lineno sid (fun o -> push o (Submit (String.concat " " rest)))
      | [ "submit"; _ ] | [ "submit" ] -> fail lineno "submit: expected SESSION SQL"
      | "policy" :: sid :: (_ :: _ as rest) ->
        with_session lineno sid (fun o -> push o (Add_policy (String.concat " " rest)))
      | [ "policy"; _ ] | [ "policy" ] -> fail lineno "policy: expected SESSION TEXT"
      | w :: _ -> fail lineno "unknown statement %S" w)
    (String.split_on_char '\n' text);
  match !error with
  | Some e -> Error e
  | None ->
    Ok
      {
        seed = !seed;
        tenants = List.rev !tenants;
        sessions =
          List.rev_map
            (fun o ->
              { sid = o.o_sid; tenant = o.o_tenant; actions = List.rev o.o_actions })
            !sessions;
      }

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match parse s with
  | Error m -> Error (Printf.sprintf "%s: %s" path m)
  | Ok t -> Ok t

let action_to_string sid = function
  | Submit sql -> Printf.sprintf "submit %s %s" sid sql
  | Add_policy text -> Printf.sprintf "policy %s %s" sid text
  | Set_policy_set set -> Printf.sprintf "set-policies %s %s" sid set
  | Clear_policies -> Printf.sprintf "clear-policies %s" sid
  | Set_mode Optimizer.Memo.Compliant -> Printf.sprintf "mode %s compliant" sid
  | Set_mode Optimizer.Memo.Traditional -> Printf.sprintf "mode %s traditional" sid
  | Wait ms -> Printf.sprintf "wait %s %g" sid ms

let to_string t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  (match t.seed with Some s -> line "seed %d" s | None -> ());
  List.iter
    (fun (name, (q : Admission.quota)) ->
      Buffer.add_string b ("tenant " ^ name);
      (match q.Admission.max_in_flight with
      | Some n -> Buffer.add_string b (Printf.sprintf " max-inflight %d" n)
      | None -> ());
      (match q.Admission.ship_budget_bytes with
      | Some n -> Buffer.add_string b (Printf.sprintf " ship-budget %d" n)
      | None -> ());
      if q.Admission.window_ms <> Admission.unlimited.Admission.window_ms then
        Buffer.add_string b (Printf.sprintf " window %g" q.Admission.window_ms);
      (match q.Admission.on_deny with
      | Admission.Queue -> Buffer.add_string b " on-deny queue"
      | Admission.Reject -> ());
      Buffer.add_char b '\n')
    t.tenants;
  List.iter
    (fun s ->
      if String.equal s.tenant s.sid then line "open %s" s.sid
      else line "open %s tenant %s" s.sid s.tenant;
      List.iter (fun a -> line "%s" (action_to_string s.sid a)) s.actions;
      line "close %s" s.sid)
    t.sessions;
  Buffer.contents b

let pp ppf t = Fmt.string ppf (to_string t)
