(* Simulated wide-area network following the paper's message cost model
   (§7.4): shipping [b] bytes from site [i] to site [j] costs
   [alpha i j + beta i j *. b], where [alpha] is a start-up cost (one
   round trip) and [beta] a per-byte cost. Costs are in milliseconds.

   The network also carries an optional *fault schedule* (module
   [Fault]): a seeded, fully deterministic description of link/site
   outages, transient drops and latency inflation. A schedule attached
   with [with_faults] is consulted by [ship_cost] (down links cost
   [infinity], slow links are multiplied) and by the [site_up]/[link_up]
   predicates the site selector uses to mask failed topology during
   degraded re-planning. The executor additionally consults a schedule
   per SHIP attempt for transient drops (see [Exec.Interp]). *)

exception Unknown_link of Location.t * Location.t

let () =
  Printexc.register_printer (function
    | Unknown_link (i, j) ->
      Some (Printf.sprintf "Catalog.Network.Unknown_link(%s, %s)" i j)
    | _ -> None)

(* --- deterministic fault schedules --- *)

module Fault = struct
  type event =
    | Link_down of Location.t * Location.t  (* undirected: kills both ways *)
    | Site_down of Location.t  (* every link touching the site is dead *)
    | Transient_drop of { from_loc : Location.t; to_loc : Location.t; p : float }
        (* each transfer attempt over the link is dropped with
           probability [p], decided deterministically from the seed *)
    | Latency_mult of { from_loc : Location.t; to_loc : Location.t; factor : float }
        (* both alpha and beta are multiplied by [factor] *)
    | Replica_lag of { table : string; site : Location.t; lag_ms : float }
        (* the copy of [table] at [site] lags behind the primary; any
           positive lag marks it stale (unreadable) for the run *)

  type schedule = { seed : int; events : event list }

  let empty = { seed = 0; events = [] }
  let make ?(seed = 0) events = { seed; events }
  let is_empty s = s.events = []
  let seed s = s.seed
  let events s = s.events

  (* An event targets the undirected pair {i, j}. *)
  let on_link a b i j =
    (String.equal a i && String.equal b j) || (String.equal a j && String.equal b i)

  let site_down s l =
    List.exists (function Site_down x -> String.equal x l | _ -> false) s.events

  (* Is the copy of [table] at [site] stale under the schedule? Any
     scheduled positive lag makes the copy unreadable for the whole
     run — the executor raises [Replica_stale] and the session fails
     over to a fresh sibling (see docs/REPLICA.md). *)
  let replica_stale s ~table ~site =
    let table = String.lowercase_ascii table in
    List.exists
      (function
        | Replica_lag { table = t; site = l; lag_ms } ->
          String.equal (String.lowercase_ascii t) table
          && String.equal l site && lag_ms > 0.
        | _ -> false)
      s.events

  (* Is the (directed) transfer [from_loc -> to_loc] permanently
     impossible under the schedule? Local transfers never are. *)
  let link_down s ~from_loc ~to_loc =
    (not (String.equal from_loc to_loc))
    && (site_down s from_loc || site_down s to_loc
       || List.exists
            (function Link_down (a, b) -> on_link a b from_loc to_loc | _ -> false)
            s.events)

  (* Product of every matching latency multiplier (1.0 when none). *)
  let latency_factor s ~from_loc ~to_loc =
    List.fold_left
      (fun acc -> function
        | Latency_mult { from_loc = a; to_loc = b; factor }
          when on_link a b from_loc to_loc ->
          acc *. factor
        | _ -> acc)
      1.0 s.events

  (* Probability that one attempt over the link is dropped: the
     complement of every matching drop event letting it through. *)
  let drop_probability s ~from_loc ~to_loc =
    if String.equal from_loc to_loc then 0.
    else
      1.
      -. List.fold_left
           (fun acc -> function
             | Transient_drop { from_loc = a; to_loc = b; p }
               when on_link a b from_loc to_loc ->
               acc *. (1. -. p)
             | _ -> acc)
           1.0 s.events

  (* [drops s ~from_loc ~to_loc ~ship ~attempt]: is the [attempt]-th try
     of the [ship]-th SHIP of a run dropped? Deterministic in the
     schedule seed; uniform with the link's drop probability. Mixed
     through splitmix64, so drop decisions are a function of (seed,
     link, ship index, attempt) alone and every chaos run replays
     bit-for-bit from its seed. *)
  let drops s ~from_loc ~to_loc ~ship ~attempt =
    let open Relalg.Splitmix in
    let p = drop_probability s ~from_loc ~to_loc in
    if p <= 0. then false
    else if p >= 1. then true
    else begin
      let h = mix64 (Int64.of_int s.seed) in
      (* hash the unordered pair so both directions of a link share a
         fate stream, matching the undirected event semantics *)
      let a, b = if String.compare from_loc to_loc <= 0 then (from_loc, to_loc) else (to_loc, from_loc) in
      let h = hash_str (hash_str h a) b in
      let h = mix64 (Int64.logxor h (Int64.of_int ((ship * 1021) + attempt))) in
      let u = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992. in
      u < p
    end

  let pp_event ppf = function
    | Link_down (a, b) -> Fmt.pf ppf "link-down %s %s" a b
    | Site_down l -> Fmt.pf ppf "site-down %s" l
    | Transient_drop { from_loc; to_loc; p } -> Fmt.pf ppf "drop %s %s %g" from_loc to_loc p
    | Latency_mult { from_loc; to_loc; factor } ->
      Fmt.pf ppf "slow %s %s %g" from_loc to_loc factor
    | Replica_lag { table; site; lag_ms } ->
      Fmt.pf ppf "replica-lag %s %s %g" table site lag_ms

  let pp ppf s =
    Fmt.pf ppf "seed %d" s.seed;
    List.iter (fun e -> Fmt.pf ppf "@.%a" pp_event e) s.events

  let to_string s = Fmt.str "%a" pp s

  (* The fault-schedule DSL: one statement per line, [#] comments.
       seed 42
       link-down L1 L4
       site-down L3
       drop L1 L4 0.3        # transient, p = 0.3 per attempt
       slow L2 L5 4.0        # alpha and beta x4
       replica-lag orders L2 500   # the L2 copy of orders is stale
     [to_string] emits this grammar, so schedules round-trip. *)
  let parse text : (schedule, string) result =
    let seed = ref 0 and events = ref [] and error = ref None in
    let fail lineno fmt =
      Printf.ksprintf
        (fun m -> if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno m))
        fmt
    in
    let float_of lineno what s =
      match float_of_string_opt s with
      | Some f -> f
      | None ->
        fail lineno "%s: expected a number, found %S" what s;
        0.
    in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let line =
          match String.index_opt line '#' with
          | Some k -> String.sub line 0 k
          | None -> line
        in
        match
          String.split_on_char ' ' (String.trim line)
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun w -> w <> "")
        with
        | [] -> ()
        | [ "seed"; n ] -> (
          match int_of_string_opt n with
          | Some n -> seed := n
          | None -> fail lineno "seed: expected an integer, found %S" n)
        | [ "link-down"; a; b ] -> events := Link_down (a, b) :: !events
        | [ "site-down"; l ] -> events := Site_down l :: !events
        | [ "drop"; a; b; p ] ->
          let p = float_of lineno "drop" p in
          if p < 0. || p > 1. then fail lineno "drop: probability %g outside [0, 1]" p
          else events := Transient_drop { from_loc = a; to_loc = b; p } :: !events
        | [ "slow"; a; b; f ] ->
          let f = float_of lineno "slow" f in
          if f < 1. then fail lineno "slow: factor %g must be >= 1" f
          else events := Latency_mult { from_loc = a; to_loc = b; factor = f } :: !events
        | [ "replica-lag"; table; site; lag ] ->
          let lag_ms = float_of lineno "replica-lag" lag in
          if lag_ms < 0. then fail lineno "replica-lag: lag %g must be >= 0" lag_ms
          else events := Replica_lag { table; site; lag_ms } :: !events
        | w :: _ -> fail lineno "unknown statement %S" w)
      (String.split_on_char '\n' text);
    match !error with
    | Some e -> Error e
    | None -> Ok { seed = !seed; events = List.rev !events }
end

type t = {
  locations : Location.t list;
  alpha : (Location.t * Location.t, float) Hashtbl.t;
  beta : (Location.t * Location.t, float) Hashtbl.t;
  default : (float * float) option;
      (* (alpha, beta) for pairs absent from the tables; [None] makes a
         lookup miss a hard [Unknown_link] error, so a chaos mask can
         never be silently absorbed by a fallback cost *)
  faults : Fault.schedule;
}

let locations t = t.locations
let faults t = t.faults
let with_faults t faults = { t with faults }

let alpha t i j =
  if String.equal i j then 0.
  else
    match Hashtbl.find_opt t.alpha (i, j) with
    | Some a -> a
    | None -> (
      match t.default with Some (a, _) -> a | None -> raise (Unknown_link (i, j)))

let beta t i j =
  if String.equal i j then 0.
  else
    match Hashtbl.find_opt t.beta (i, j) with
    | Some b -> b
    | None -> (
      match t.default with Some (_, b) -> b | None -> raise (Unknown_link (i, j)))

let site_up t l = not (Fault.site_down t.faults l)
let link_up t ~from_loc ~to_loc = not (Fault.link_down t.faults ~from_loc ~to_loc)

(* Cost in milliseconds of shipping [bytes] from [i] to [j]. Local moves
   are free: a SHIP between co-located operators is a no-op. Links the
   attached fault schedule marks down cost [infinity] (infeasible to the
   site selector); latency multipliers inflate the healthy cost. *)
let ship_cost t ~from_loc ~to_loc ~bytes =
  if String.equal from_loc to_loc then 0.
  else if Fault.link_down t.faults ~from_loc ~to_loc then Float.infinity
  else
    (alpha t from_loc to_loc +. (beta t from_loc to_loc *. bytes))
    *. Fault.latency_factor t.faults ~from_loc ~to_loc

let make ?default ~locations ~links () =
  let alpha = Hashtbl.create 16 and beta = Hashtbl.create 16 in
  List.iter
    (fun (i, j, a, b) ->
      Hashtbl.replace alpha (i, j) a;
      Hashtbl.replace beta (i, j) b;
      (* links are symmetric unless overridden later *)
      if not (Hashtbl.mem alpha (j, i)) then begin
        Hashtbl.replace alpha (j, i) a;
        Hashtbl.replace beta (j, i) b
      end)
    links;
  { locations; alpha; beta; default; faults = Fault.empty }

(* A fully-connected network with uniform link parameters; convenient
   for tests and for the scalability experiments with many sites. *)
let uniform ~locations ~alpha:a ~beta:b =
  let tbl_a = Hashtbl.create 16 and tbl_b = Hashtbl.create 16 in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if not (String.equal i j) then begin
            Hashtbl.replace tbl_a (i, j) a;
            Hashtbl.replace tbl_b (i, j) b
          end)
        locations)
    locations;
  { locations; alpha = tbl_a; beta = tbl_b; default = None; faults = Fault.empty }

(* The paper's five regions (footnote 12): Europe, Africa, Asia,
   North America, Middle East as locations L1–L5. Start-up costs are
   ping round-trip times (ms); per-byte costs derive from measured
   inter-region throughput. Values are representative public-cloud
   inter-region numbers; only their relative magnitudes matter. *)
let paper_default () =
  let l1 = "L1" (* Europe *)
  and l2 = "L2" (* Africa *)
  and l3 = "L3" (* Asia *)
  and l4 = "L4" (* North America *)
  and l5 = "L5" (* Middle East *) in
  make ()
    ~locations:[ l1; l2; l3; l4; l5 ]
    ~links:
      [
        (l1, l2, 155., 1.9e-6);
        (l1, l3, 240., 2.9e-6);
        (l1, l4, 90., 1.1e-6);
        (l1, l5, 110., 1.4e-6);
        (l2, l3, 330., 4.1e-6);
        (l2, l4, 220., 2.8e-6);
        (l2, l5, 190., 2.4e-6);
        (l3, l4, 180., 2.2e-6);
        (l3, l5, 140., 1.8e-6);
        (l4, l5, 200., 2.5e-6);
      ]
