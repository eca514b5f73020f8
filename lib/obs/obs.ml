(* Observability backbone: a minimal JSON codec, a ring-buffered typed
   event tracer, and a global metrics registry. Stdlib-only by design —
   every layer of the system (optimizer, policy evaluator, executor,
   CLI, bench) links against this without dependency cycles.

   The tracer is off by default and every emission site is guarded by a
   single flag test, so instrumented hot paths keep their
   un-instrumented speed and — since tracing only ever observes —
   byte-identical outputs. The metrics registry is always on; an
   increment is one atomic fetch-and-add behind a hashtable-free
   pointer.

   Domain-safety (docs/ARCHITECTURE.md, "Domain safety"): counters are atomics;
   histograms are sharded per domain and merged on read, so totals are
   order-independent; trace events land in per-domain ring buffers and
   [Trace.events] merges them by (domain tag, per-domain sequence) —
   deterministic as long as work is assigned to domains
   deterministically. *)

(* --- JSON ---------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let add_num b f =
    if f <> f then Buffer.add_string b "null" (* nan: no JSON spelling *)
    else if f = Float.infinity then Buffer.add_string b "1e999"
    else if f = Float.neg_infinity then Buffer.add_string b "-1e999"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    else
      (* shortest representation that still parses back to the same
         float, so traces round-trip exactly *)
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then Buffer.add_string b s
      else Buffer.add_string b (Printf.sprintf "%.17g" f)

  let to_string (v : t) : string =
    let b = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string b "null"
      | Bool true -> Buffer.add_string b "true"
      | Bool false -> Buffer.add_string b "false"
      | Num f -> add_num b f
      | Str s -> escape_string b s
      | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
      | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            go x)
          kvs;
        Buffer.add_char b '}'
    in
    go v;
    Buffer.contents b

  exception Parse_error of int * string

  (* Recursive-descent parser over the string; accepts (at least)
     everything [to_string] emits, plus insignificant whitespace. *)
  let of_string (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.contents b
          | '\\' -> (
            if !pos >= n then fail "unterminated escape"
            else
              let e = s.[!pos] in
              advance ();
              match e with
              | '"' | '\\' | '/' ->
                Buffer.add_char b e;
                go ()
              | 'n' ->
                Buffer.add_char b '\n';
                go ()
              | 'r' ->
                Buffer.add_char b '\r';
                go ()
              | 't' ->
                Buffer.add_char b '\t';
                go ()
              | 'b' ->
                Buffer.add_char b '\b';
                go ()
              | 'f' ->
                Buffer.add_char b '\012';
                go ()
              | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape"
                else begin
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail "bad \\u escape"
                  in
                  (* Encode the code point as UTF-8 (BMP only — that is
                     all the printer ever emits, for control chars). *)
                  if code < 0x80 then Buffer.add_char b (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                  end;
                  go ()
                end
              | _ -> fail "bad escape")
          | c ->
            Buffer.add_char b c;
            go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      if !pos = start then fail "expected number"
      else
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> f
        | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := field () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing input";
      v
    with
    | v -> Ok v
    | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | Null | Bool _ | Num _ | Str _ | Arr _ -> None
end

(* --- Tracing ------------------------------------------------------- *)

module Trace = struct
  type kind = Begin | End | Instant

  type event = {
    seq : int;
    ts_ms : float;
    kind : kind;
    name : string;
    depth : int;
    dom : int;  (* domain tag the event was emitted from (0 = main) *)
    attrs : (string * Json.t) list;
  }

  (* Clock: process CPU time by default (the only clock the stdlib
     offers); callers with [unix] linked may install a wall clock, and
     tests install a deterministic counter. *)
  let clock : (unit -> float) ref = ref (fun () -> Sys.time () *. 1000.)
  let t0 = ref 0.
  let set_clock f =
    clock := f;
    t0 := f ()

  let now_ms () = !clock () -. !t0

  (* Each domain records into its own ring buffer: the ring holds that
     domain's most recent [cap] events; when full, writes evict the
     oldest event and bump [dropped]. Buffers register themselves (once,
     under [reg_lock]) so [events] can merge across domains; [gen]
     invalidates every buffer wholesale on enable/clear without
     reaching into other domains' local storage. *)
  type buf_state = {
    mutable tag : int;  (* merge rank (0 = main, else set_domain_tag's) *)
    bgen : int;
    buf : event option array;
    mutable head : int;  (* next write slot *)
    mutable stored : int;
    mutable dropped : int;
    mutable next_seq : int;  (* per-domain emission index *)
    mutable depth : int;  (* per-domain span nesting *)
  }

  let on = ref false
  let cap = ref 0
  let gen = ref 0
  let registry : buf_state list ref = ref []
  let reg_lock = Mutex.create ()

  let tag_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

  let state_key : buf_state option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let set_domain_tag t =
    Domain.DLS.set tag_key t;
    match Domain.DLS.get state_key with
    | Some st -> st.tag <- t
    | None -> ()

  let local_state () =
    match Domain.DLS.get state_key with
    | Some st when st.bgen = !gen -> st
    | _ ->
      let st =
        {
          tag = Domain.DLS.get tag_key;
          bgen = !gen;
          buf = Array.make (max 1 !cap) None;
          head = 0;
          stored = 0;
          dropped = 0;
          next_seq = 0;
          depth = 0;
        }
      in
      Mutex.protect reg_lock (fun () -> registry := st :: !registry);
      Domain.DLS.set state_key (Some st);
      st

  let enabled () = !on

  (* Enable/clear/disable/events are main-domain operations: call them
     with no worker domain emitting. *)
  let clear () =
    incr gen;
    Mutex.protect reg_lock (fun () -> registry := [])

  let enable ?(capacity = 65536) () =
    cap := max 1 capacity;
    clear ();
    t0 := !clock ();
    on := true

  let disable () = on := false

  let push kind name attrs =
    let st = local_state () in
    let e =
      { seq = st.next_seq; ts_ms = now_ms (); kind; name; depth = st.depth;
        dom = st.tag; attrs }
    in
    st.next_seq <- st.next_seq + 1;
    if st.stored = Array.length st.buf then st.dropped <- st.dropped + 1
    else st.stored <- st.stored + 1;
    st.buf.(st.head) <- Some e;
    st.head <- (st.head + 1) mod Array.length st.buf

  let instant name attrs = if !on then push Instant name attrs

  let span name ?(attrs = []) f =
    if not !on then f ()
    else begin
      let start = now_ms () in
      push Begin name attrs;
      let st = local_state () in
      st.depth <- st.depth + 1;
      match f () with
      | v ->
        st.depth <- st.depth - 1;
        push End name [ ("dur_ms", Json.Num (now_ms () -. start)) ];
        v
      | exception exn ->
        st.depth <- st.depth - 1;
        push End name
          [ ("dur_ms", Json.Num (now_ms () -. start));
            ("error", Json.Str (Printexc.to_string exn)) ];
        raise exn
    end

  let buffer_events (st : buf_state) =
    if st.stored = 0 then []
    else begin
      let len = Array.length st.buf in
      let first = (st.head - st.stored + len) mod len in
      List.init st.stored (fun i ->
          match st.buf.((first + i) mod len) with
          | Some e -> e
          | None -> assert false)
    end

  (* Merge every domain's buffer, ordered by (domain tag, per-domain
     seq): deterministic given a deterministic assignment of work to
     tags, independent of the real-time interleaving of domains. *)
  let events () =
    let bufs = Mutex.protect reg_lock (fun () -> !registry) in
    List.concat_map buffer_events bufs
    |> List.stable_sort (fun a b ->
           match compare a.dom b.dom with 0 -> compare a.seq b.seq | c -> c)

  let dropped () =
    let bufs = Mutex.protect reg_lock (fun () -> !registry) in
    List.fold_left (fun acc st -> acc + st.dropped) 0 bufs

  let kind_to_string = function Begin -> "B" | End -> "E" | Instant -> "I"

  let kind_of_string = function
    | "B" -> Some Begin
    | "E" -> Some End
    | "I" -> Some Instant
    | _ -> None

  let event_to_json (e : event) : Json.t =
    Json.Obj
      [
        ("seq", Json.Num (float_of_int e.seq));
        ("ts_ms", Json.Num e.ts_ms);
        ("kind", Json.Str (kind_to_string e.kind));
        ("name", Json.Str e.name);
        ("depth", Json.Num (float_of_int e.depth));
        ("dom", Json.Num (float_of_int e.dom));
        ("attrs", Json.Obj e.attrs);
      ]

  let event_of_json (j : Json.t) : (event, string) result =
    let str = function Json.Str s -> Some s | _ -> None in
    let num = function Json.Num f -> Some f | _ -> None in
    let field k conv = Option.bind (Json.member k j) conv in
    (* "dom" is optional so pre-multicore traces still load *)
    let dom =
      match field "dom" num with Some d -> int_of_float d | None -> 0
    in
    match
      ( field "seq" num,
        field "ts_ms" num,
        field "kind" str,
        field "name" str,
        field "depth" num,
        Json.member "attrs" j )
    with
    | Some seq, Some ts_ms, Some kind, Some name, Some depth, Some (Json.Obj attrs)
      -> (
      match kind_of_string kind with
      | Some kind ->
        Ok
          { seq = int_of_float seq; ts_ms; kind; name; depth = int_of_float depth;
            dom; attrs }
      | None -> Error ("unknown event kind: " ^ kind))
    | _ -> Error "missing or ill-typed event field"

  let to_jsonl () =
    String.concat ""
      (List.map (fun e -> Json.to_string (event_to_json e) ^ "\n") (events ()))

  let write_jsonl oc =
    List.iter
      (fun e ->
        output_string oc (Json.to_string (event_to_json e));
        output_char oc '\n')
      (events ())

  let pp_event ppf (e : event) =
    Format.fprintf ppf "%s%6d %9.3fms %s%s %s%s"
      (if e.dom = 0 then "" else Printf.sprintf "d%d:" e.dom)
      e.seq e.ts_ms
      (String.make (2 * e.depth) ' ')
      (kind_to_string e.kind) e.name
      (match e.attrs with
      | [] -> ""
      | attrs ->
        " "
        ^ String.concat " "
            (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) attrs))
end

(* --- Metrics ------------------------------------------------------- *)

module Metrics = struct
  type counter = int Atomic.t

  (* One shard per (histogram, domain): [observe] touches only the
     calling domain's shard, readers merge under the histogram's lock.
     Merged totals are sums, hence independent of emission order. *)
  type hshard = {
    counts : int array;  (* length = Array.length bounds + 1 (+inf) *)
    mutable sum : float;
    mutable n : int;
  }

  type histogram = {
    hid : int;
    bounds : float array;  (* inclusive upper bounds, ascending *)
    mutable shards : hshard list;
    hlock : Mutex.t;
  }

  type instrument =
    | Counter of counter
    | Histogram of histogram
    | Gauge of (unit -> float) ref

  let next_hid = Atomic.make 0

  (* Registry keyed by (name, sorted labels); registration and reads
     are rare, so one lock covers them (increments never touch it). *)
  let registry : (string * (string * string) list, instrument) Hashtbl.t =
    Hashtbl.create 64

  let registry_lock = Mutex.create ()

  let key name labels =
    (name, List.sort (fun (a, _) (b, _) -> String.compare a b) labels)

  let kind_name = function
    | Counter _ -> "counter"
    | Histogram _ -> "histogram"
    | Gauge _ -> "gauge"

  let register name labels make check =
    Mutex.protect registry_lock (fun () ->
        let k = key name labels in
        match Hashtbl.find_opt registry k with
        | Some inst -> (
          match check inst with
          | Some v -> v
          | None ->
            invalid_arg
              (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
                 (kind_name inst)))
        | None ->
          let inst, v = make () in
          Hashtbl.replace registry k inst;
          v)

  let counter ?(labels = []) name =
    register name labels
      (fun () ->
        let c = Atomic.make 0 in
        (Counter c, c))
      (function Counter c -> Some c | _ -> None)

  let inc ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
  let value c = Atomic.get c

  let default_buckets = [ 0.001; 0.01; 0.1; 1.; 10.; 100.; 1000.; 10000. ]

  let histogram ?(labels = []) ?(buckets = default_buckets) name =
    register name labels
      (fun () ->
        let bounds = Array.of_list (List.sort_uniq Float.compare buckets) in
        let h =
          { hid = Atomic.fetch_and_add next_hid 1; bounds; shards = [];
            hlock = Mutex.create () }
        in
        (Histogram h, h))
      (function Histogram h -> Some h | _ -> None)

  (* The calling domain's shard of [h], created and registered on first
     use. The DLS table maps histogram ids to shards for this domain. *)
  let shard_key : (int, hshard) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 8)

  let shard (h : histogram) : hshard =
    let t = Domain.DLS.get shard_key in
    match Hashtbl.find_opt t h.hid with
    | Some s -> s
    | None ->
      let s = { counts = Array.make (Array.length h.bounds + 1) 0; sum = 0.; n = 0 } in
      Mutex.protect h.hlock (fun () -> h.shards <- s :: h.shards);
      Hashtbl.add t h.hid s;
      s

  let observe h v =
    let s = shard h in
    let rec slot i =
      if i >= Array.length h.bounds then i
      else if v <= h.bounds.(i) then i
      else slot (i + 1)
    in
    let i = slot 0 in
    s.counts.(i) <- s.counts.(i) + 1;
    s.sum <- s.sum +. v;
    s.n <- s.n + 1

  (* Merged view of a histogram across all shards. *)
  let merged h =
    Mutex.protect h.hlock (fun () ->
        let counts = Array.make (Array.length h.bounds + 1) 0 in
        let sum = ref 0. and n = ref 0 in
        List.iter
          (fun s ->
            Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.counts;
            sum := !sum +. s.sum;
            n := !n + s.n)
          h.shards;
        (counts, !sum, !n))

  let hist_count h =
    let _, _, n = merged h in
    n

  let hist_sum h =
    let _, sum, _ = merged h in
    sum

  let gauge ?(labels = []) name f =
    Mutex.protect registry_lock (fun () ->
        let k = key name labels in
        match Hashtbl.find_opt registry k with
        | Some (Gauge r) -> r := f
        | Some inst ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_name inst))
        | None -> Hashtbl.replace registry k (Gauge (ref f)))

  let reset () =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.iter
          (fun _ inst ->
            match inst with
            | Counter c -> Atomic.set c 0
            | Histogram h ->
              Mutex.protect h.hlock (fun () ->
                  List.iter
                    (fun s ->
                      Array.fill s.counts 0 (Array.length s.counts) 0;
                      s.sum <- 0.;
                      s.n <- 0)
                    h.shards)
            | Gauge _ -> ())
          registry)

  let sorted_entries () =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [])
    |> List.sort (fun ((n1, l1), _) ((n2, l2), _) ->
           match String.compare n1 n2 with
           | 0 -> List.compare (fun (a, b) (c, d) ->
                      match String.compare a c with
                      | 0 -> String.compare b d
                      | x -> x)
                    l1 l2
           | x -> x)

  let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

  let dump () : Json.t =
    let counters = ref [] and histograms = ref [] and gauges = ref [] in
    List.iter
      (fun ((name, labels), inst) ->
        match inst with
        | Counter c ->
          counters :=
            Json.Obj
              [ ("name", Json.Str name); ("labels", labels_json labels);
                ("value", Json.Num (float_of_int (Atomic.get c))) ]
            :: !counters
        | Histogram h ->
          let counts, sum, n = merged h in
          let buckets =
            List.init
              (Array.length counts)
              (fun i ->
                let le =
                  if i < Array.length h.bounds then Json.Num h.bounds.(i)
                  else Json.Str "+inf"
                in
                Json.Obj [ ("le", le); ("count", Json.Num (float_of_int counts.(i))) ])
          in
          histograms :=
            Json.Obj
              [ ("name", Json.Str name); ("labels", labels_json labels);
                ("count", Json.Num (float_of_int n)); ("sum", Json.Num sum);
                ("buckets", Json.Arr buckets) ]
            :: !histograms
        | Gauge f ->
          gauges :=
            Json.Obj
              [ ("name", Json.Str name); ("labels", labels_json labels);
                ("value", Json.Num (!f ())) ]
            :: !gauges)
      (sorted_entries ());
    Json.Obj
      [
        ("counters", Json.Arr (List.rev !counters));
        ("histograms", Json.Arr (List.rev !histograms));
        ("gauges", Json.Arr (List.rev !gauges));
      ]

  let render ppf () =
    let label_string labels =
      match labels with
      | [] -> ""
      | ls ->
        "{"
        ^ String.concat "," (List.map (fun (k, v) -> k ^ "=\"" ^ v ^ "\"") ls)
        ^ "}"
    in
    List.iter
      (fun ((name, labels), inst) ->
        let id = name ^ label_string labels in
        match inst with
        | Counter c ->
          let v = Atomic.get c in
          if v <> 0 then Format.fprintf ppf "%-64s %d@." id v
        | Histogram h ->
          let _, sum, n = merged h in
          if n <> 0 then
            Format.fprintf ppf "%-64s n=%d sum=%.3f mean=%.3f@." id n sum
              (sum /. float_of_int n)
        | Gauge f -> Format.fprintf ppf "%-64s %.0f@." id (!f ()))
      (sorted_entries ())
end
