(* Observability backbone: a minimal JSON codec, a ring-buffered typed
   event tracer, and a global metrics registry. Stdlib-only by design —
   every layer of the system (optimizer, policy evaluator, executor,
   CLI, bench) links against this without dependency cycles.

   The tracer is off by default and every emission site is guarded by a
   single flag test, so instrumented hot paths keep their
   un-instrumented speed and — since tracing only ever observes —
   byte-identical outputs. The metrics registry is always on; an
   increment is one integer add behind a hashtable-free pointer.

   All of this is plain mutable state: a process runs the library on
   one domain. *)

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

  (* One ring holding the most recent [Array.length buf] events; when
     full, a write evicts the oldest event and bumps [dropped]. *)
  type ring = {
    mutable buf : event option array;
    mutable head : int;  (* next write slot *)
    mutable stored : int;
    mutable dropped : int;
    mutable next_seq : int;
    mutable depth : int;  (* span nesting *)
  }

  let on = ref false

  let ring =
    { buf = [| None |]; head = 0; stored = 0; dropped = 0; next_seq = 0; depth = 0 }

  let enabled () = !on

  let clear () =
    Array.fill ring.buf 0 (Array.length ring.buf) None;
    ring.head <- 0;
    ring.stored <- 0;
    ring.dropped <- 0;
    ring.next_seq <- 0;
    ring.depth <- 0

  let enable ?(capacity = 65536) () =
    ring.buf <- Array.make (max 1 capacity) None;
    clear ();
    t0 := !clock ();
    on := true

  let disable () = on := false

  let push kind name attrs =
    let e = { seq = ring.next_seq; ts_ms = now_ms (); kind; name; depth = ring.depth; attrs } in
    ring.next_seq <- ring.next_seq + 1;
    if ring.stored = Array.length ring.buf then ring.dropped <- ring.dropped + 1
    else ring.stored <- ring.stored + 1;
    ring.buf.(ring.head) <- Some e;
    ring.head <- (ring.head + 1) mod Array.length ring.buf

  let instant name attrs = if !on then push Instant name attrs

  let span name ?(attrs = []) f =
    if not !on then f ()
    else begin
      let start = now_ms () in
      push Begin name attrs;
      ring.depth <- ring.depth + 1;
      match f () with
      | v ->
        ring.depth <- ring.depth - 1;
        push End name [ ("dur_ms", Json.Num (now_ms () -. start)) ];
        v
      | exception exn ->
        ring.depth <- ring.depth - 1;
        push End name
          [ ("dur_ms", Json.Num (now_ms () -. start));
            ("error", Json.Str (Printexc.to_string exn)) ];
        raise exn
    end

  let events () =
    let len = Array.length ring.buf in
    let first = (ring.head - ring.stored + len) mod len in
    List.init ring.stored (fun i ->
        match ring.buf.((first + i) mod len) with
        | Some e -> e
        | None -> assert false)

  let dropped () = ring.dropped

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
        ("attrs", Json.Obj e.attrs);
      ]

  let event_of_json (j : Json.t) : (event, string) result =
    let str = function Json.Str s -> Some s | _ -> None in
    let num = function Json.Num f -> Some f | _ -> None in
    let field k conv = Option.bind (Json.member k j) conv in
    (* unknown fields are ignored, so traces that still carry the
       retired "dom" field load too *)
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
          { seq = int_of_float seq; ts_ms; kind; name; depth = int_of_float depth; attrs }
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
    Format.fprintf ppf "%6d %9.3fms %s%s %s%s" e.seq e.ts_ms
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
  type counter = int ref

  type histogram = {
    bounds : float array;  (* inclusive upper bounds, ascending *)
    counts : int array;  (* length = Array.length bounds + 1 (+inf) *)
    mutable sum : float;
    mutable n : int;
  }

  type instrument =
    | Counter of counter
    | Histogram of histogram
    | Gauge of (unit -> float) ref

  (* Registry keyed by (name, sorted labels). *)
  let registry : (string * (string * string) list, instrument) Hashtbl.t =
    Hashtbl.create 64

  let key name labels =
    (name, List.sort (fun (a, _) (b, _) -> String.compare a b) labels)

  let kind_name = function
    | Counter _ -> "counter"
    | Histogram _ -> "histogram"
    | Gauge _ -> "gauge"

  let already name inst =
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name (kind_name inst))

  let register name labels make check =
    let k = key name labels in
    match Hashtbl.find_opt registry k with
    | Some inst -> (
      match check inst with Some v -> v | None -> already name inst)
    | None ->
      let inst, v = make () in
      Hashtbl.replace registry k inst;
      v

  let counter ?(labels = []) name =
    register name labels
      (fun () ->
        let c = ref 0 in
        (Counter c, c))
      (function Counter c -> Some c | _ -> None)

  let inc ?(by = 1) c = c := !c + by
  let value c = !c

  let default_buckets = [ 0.001; 0.01; 0.1; 1.; 10.; 100.; 1000.; 10000. ]

  let histogram ?(labels = []) ?(buckets = default_buckets) name =
    register name labels
      (fun () ->
        let bounds = Array.of_list (List.sort_uniq Float.compare buckets) in
        let h = { bounds; counts = Array.make (Array.length bounds + 1) 0; sum = 0.; n = 0 } in
        (Histogram h, h))
      (function Histogram h -> Some h | _ -> None)

  let observe h v =
    let rec slot i =
      if i >= Array.length h.bounds then i
      else if v <= h.bounds.(i) then i
      else slot (i + 1)
    in
    let i = slot 0 in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum +. v;
    h.n <- h.n + 1

  let hist_count h = h.n
  let hist_sum h = h.sum

  let gauge ?(labels = []) name f =
    let k = key name labels in
    match Hashtbl.find_opt registry k with
    | Some (Gauge r) -> r := f
    | Some inst -> already name inst
    | None -> Hashtbl.replace registry k (Gauge (ref f))

  let reset () =
    Hashtbl.iter
      (fun _ inst ->
        match inst with
        | Counter c -> c := 0
        | Histogram h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.sum <- 0.;
          h.n <- 0
        | Gauge _ -> ())
      registry

  let sorted_entries () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry []
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
                ("value", Json.Num (float_of_int !c)) ]
            :: !counters
        | Histogram h ->
          let buckets =
            List.init
              (Array.length h.counts)
              (fun i ->
                let le =
                  if i < Array.length h.bounds then Json.Num h.bounds.(i)
                  else Json.Str "+inf"
                in
                Json.Obj [ ("le", le); ("count", Json.Num (float_of_int h.counts.(i))) ])
          in
          histograms :=
            Json.Obj
              [ ("name", Json.Str name); ("labels", labels_json labels);
                ("count", Json.Num (float_of_int h.n)); ("sum", Json.Num h.sum);
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
        | Counter c -> if !c <> 0 then Format.fprintf ppf "%-64s %d@." id !c
        | Histogram h ->
          if h.n <> 0 then
            Format.fprintf ppf "%-64s n=%d sum=%.3f mean=%.3f@." id h.n h.sum
              (h.sum /. float_of_int h.n)
        | Gauge f -> Format.fprintf ppf "%-64s %.0f@." id (!f ()))
      (sorted_entries ())
end
