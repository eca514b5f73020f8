(* Wall-clock span recorder for the traced run.

   The suite records its own spans around the calls it makes into each
   layer, so the program's internal tracing ([Obs.Trace]) stays off and
   untouched. Spans live in growable parallel arrays (no allocation per
   span beyond the name pointer) and are written as JSON lines when the
   run ends. A disabled recorder runs the wrapped function and records
   nothing, which is how the suite times the same decomposed pipeline
   with and without tracing. *)

type t = {
  enabled : bool;
  mutable len : int;
  mutable name : string array;
  mutable stmt : int array;
  mutable parent : int array;  (* index of the enclosing span, -1 for a root *)
  mutable start : float array;
  mutable stop : float array;
}

let create ?(enabled = true) () =
  let n = 4096 in
  {
    enabled;
    len = 0;
    name = Array.make n "";
    stmt = Array.make n 0;
    parent = Array.make n (-1);
    start = Array.make n 0.;
    stop = Array.make n 0.;
  }

let grow t =
  let n = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- extend t.name "";
  t.stmt <- extend t.stmt 0;
  t.parent <- extend t.parent (-1);
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.

(* Returns the span's index, or -1 when the recorder is disabled. *)
let enter t name ~stmt ~parent =
  if not t.enabled then -1
  else begin
    if t.len = Array.length t.name then grow t;
    let id = t.len in
    t.name.(id) <- name;
    t.stmt.(id) <- stmt;
    t.parent.(id) <- parent;
    t.len <- id + 1;
    t.start.(id) <- Unix.gettimeofday ();
    id
  end

let leave t id = if id >= 0 then t.stop.(id) <- Unix.gettimeofday ()

let span t name ~stmt ~parent f =
  let id = enter t name ~stmt ~parent in
  match f () with
  | v ->
    leave t id;
    v
  | exception e ->
    leave t id;
    raise e

let count t = t.len

(* Self time per span name, in seconds: each span's duration minus the
   part its direct children cover. Children never outlive their parent,
   so subtracting their durations is exact. *)
let self_times t =
  let self = Array.init t.len (fun i -> t.stop.(i) -. t.start.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (t.stop.(i) -. t.start.(i))
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let prev = Option.value (Hashtbl.find_opt acc t.name.(i)) ~default:0. in
    Hashtbl.replace acc t.name.(i) (prev +. self.(i))
  done;
  acc

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  for i = 0 to t.len - 1 do
    output_string oc
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("name", Obs.Json.Str t.name.(i));
              ("stmt", Obs.Json.Num (float_of_int t.stmt.(i)));
              ("parent", Obs.Json.Num (float_of_int t.parent.(i)));
              ("start", Obs.Json.Num t.start.(i));
              ("end", Obs.Json.Num t.stop.(i));
            ]));
    output_char oc '\n'
  done

(* Seconds the recorder adds per span: an empty span, averaged over
   many. Times the span count, this is what tracing costs a run. *)
let cost_per_span () =
  let t = create () in
  let n = 100_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    leave t (enter t "calibration" ~stmt:i ~parent:(-1))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n
