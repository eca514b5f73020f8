(* Engine selection: the vectorized executor ([Vector]) is the default
   and the one production engine; the row-at-a-time interpreter
   ([Interp]) stays available as the reference engine for differential
   testing and debugging. Both are byte-identical on results, SHIP
   accounting and profiles. *)

type t = Reference | Vector

let to_string = function
  | Reference -> "reference"
  | Vector -> "vector"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "reference" | "interp" | "interpreter" -> Some Reference
  | "vector" | "vectorized" -> Some Vector
  | _ -> None

let default () =
  match Sys.getenv_opt "CGQP_ENGINE" with
  | None | Some "" -> Vector
  | Some s -> (
    match of_string s with
    | Some e -> e
    | None ->
      invalid_arg
        (Printf.sprintf "CGQP_ENGINE=%S: expected \"reference\" or \"vector\"" s))

let run ?(engine = Vector) ?faults ?retry ?budget ~network ~db ~table_cols plan =
  match engine with
  | Reference -> Interp.run ?faults ?retry ?budget ~network ~db ~table_cols plan
  | Vector -> Vector.run ?faults ?retry ?budget ~network ~db ~table_cols plan
