(* A column reference, qualified by the relation alias (or base table
   name) it belongs to. [rel = ""] denotes an unqualified reference that
   name resolution must bind later. *)

type t = { rel : string; name : string }

(* [String.lowercase_ascii] copies even an all-lowercase string; names
   that have no ASCII uppercase letter are returned as they are. *)
let lower s =
  let rec has_upper i =
    i < String.length s
    && match String.unsafe_get s i with 'A' .. 'Z' -> true | _ -> has_upper (i + 1)
  in
  if has_upper 0 then String.lowercase_ascii s else s

let make ~rel ~name = { rel = lower rel; name = lower name }
let unqualified name = { rel = ""; name = lower name }
let is_qualified a = a.rel <> ""

let compare a b =
  match String.compare a.rel b.rel with 0 -> String.compare a.name b.name | c -> c

let equal a b = compare a b = 0

let pp ppf a = if a.rel = "" then Fmt.string ppf a.name else Fmt.pf ppf "%s.%s" a.rel a.name
let to_string a = Fmt.str "%a" pp a

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
