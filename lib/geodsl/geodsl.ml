(* A small text language for defining geo-distributed catalogs, so the
   system can be deployed without writing OCaml:

   {v
   # comments start with '#'
   network uniform alpha 150 beta 0.000002
   location l1
   location l2
   link l1 l2 alpha 90 beta 0.0000011

   table customer at db-1 on l1 rows 150000 (
     custkey int key distinct 150000,
     name string width 18,
     acctbal float min -999 max 9999 distinct 15000,
     nationkey int distinct 25
   )
   table orders at db-1 on l1, l2 rows 1500000 ( ... )   # partitioned evenly
   v}

   Identifiers are lowercased by the lexer, so location names are
   case-insensitive. Tables listed [on] several locations are
   horizontally partitioned in equal fractions. *)

open Relalg
module Lexer = Sqlfront.Lexer

exception Error of string

let fail fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

(* --- token-stream helpers (comments stripped before lexing) --- *)

let strip_comments text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match String.index_opt line '#' with
         | Some i -> String.sub line 0 i
         | None -> line)
  |> String.concat "\n"

type state = { mutable toks : Lexer.token list }

let peek st = match st.toks with [] -> Lexer.Eof | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let ident st =
  match peek st with
  | Lexer.Ident s ->
    advance st;
    s
  | t -> fail "expected identifier, found %s" (Lexer.token_to_string t)

let expect st tok =
  if peek st = tok then advance st
  else fail "expected %s, found %s" (Lexer.token_to_string tok)
         (Lexer.token_to_string (peek st))

let number st =
  match peek st with
  | Lexer.Int_lit i ->
    advance st;
    float_of_int i
  | Lexer.Float_lit f ->
    advance st;
    f
  | Lexer.Minus ->
    advance st;
    -.(match peek st with
      | Lexer.Int_lit i ->
        advance st;
        float_of_int i
      | Lexer.Float_lit f ->
        advance st;
        f
      | t -> fail "expected number after '-', found %s" (Lexer.token_to_string t))
  | t -> fail "expected number, found %s" (Lexer.token_to_string t)

let int_number st =
  let f = number st in
  if Float.is_integer f then int_of_float f else fail "expected an integer, got %g" f

(* --- grammar --- *)

let ty_of_string = function
  | "int" -> Value.Tint
  | "float" -> Value.Tfloat
  | "string" | "text" -> Value.Tstr
  | "date" -> Value.Tdate
  | "bool" -> Value.Tbool
  | s -> fail "unknown column type %s" s

let parse_column st : Catalog.Table_def.column * bool =
  let name = ident st in
  let ty = ty_of_string (ident st) in
  let stat = ref Catalog.Table_def.default_stat in
  let is_key = ref false in
  let rec options () =
    match peek st with
    | Lexer.Ident "key" ->
      advance st;
      is_key := true;
      options ()
    | Lexer.Ident "distinct" ->
      advance st;
      stat := { !stat with Catalog.Table_def.distinct = int_number st };
      options ()
    | Lexer.Ident "width" ->
      advance st;
      stat := { !stat with Catalog.Table_def.width = int_number st };
      options ()
    | Lexer.Ident "min" ->
      advance st;
      stat := { !stat with Catalog.Table_def.lo = Some (number st) };
      options ()
    | Lexer.Ident "max" ->
      advance st;
      stat := { !stat with Catalog.Table_def.hi = Some (number st) };
      options ()
    | _ -> ()
  in
  options ();
  (Catalog.Table_def.column ~stat:!stat name ty, !is_key)

let parse_table st : Catalog.Table_def.t * Catalog.placement list =
  let name = ident st in
  (match ident st with "at" -> () | k -> fail "expected 'at', found %s" k);
  let db = ident st in
  (match ident st with "on" -> () | k -> fail "expected 'on', found %s" k);
  let rec locs acc =
    let l = ident st in
    match peek st with
    | Lexer.Comma ->
      advance st;
      locs (l :: acc)
    | _ -> List.rev (l :: acc)
  in
  let locations = locs [] in
  let rows =
    match peek st with
    | Lexer.Ident "rows" ->
      advance st;
      int_number st
    | _ -> 1000
  in
  expect st Lexer.Lparen;
  let rec columns acc =
    let c = parse_column st in
    match peek st with
    | Lexer.Comma ->
      advance st;
      columns (c :: acc)
    | _ ->
      expect st Lexer.Rparen;
      List.rev (c :: acc)
  in
  let cols = columns [] in
  let def =
    Catalog.Table_def.make ~name
      ~columns:(List.map fst cols)
      ~key:(List.filter_map (fun (c, k) -> if k then Some c.Catalog.Table_def.cname else None) cols)
      ~row_count:rows ()
  in
  let fraction = 1.0 /. float_of_int (List.length locations) in
  (def, List.map (fun location -> { Catalog.db; location; fraction }) locations)

type doc = {
  mutable uniform : (float * float) option;
  mutable locations : string list;
  mutable links : (string * string * float * float) list;
  mutable tables : (Catalog.Table_def.t * Catalog.placement list) list;
}

(* [parse_catalog text] builds a catalog from the schema language. *)
let parse_catalog (text : string) : Catalog.t =
  let st =
    { toks = (try Lexer.tokenize (strip_comments text) with Lexer.Error m -> fail "%s" m) }
  in
  let doc = { uniform = None; locations = []; links = []; tables = [] } in
  let rec statements () =
    match peek st with
    | Lexer.Eof -> ()
    | Lexer.Ident "network" ->
      advance st;
      (match ident st with "uniform" -> () | k -> fail "expected 'uniform', found %s" k);
      (match ident st with "alpha" -> () | k -> fail "expected 'alpha', found %s" k);
      let a = number st in
      (match ident st with "beta" -> () | k -> fail "expected 'beta', found %s" k);
      let b = number st in
      doc.uniform <- Some (a, b);
      statements ()
    | Lexer.Ident "location" ->
      advance st;
      doc.locations <- doc.locations @ [ ident st ];
      statements ()
    | Lexer.Ident "link" ->
      advance st;
      let i = ident st in
      let j = ident st in
      (match ident st with "alpha" -> () | k -> fail "expected 'alpha', found %s" k);
      let a = number st in
      (match ident st with "beta" -> () | k -> fail "expected 'beta', found %s" k);
      let b = number st in
      doc.links <- doc.links @ [ (i, j, a, b) ];
      statements ()
    | Lexer.Ident "table" ->
      advance st;
      doc.tables <- doc.tables @ [ parse_table st ];
      statements ()
    | t -> fail "unexpected token %s at top level" (Lexer.token_to_string t)
  in
  statements ();
  if doc.locations = [] then fail "no locations declared";
  (* validate table locations *)
  List.iter
    (fun (_, placements) ->
      List.iter
        (fun (p : Catalog.placement) ->
          if not (List.mem p.Catalog.location doc.locations) then
            fail "undeclared location %s" p.Catalog.location)
        placements)
    doc.tables;
  let network =
    let base_a, base_b = Option.value doc.uniform ~default:(150., 2e-6) in
    let n = Catalog.Network.uniform ~locations:doc.locations ~alpha:base_a ~beta:base_b in
    if doc.links = [] then n
    else begin
      (* overriding links: rebuild with explicit entries on top of the
         uniform base *)
      let all_pairs =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                if String.equal i j then None
                else
                  match
                    List.find_opt
                      (fun (a, b, _, _) ->
                        (a = i && b = j) || (a = j && b = i))
                      doc.links
                  with
                  | Some (_, _, al, be) -> Some (i, j, al, be)
                  | None -> Some (i, j, base_a, base_b))
              doc.locations)
          doc.locations
      in
      Catalog.Network.make ~locations:doc.locations ~links:all_pairs ()
    end
  in
  Catalog.make ~network doc.tables

let load_catalog_file path : Catalog.t =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_catalog text

(* [load_csv_dir ~cat dir] loads [dir]/<table>.csv for every table of
   the catalog into a database; partitioned tables are split round-robin
   like the TPC-H loader ([Database.add_round_robin]). A missing file
   loads as an empty relation with typed columns. *)
let load_csv_dir ~(cat : Catalog.t) (dir : string) : Storage.Database.t =
  let db = Storage.Database.create () in
  List.iter
    (fun (entry : Catalog.entry) ->
      let def = entry.Catalog.def in
      let name = def.Catalog.Table_def.name in
      let schema =
        List.map
          (fun (c : Catalog.Table_def.column) -> Attr.make ~rel:name ~name:c.cname)
          def.Catalog.Table_def.columns
      in
      let types =
        List.map (fun (c : Catalog.Table_def.column) -> c.ty) def.Catalog.Table_def.columns
      in
      let path = Filename.concat dir (name ^ ".csv") in
      let rel =
        if Sys.file_exists path then Storage.Csv.load_file ~schema ~types path
        else Storage.Csv.parse ~schema ~types ""
      in
      Storage.Database.add_round_robin db ~table:name
        ~partitions:(List.length entry.Catalog.placements) rel)
    (Catalog.all_tables cat);
  db
