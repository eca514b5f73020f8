(* Hand-written lexer for the SQL subset and for policy expressions.

   Identifiers may contain '-' when the character that follows is a
   letter (needed for database names such as "db-5"); consequently,
   subtraction between two column references must be written with
   surrounding spaces ("a - b"). *)

type token =
  | Ident of string  (* lowercased *)
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Star
  | Comma
  | Dot
  | Lparen
  | Rparen
  | Plus
  | Minus
  | Slash
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | Eof

exception Error of string

let pp_token ppf = function
  | Ident s -> Fmt.pf ppf "ident %s" s
  | Int_lit i -> Fmt.pf ppf "int %d" i
  | Float_lit f -> Fmt.pf ppf "float %g" f
  | String_lit s -> Fmt.pf ppf "string '%s'" s
  | Star -> Fmt.string ppf "*"
  | Comma -> Fmt.string ppf ","
  | Dot -> Fmt.string ppf "."
  | Lparen -> Fmt.string ppf "("
  | Rparen -> Fmt.string ppf ")"
  | Plus -> Fmt.string ppf "+"
  | Minus -> Fmt.string ppf "-"
  | Slash -> Fmt.string ppf "/"
  | Eq -> Fmt.string ppf "="
  | Neq -> Fmt.string ppf "<>"
  | Lt -> Fmt.string ppf "<"
  | Le -> Fmt.string ppf "<="
  | Gt -> Fmt.string ppf ">"
  | Ge -> Fmt.string ppf ">="
  | Eof -> Fmt.string ppf "<eof>"

let token_to_string t = Fmt.str "%a" pp_token t

let is_digit c = c >= '0' && c <= '9'
let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_start c = is_letter c || c = '_'
let is_ident_char c = is_letter c || is_digit c || c = '_'

let tokenize (s : string) : token list =
  let n = String.length s in
  let rec skip_ws i =
    if i < n && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r') then
      skip_ws (i + 1)
    else i
  in
  let rec lex acc i =
    let i = skip_ws i in
    if i >= n then List.rev (Eof :: acc)
    else
      let c = s.[i] in
      if is_ident_start c then begin
        let j = ref i in
        let continue = ref true in
        while !continue && !j < n do
          let cj = s.[!j] in
          if is_ident_char cj then incr j
          else if cj = '-' && !j + 1 < n && is_letter s.[!j + 1] then incr j
          else if cj = '-' && !j + 1 < n && is_digit s.[!j + 1]
                  && !j > i && is_letter s.[!j - 1] then
            (* "db-5": dash followed by digit, preceded by a letter *)
            incr j
          else continue := false
        done;
        let word = String.lowercase_ascii (String.sub s i (!j - i)) in
        lex (Ident word :: acc) !j
      end
      else if is_digit c then begin
        let j = ref i in
        while !j < n && is_digit s.[!j] do incr j done;
        if !j < n && s.[!j] = '.' && !j + 1 < n && is_digit s.[!j + 1] then begin
          incr j;
          while !j < n && is_digit s.[!j] do incr j done;
          let f = float_of_string (String.sub s i (!j - i)) in
          lex (Float_lit f :: acc) !j
        end
        else
          match int_of_string_opt (String.sub s i (!j - i)) with
          | Some v -> lex (Int_lit v :: acc) !j
          | None -> raise (Error (Printf.sprintf "integer literal out of range at offset %d" i))
      end
      else if c = '\'' then begin
        let buf = Buffer.create 16 in
        let rec scan j =
          if j >= n then raise (Error "unterminated string literal")
          else if s.[j] = '\'' then
            if j + 1 < n && s.[j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              scan (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buf s.[j];
            scan (j + 1)
          end
        in
        let j = scan (i + 1) in
        lex (String_lit (Buffer.contents buf) :: acc) j
      end
      else
        let two = if i + 1 < n then String.sub s i 2 else "" in
        match two with
        | "<>" -> lex (Neq :: acc) (i + 2)
        | "!=" -> lex (Neq :: acc) (i + 2)
        | "<=" -> lex (Le :: acc) (i + 2)
        | ">=" -> lex (Ge :: acc) (i + 2)
        | _ -> (
          match c with
          | '*' -> lex (Star :: acc) (i + 1)
          | ',' -> lex (Comma :: acc) (i + 1)
          | '.' -> lex (Dot :: acc) (i + 1)
          | '(' -> lex (Lparen :: acc) (i + 1)
          | ')' -> lex (Rparen :: acc) (i + 1)
          | '+' -> lex (Plus :: acc) (i + 1)
          | '-' -> lex (Minus :: acc) (i + 1)
          | '/' -> lex (Slash :: acc) (i + 1)
          | '=' -> lex (Eq :: acc) (i + 1)
          | '<' -> lex (Lt :: acc) (i + 1)
          | '>' -> lex (Gt :: acc) (i + 1)
          | _ -> raise (Error (Printf.sprintf "unexpected character %C at offset %d" c i)))
  in
  lex [] 0
