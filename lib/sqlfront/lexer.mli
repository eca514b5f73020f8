(** Hand-written lexer for the SQL subset and policy expressions.

    Identifiers are lowercased. They may contain ['-'] when followed by
    a letter, or by a digit after a letter (database names such as
    ["db-5"]); consequently, subtraction between two column references
    must be written with surrounding spaces (["a - b"]). String
    literals use single quotes with [''] escaping. *)

type token =
  | Ident of string  (** lowercased *)
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

val pp_token : Format.formatter -> token -> unit
val token_to_string : token -> string

val tokenize : string -> token list
(** The token list always ends with {!Eof}. Raises {!Error} on
    unexpected characters, unterminated strings and integer literals
    out of [int] range. *)
