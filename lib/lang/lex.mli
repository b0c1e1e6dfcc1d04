(** Token-level utilities shared by the two textual front-ends.

    The concrete syntax of both languages is deliberately line-based: a
    program is a sequence of declarations, one per line, mirroring how a
    visual editor would serialise a diagram (one line per node or edge).
    Comments run from [#] to end of line. *)

type token =
  | Ident of string
  | Str of string  (** "quoted" *)
  | Num of float
  | Regex of string  (** /slashed/ *)
  | Punct of char

exception Error of string * int

val err : int -> ('a, unit, string, 'b) format4 -> 'a

(** The pattern of a [/regex/] token, compiled once here so that a
    malformed one is a parse error on its line, not a failure at match
    time. *)
val regex : line:int -> string -> string

(** Tokenise one line. *)
val tokens_of_line : line:int -> string -> token list

(** Split source into (line number, tokens) for non-empty lines. *)
val tokenise : string -> (int * token list) list

val pp_token : token -> string
