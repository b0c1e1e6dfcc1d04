(** Parser for regular path expressions over edge labels.

    These appear on GraphLog/WG-Log dashed edges; syntax:
    [link], [index+], [(link|index)* ref?], ['.' = any label].
    Sequencing is by juxtaposition. *)

exception Error of string

val parse : string -> string Gql_regex.Syntax.t

(** Matching of a label symbol against a data label: the reserved ["*"]
    matches anything. *)
val symbol_matches : string -> string -> bool

val to_string : string Gql_regex.Syntax.t -> string
