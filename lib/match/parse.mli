(** Parser for the textual [MATCH] language.

    The grammar is deliberately line-oriented: every clause occupies
    exactly one line, blank lines and [#] comment lines are skipped,
    the first clause must be [MATCH] (that is what
    {!Gql_core.Gql.language_of_source} sniffs on) and [RETURN] must be
    the last.  Errors carry 1-based line and column positions in the
    same [%s at ...] shape as {!Gql_lang.Label_re.parse}. *)

exception Error of string

val parse_result : string -> (Ast.query, string) result

val parse : string -> Ast.query
