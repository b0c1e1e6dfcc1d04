(** Canonical printer for {!Ast} queries.

    [parse (query q) = q] and [query (parse (query q)) = query q] hold
    for every parseable source — the [match-vs-algebra] fuzz oracle
    asserts both on every generated case, and the shrinker relies on
    printing reduced ASTs back to source. *)

val cond : Ast.cond -> string

val chain : Ast.chain -> string

val ret : Ast.ret -> string

val query : Ast.query -> string
