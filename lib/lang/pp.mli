(** Pretty-printers from ASTs back to the textual concrete syntax.

    [parse (print x) = x] up to node renaming is property-tested; the
    printers are also what "export as text" would do in an editor. *)

val xmlgl_program : Gql_xmlgl.Ast.program -> string

val wglog_program : Gql_wglog.Ast.program -> string
