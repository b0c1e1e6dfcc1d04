(** Parser for the DTD internal-subset syntax.

    Accepts the text captured between [\[ \]] of a DOCTYPE (or a whole
    standalone [.dtd] file): <!ELEMENT>, <!ATTLIST>, comments and
    parameter-entity-free declarations.  Content models are parsed into
    [Gql_regex.Syntax] regexes over element names. *)

exception Error of string * int

val parse_subset : ?root_hint:string -> string -> Ast.t

(** Parse the DTD embedded in a document's DOCTYPE, if any. *)
val of_doc : Gql_xml.Tree.doc -> Ast.t option
