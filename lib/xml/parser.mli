(** Hand-written XML parser.

    Covers the XML 1.0 subset a semi-structured query system needs:
    prolog and XML declaration, DOCTYPE (with the raw internal subset
    captured for [Gql_dtd]), elements, attributes, character data, the
    five predefined entities plus decimal/hex character references,
    CDATA sections, comments and processing instructions.  Namespaces are
    treated lexically (colons are legal name characters), matching the
    paper's languages, which predate namespace-aware querying.

    Errors carry 1-based line/column positions. *)

type position = { line : int; col : int }

exception Error of string * position

(** Parse a complete document. *)
val parse_document : string -> Tree.doc

val parse_document_result : string -> (Tree.doc, string) result
