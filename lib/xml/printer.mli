(** Serialisation of the document model back to XML text.

    Two modes: {!to_string} emits compact markup that re-parses to an
    equal tree (round-trip tested); {!to_string_pretty} indents
    element-only content for human consumption, leaving mixed content
    untouched so no significant whitespace is invented. *)

val node_to_string : Tree.node -> string

val to_string : Tree.doc -> string

val element_to_string_pretty : Tree.element -> string

val to_string_pretty : Tree.doc -> string
