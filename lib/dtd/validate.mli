(** Document validation against a DTD.

    Element content is checked with the Glushkov automaton of the declared
    content model (built once per element declaration and cached), so
    validation is linear in document size.  Attribute checks cover
    presence of #REQUIRED, #FIXED value agreement, enumeration membership,
    and document-wide ID uniqueness / IDREF resolution. *)

type violation = {
  path : Gql_xml.Tree.path;
  element : string;
  message : string;
}

val violation : Gql_xml.Tree.path -> string -> string -> violation

val pp_violation : violation -> string

type compiled = {
  dtd : Ast.t;
  automata : (string, string Gql_regex.Glushkov.t) Hashtbl.t;
}

val compile : Ast.t -> compiled

(** Content models must be deterministic (1-unambiguous) per XML 1.0;
    returns the offending element names.  Only tests call it. *)
val nondeterministic_models : compiled -> string list

(** Validate a whole document.  Returns violations in document order. *)
val validate : Ast.t -> Gql_xml.Tree.doc -> violation list

val is_valid : Ast.t -> Gql_xml.Tree.doc -> bool

