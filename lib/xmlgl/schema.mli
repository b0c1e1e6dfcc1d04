(** XML-GL as a schema language.

    The paper devotes a figure to showing that an XML-GL expression can
    state what a DTD states (figures XML-GL-DTD1/DTD2), and claims
    *more*: XML-GL can declare unordered content, which DTDs cannot.
    This module implements that schema reading of XML-GL graphs:

    - boxes with multiplicity-labelled edges (like ER diagrams, the text
      notes) describe element containment: [1], [?], [*] or [+];
    - the ordered tick on a parent makes its children's relative order
      significant — in which case the content model is a regular
      expression checked with a Glushkov automaton, exactly the DTD
      discipline;
    - without the tick, content is validated by *counting* per label —
      the beyond-DTD case the paper highlights;
    - filled circles declare attributes (required or optional), hollow
      circles PCDATA content.

    {!of_dtd} and {!to_dtd} translate between the two formalisms where
    the translation exists; experiment E2 measures their agreement. *)

type mult = One | Opt | Star | Plus

val mult_to_string : mult -> string

type decl = {
  d_name : string;
  d_ordered : bool;
  d_children : (string * mult) list;  (** element children, declaration order *)
  d_text : mult option;  (** PCDATA circle, if drawn *)
  d_attrs : (string * bool) list;  (** attribute name, required? *)
  d_open : bool;
      (** open interpretation: children beyond the declared ones are
          tolerated (the schema-free spirit of the language) *)
}

type t = { root : string option; decls : decl list }

type violation = { v_element : string; v_message : string }

val validate : t -> Gql_data.Graph.t -> violation list

val is_valid : t -> Gql_data.Graph.t -> bool

exception Not_translatable of string

val flatten_seq : string Gql_regex.Syntax.t -> (string * mult) list

(** Translate a DTD into an XML-GL schema graph (raises
    {!Not_translatable} on non-flat content models — the fragment the
    figures exercise is flat). *)
val of_dtd : Gql_dtd.Ast.t -> t

(** Translate back to a DTD.  Unordered declarations have no DTD
    equivalent (the paper's point); they raise {!Not_translatable}
    unless [force_order] linearises them. *)
val to_dtd : ?force_order:bool -> t -> Gql_dtd.Ast.t

(** The paper's BOOK/AUTHOR schema (figure XML-GL-DTD1), as a ready-made
    value for tests and the E2 bench. *)
val book_schema : t
