(** The XML document model.

    A deliberately small, immutable tree: elements with attribute lists and
    mixed content, text, comments and processing instructions.  This is the
    "document" face of semi-structured data; the graph face (with ID/IDREF
    edges resolved) lives in [Gql_data].

    Node identity is positional: a {!path} addresses a node by the child
    indexes leading to it from the root, and document order is
    lexicographic order on paths. *)

type node =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of string * string  (** target, content *)

and element = {
  name : string;
  attrs : (string * string) list;  (** in source order, names unique *)
  children : node list;
}

type doctype = {
  dt_name : string;
  system_id : string option;
  public_id : string option;
  internal_subset : string option;  (** raw text between [ ] if present *)
}

type doc = { doctype : doctype option; root : element }

type path = int list
(** Child indexes from the root element; [[]] is the root element itself.
    Indexes count *all* nodes (text, comments...), not just elements. *)

val element : ?attrs:(string * string) list -> string -> node list -> element

val elt : ?attrs:(string * string) list -> string -> node list -> node

val text : string -> node

val doc : ?doctype:doctype -> element -> doc

val attr : element -> string -> string option

(** Concatenated text content of the subtree, document order (the
    string-value of XPath). *)
val text_content_el : element -> string

val text_content : node -> string

(** Fold over every node in document order, with its path. *)
val fold_nodes : ('a -> int list -> node -> 'a) -> 'a -> element -> 'a

val iter_nodes : (int list -> node -> unit) -> element -> unit

