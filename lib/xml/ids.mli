(** ID / IDREF indexing.

    The reference mechanisms of XML (ID/IDREF pairs, the supplied text's
    section on Xcerpt notes the same) are what turn document *trees* into
    semi-structured *graphs*.  This module builds the index used by
    [Gql_data] when materialising the graph: a map from ID value to the
    path of the element carrying it, and the list of (path, attribute,
    referenced id) triples.

    Which attributes are ID-typed is configurable: without a DTD the
    common convention (attribute named [id]) applies; with a DTD, the
    declared attribute types decide (the predicates are injected by
    [Gql_dtd] to avoid a dependency cycle). *)

type t = {
  ids : (string, Tree.path) Hashtbl.t;
  refs : (Tree.path * string * string) list;  (** element path, attr name, target id *)
  duplicates : string list;  (** ID values declared more than once *)
}

val default_is_id : element:'a -> attr:string -> bool

val default_is_idref : element:'a -> attr:string -> bool

val build :
  ?is_id:(element:string -> attr:string -> bool) ->
  ?is_idref:(element:string -> attr:string -> bool) ->
  Tree.element -> t

val resolve : t -> string -> Tree.path option

(** References whose target ID is not declared anywhere. *)
val dangling : t -> (Tree.path * string * string) list

