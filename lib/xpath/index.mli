(** Flattened document index for XPath evaluation.

    The tree is numbered in document order (attributes immediately after
    their owner element, as XPath prescribes), with parent and children
    arrays, so every axis is array navigation and node-sets are sorted
    integer lists.  Built once per document, reused across queries —
    this is what makes the navigational baseline a fair competitor in
    the benchmarks. *)

type node_data =
  | Elem of { name : string; attrs : (string * string) list }
  | Attr of { name : string; value : string; owner : int }
  | Txt of string
  | Com of string
  | P of { target : string; content : string }

type t = {
  data : node_data array;
  parent : int array;  (** -1 at the root *)
  children : int array array;  (** element/text/comment/PI children only *)
  attr_nodes : int array array;  (** attribute node ids per node *)
  root : int;  (** index of the root element *)
}

val build : Gql_xml.Tree.doc -> t

val n_nodes : t -> int

val data : t -> int -> node_data

val parent : t -> int -> int

val children : t -> int -> int array

val attrs : t -> int -> int array

val name : t -> int -> string option

(** XPath string-value. *)
val string_value : t -> int -> string

(** Reconstruct the subtree as an XML tree (for materialising results). *)
val to_tree : t -> int -> Gql_xml.Tree.node
