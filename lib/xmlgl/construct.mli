(** Instantiation of XML-GL construction graphs.

    The construction side is evaluated against the full set of bindings
    produced by {!Matching.run}.  Multiplicity is contextual, which is
    exactly how the paper's three aggregation constructs behave:

    - a fresh element box ([C_elem]) is instantiated once per call — at
      the top level that means once per rule, giving the collecting
      [RESULT] element of the aggregation figure;
    - a box attached to the query side ([C_copy_of]) is instantiated once
      per *distinct binding* of its query node within the current
      context, narrowing the context for its subtree — "for each element
      the query pattern has matched, an element is constructed";
    - a triangle ([C_all]) deep-copies every distinct binding in the
      current context under one parent;
    - a list icon ([C_group]) partitions the current context by the value
      of its grouping node and instantiates its subtree once per group.

    Shared subtrees and ID/IDREF links in copied regions are handled by
    [Gql_data.Codec.decode]. *)

exception Invalid_query of string

type context = Matching.binding list

val aggregate_value :
  Gql_data.Graph.t ->
  context -> Ast.agg_fn -> int -> Gql_data.Value.t option

(** Instantiate a whole construction for a binding set. *)
val run :
  Gql_data.Graph.t ->
  Ast.construction -> context -> Gql_xml.Tree.node list
