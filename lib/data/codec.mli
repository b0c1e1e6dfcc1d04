(** Encoding XML documents as data graphs and decoding construction
    results back to XML.

    Encoding follows the paper's reading of XML: containment becomes
    ordered [Child] edges, attributes become [Attribute] edges to atoms,
    and ID/IDREF pairs are *resolved* into [Ref] edges, revealing the
    graph structure hiding in the tree.  Decoding (used to materialise
    query results) inverts this, re-introducing [id]/[idref] attributes
    only where a [Ref] edge would otherwise be lost and breaking cycles
    by reference rather than by infinite unfolding. *)

(** [encode ?dtd ?resolve_refs doc] loads a document.  When [dtd] is
    given, its ID/IDREF attribute declarations drive reference
    resolution; otherwise the [id]/[idref]/[ref] naming convention
    applies.  Returns the graph and the mapping from document paths to
    graph nodes. *)
val encode :
  ?dtd:Gql_dtd.Ast.t ->
  ?resolve_refs:bool ->
  Gql_xml.Tree.doc ->
  Graph.t * (Gql_xml.Tree.path * Graph.node) list

(** Turn a subgraph rooted at [n] back into an XML element.

    [Ref] edges are rendered as [idref] attributes pointing at generated
    [id]s; nodes reachable through more than one [Child] path (shared
    subtrees, legal in construction results) are unfolded the first time
    and referenced after, so the output is always a finite tree. *)
val decode : Graph.t -> Graph.node -> Gql_xml.Tree.element
