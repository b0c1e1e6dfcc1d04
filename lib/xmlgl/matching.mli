(** The XML-GL matcher: from a query graph to the set of bindings.

    Compilation to [Gql_graph.Homo]:
    - every query node becomes a pattern node whose candidate predicate
      combines the shape test (box -> complex node, circle -> atom) with
      any *local* content predicate (pushed down for pruning);
    - containment edges become direct-edge constraints, deep edges
      become regular paths over Child edges, attribute edges match
      [Attribute] edges by name, reference edges match [Ref]/[Rel];
    - a content/attribute circle with several incoming edges is the
      paper's *value join*: it is split into one pattern node per
      incoming edge plus value-equality filters (two distinct text nodes
      with equal values must join, identity would be too strong);
    - [Absent] edges are removed from the positive pattern and enforced
      as negative post-filters;
    - ordered containment (the tick) is checked per embedding: the bound
      children must appear in the same relative document order as the
      pattern edges.

    The result of matching is a list of environments mapping query node
    ids to data nodes. *)

open Gql_data

type binding = int array
(** [b.(q)] = data node bound to query node [q]. *)

(** An element node's name test, its regex compiled once per query. *)
type test = Name of string | Any | Re of Gql_regex.Chre.t

type compiled = {
  query : Ast.query;
  tests : test option array;
      (** query node -> its name test; [None] for content and attribute
          circles *)
  pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern;
  qpos : int array;
      (** query node -> pattern node, or -1 for nodes that exist only as
          targets of [Absent] edges (they never bind) *)
  pat_to_query : int array;  (** pattern node -> query node *)
  value_join_groups : int list list;
      (** pattern nodes that must agree on value *)
  absent_checks : (int * (int -> Graph.node_kind -> bool)) list;
      (** (pattern node of src, predicate of the absent child spec) *)
  ordered_groups : (int * int list) list;
      (** (src pattern node, dst pattern nodes in pattern order) *)
  cross_preds : (int * Predicate.compiled) list;
      (** non-local predicates: (query node, predicate) *)
  edge_kinds : Ast.qedge_kind list;
      (** the query-edge kind behind each element of [pattern.p_edges]
          (same order) — what the index-backed provider navigates by *)
}

val compile :
  ?index:Gql_data.Index.t ->
  Gql_data.Graph.t -> Ast.query -> compiled

(** The candidate provider routing this compiled query through [idx]. *)
val provider :
  Gql_data.Index.t ->
  compiled ->
  (Gql_data.Graph.node_kind, Gql_data.Graph.edge) Gql_graph.Homo.provider

(** Translate a pattern-space embedding into query-node space ([-1] for
    nodes that never bind). *)
val to_query_binding : compiled -> int array -> int array

val embedding_ok : compiled -> Gql_data.Graph.t -> int array -> bool

(** All bindings of the query in the data graph; [index] routes the
    embedding search through the frozen index instead of graph scans;
    [domains] partitions the first pattern node's candidates over that
    many domains (answers are byte-identical to sequential). *)
val run :
  ?index:Gql_data.Index.t ->
  ?domains:int -> Gql_data.Graph.t -> Ast.query -> binding list

