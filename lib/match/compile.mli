(** Lowering: {!Ast.query} -> homomorphism pattern + residual filters.

    The compiled form is exactly what the algebra planner consumes
    ({!Gql_algebra.Planner.job}), so a textual [MATCH] query rides the
    same interned-symbol / {!Gql_graph.Iset} / parallel data path as the
    two visual languages:

    - node patterns become [p_nodes] predicates (label conjunction over
      all occurrences of the variable; anonymous nodes are fresh);
    - [-[:name]->] becomes a {!Gql_graph.Homo.Direct} name test,
      [-[:a|b*]->] a {!Gql_graph.Homo.Path} over the compiled
      {!Gql_lang.Label_re} expression, and [<-[..]-] simply swaps the
      endpoints;
    - [NOT EXISTS] between two already-bound bare variables over a
      single-arc spec lowers to a {!Gql_graph.Homo.Negated} constraint
      (checked in-search, GraphLog's crossed-out edge); any richer
      sub-pattern becomes a residual that re-runs {!Gql_graph.Homo.exists}
      with the shared variables pre-bound;
    - [WHERE] conditions become residual predicates over
      {!Gql_data.Graph.node_value} using the same value comparison as
      the visual languages' condition boxes.

    Unknown variables in [WHERE]/[RETURN], and uses of edge variables
    where a node is required, are compile-time errors ({!Error}). *)

open Gql_data

exception Error of string

type cspec =
  | Cany
  | Clabel of string
  | Cpath of Graph.edge Gql_graph.Regpath.t

type cedge = { c_spec : cspec; c_negated : bool }

type t = {
  pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern;
  edges : cedge list;  (** aligned with [pattern.p_edges] *)
  residuals : Gql_algebra.Planner.residual list;
  node_labels : string list array;  (** per pattern node, possibly empty *)
  ret_cols : (Ast.ret * int) list;  (** projection, with resolved indexes *)
}

val compile : Ast.query -> t

(** Exact index navigation for each compiled edge, plus label-posting
    candidate sets — the same provider shape the visual languages use. *)
val provider :
  Gql_data.Index.t ->
  t -> (Gql_data.Graph.node_kind, Gql_data.Graph.edge) Gql_graph.Homo.provider

val job : ?index:Gql_data.Index.t -> t -> Gql_algebra.Planner.job
