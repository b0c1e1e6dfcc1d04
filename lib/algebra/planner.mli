(** The planner: pattern -> plan.

    One join-order strategy, the classical fail-first heuristic: start
    each connected component at its most selective node and always
    extend with the already-connected node that has the smallest
    candidate estimate.  Connectivity is compared lexicographically
    *before* the estimate, so a connected node can never lose to an
    unconnected one no matter how many candidates it has; components
    are stitched with [Cross].  {!build_in_order} binds nodes in a
    caller-given order instead — the reference the differential tests
    and the E9 ablation compare against.

    When several positive edges connect the next node to the bound
    region, the cheapest one (Direct before Path) carries the [Expand]
    and the others demote to [Edge_check]s.

    Residual filters (value joins, ordered-content checks, negations
    whose endpoints are never adjacent in the traversal, cross-node
    predicates) are appended on top.  Every built plan is annotated
    with {!Plan.est} rows/cost estimates from the {!Cost} formulas;
    they are for EXPLAIN only and decide nothing. *)

open Gql_data

type residual = { r_name : string; r_pred : Graph.t -> int array -> bool }

type job = {
  pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern;
  residuals : residual list;
  provider : (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider option;
      (** index-backed candidates; sharpens the planner's estimates and
          replaces the executor's scans *)
}

(** Plan a job with the fail-first order.  [strategy] is ignored: it
    exists only so the served-traffic benchmark's traced replay
    ([benchmark/replay.ml]) keeps compiling, and it goes when that
    replay is rebuilt on the server's own request path.  Nothing else
    may pass it. *)
val build :
  ?strategy:[ `Cost ] -> Gql_data.Graph.t -> job -> Plan.t

(** Plan a job binding its nodes in [order], a permutation of the
    pattern's node indices; each node expands through the cheapest edge
    to the already-bound region, as in {!build}.  Declaration order
    ([List.init k Fun.id]) is the naive reading of the visual graph —
    the "optimiser off" baseline.  @raise Invalid_argument if [order]
    is not a permutation. *)
val build_in_order :
  Gql_data.Graph.t -> job -> int list -> Plan.t

(** Job construction from a compiled XML-GL query: the pattern plus its
    post-filters packaged as residuals; [index] attaches the frozen
    index's candidate provider. *)
val job_of_xmlgl :
  ?index:Gql_data.Index.t -> Gql_xmlgl.Matching.compiled -> job

(** Job construction from a WG-Log rule's query part, for the algebra
    EXPLAIN route: the compiled pattern (label tests specialised to
    interned symbols when an index is given), the evaluator's provider,
    and its negation checks packaged as residuals. *)
val job_of_wglog : ?index:Gql_data.Index.t -> Gql_wglog.Ast.rule -> job
