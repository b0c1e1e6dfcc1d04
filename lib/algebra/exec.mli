(** Plan execution.

    Bindings are rows indexed by pattern variable ([-1] = unbound).
    Every operator reads and writes one flat {!batch} — a width, a row
    count and one row-major [int array] — so a result of a million rows
    is one array, not a million.  [Expand] is the workhorse: follow the
    edge constraint from the bound endpoint and test the destination's
    node predicate.  Every operator ticks {!Gql_graph.Deadline} per
    candidate or binding, so an evaluation past its deadline stops
    inside the operator that is running. *)

type binding = int array

(** [rows] bindings of [width] slots, row-major: binding [i] is
    [data.(i * width) .. data.(i * width + width - 1)].  [data] may be
    longer than [rows * width]; the tail is not part of the batch. *)
type batch = { width : int; rows : int; data : int array }

(** A batch of [width]-slot bindings; each binding must hold at least
    [width] slots. *)
val of_bindings : width:int -> binding list -> batch

(** Run [plan] to one batch of width [|p_nodes|].  [Filter] hands its
    predicate a scratch row that is overwritten for the next binding:
    a predicate must not keep the array it is given. *)
val run_batch :
  ?provider:(Gql_data.Graph.node_kind, Gql_data.Graph.edge)
            Gql_graph.Homo.provider ->
  ?domains:int ->
  Gql_data.Graph.t ->
  (Gql_data.Graph.node_kind, Gql_data.Graph.edge) Gql_graph.Homo.pattern ->
  Plan.t -> batch

(** {!run_batch} as a list of bindings, one fresh array each. *)
val run :
  ?provider:(Gql_data.Graph.node_kind, Gql_data.Graph.edge)
            Gql_graph.Homo.provider ->
  ?domains:int ->
  Gql_data.Graph.t ->
  (Gql_data.Graph.node_kind, Gql_data.Graph.edge) Gql_graph.Homo.pattern ->
  Plan.t -> binding list

(** End-to-end: compile an XML-GL query, plan it, execute, and return
    bindings restricted to the query's own nodes (the same shape
    [Gql_xmlgl.Matching.run] returns, so results are comparable).
    [planner] defaults to {!Planner.build}; differential tests pass a
    {!Planner.build_in_order} reference. *)
val run_xmlgl :
  ?planner:(Gql_data.Graph.t -> Planner.job -> Plan.t) ->
  ?index:Gql_data.Index.t ->
  ?domains:int -> Gql_data.Graph.t -> Gql_xmlgl.Ast.query -> int array list

(** The plan text for an XML-GL query — EXPLAIN, annotated with the
    cost formulas' row/cost estimates. *)
val explain_xmlgl :
  ?index:Gql_data.Index.t ->
  Gql_data.Graph.t -> Gql_xmlgl.Ast.query -> string

(** The plan text for a WG-Log rule's query part, via the same algebra
    route (the fixpoint evaluator itself stays non-algebraic; this is
    the EXPLAIN view of how one rule's pattern would be joined). *)
val explain_wglog :
  ?index:Gql_data.Index.t -> Gql_data.Graph.t -> Gql_wglog.Ast.rule -> string
