(** Evaluation routes and row rendering for [MATCH] queries.

    Routes over one compiled form: the direct homomorphism matcher
    (with or without an index provider) and the algebra executor, under
    the planner's fail-first order or a caller-given reference order.  All routes produce the
    same *bag* of embeddings; rows are rendered and then sorted
    lexicographically, so every route — and the served path, cold or
    cached — answers byte-identical text.  The [match-vs-algebra] fuzz
    oracle holds this door shut. *)

open Gql_data

(** Embeddings via {!Gql_graph.Homo.iter_embeddings}, residuals applied
    after the fact (the matcher knows nothing about WHERE). *)
val bindings :
  ?index:Gql_data.Index.t ->
  ?domains:int -> Gql_data.Graph.t -> Compile.t -> int array list

(** Embeddings via the algebra: plan with [planner] (default
    {!Gql_algebra.Planner.build}; residuals become Filter operators),
    run with {!Gql_algebra.Exec.run}. *)
val bindings_algebra :
  ?planner:(Gql_data.Graph.t -> Gql_algebra.Planner.job -> Gql_algebra.Plan.t) ->
  ?index:Gql_data.Index.t ->
  ?domains:int -> Gql_data.Graph.t -> Compile.t -> int array list

(** The cell of [node] in a column returning [r]: the node's label or
    atom, or its value. *)
val cell : Gql_data.Graph.t -> Ast.ret -> int -> string

val header : Compile.t -> string

(** {!render} over a list of bindings. *)
val body :
  Gql_data.Graph.t -> Compile.t -> int array list -> string

(** A planned MATCH query: compiled form + physical plan + provider,
    ready to execute against the snapshot it was planned for.  This is
    what the server's plan cache stores — planning (estimate scans, the
    fail-first join order, EXPLAIN annotation) runs once per (query
    hash, snapshot version). *)
type prepared = {
  pr_compiled : Compile.t;
  pr_plan : Gql_algebra.Plan.t;
  pr_provider : (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider option;
}

(** Compile and plan. *)
val prepare :
  ?index:Gql_data.Index.t ->
  Gql_data.Graph.t -> Ast.query -> prepared

(** Execute a prepared query; returns the canonical body and row count.
    [data] must be the snapshot [prepare] planned against. *)
val run_prepared :
  ?domains:int -> Gql_data.Graph.t -> prepared -> string * int

(** The served entry point: compile, plan (the same route `gql serve`
    uses), run through the algebra, render.  Returns the
    body and the row count. *)
val run :
  ?index:Gql_data.Index.t ->
  ?domains:int -> Gql_data.Graph.t -> Ast.query -> string * int

(** The plan text for a MATCH query — EXPLAIN, cost-annotated. *)
val explain :
  ?index:Gql_data.Index.t ->
  Gql_data.Graph.t -> Ast.query -> string
