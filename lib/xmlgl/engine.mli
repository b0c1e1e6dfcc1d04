(** The XML-GL engine: match, filter, construct.

    [run_rule] evaluates one query/construction pair; [run_program]
    evaluates a set of rules and collects all their results under a
    single result root, which is how the paper composes "complex
    programs [that] may consist of various rules".

    [domains] on each entry point fans the embedding search out over
    OCaml domains (see {!Gql_graph.Par}); construction always runs
    sequentially on the calling domain. *)

exception Ill_formed of string list

val check_or_raise : string list -> unit

(** Evaluate one rule; returns the constructed forest. *)
val run_rule :
  ?index:Gql_data.Index.t ->
  ?domains:int ->
  Gql_data.Graph.t -> Ast.rule -> Gql_xml.Tree.node list

(** Evaluate a program; the result is a single element named after
    [p.result_root] containing every rule's output in rule order. *)
val run_program :
  ?index:Gql_data.Index.t ->
  ?domains:int ->
  Gql_data.Graph.t -> Ast.program -> Gql_xml.Tree.element

(** Bindings only — used by benches and the expressiveness matrix. *)
val query_bindings :
  ?index:Gql_data.Index.t ->
  ?domains:int ->
  Gql_data.Graph.t -> Ast.query -> Matching.binding list
