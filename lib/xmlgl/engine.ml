(** The XML-GL engine: match, filter, construct.

    [run_rule] evaluates one query/construction pair; [run_program]
    evaluates a set of rules and collects all their results under a
    single result root, which is how the paper composes "complex
    programs [that] may consist of various rules".

    [domains] on each entry point fans the embedding search out over
    OCaml domains (see {!Gql_graph.Par}); construction always runs
    sequentially on the calling domain. *)

exception Ill_formed of string list

let check_or_raise errs = if errs <> [] then raise (Ill_formed errs)

(** Evaluate one rule; returns the constructed forest. *)
let run_rule ?index ?domains (data : Gql_data.Graph.t) (r : Ast.rule) :
    Gql_xml.Tree.node list =
  check_or_raise (Ast.check_rule r);
  let bindings = Matching.run ?index ?domains data r.query in
  Construct.run data r.construction bindings

(** Evaluate a program; the result is a single element named after
    [p.result_root] containing every rule's output in rule order. *)
let run_program ?index ?domains (data : Gql_data.Graph.t) (p : Ast.program) :
    Gql_xml.Tree.element =
  check_or_raise (Ast.check_program p);
  let children = List.concat_map (fun r -> run_rule ?index ?domains data r) p.rules in
  { Gql_xml.Tree.name = p.result_root; attrs = []; children }

(** Bindings only — used by benches and the expressiveness matrix. *)
let query_bindings ?index ?domains (data : Gql_data.Graph.t) (q : Ast.query) =
  Matching.run ?index ?domains data q
