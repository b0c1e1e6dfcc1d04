exception Ill_formed of string list

let check_or_raise errs = if errs <> [] then raise (Ill_formed errs)

let run_rule ?index ?domains (data : Gql_data.Graph.t) (r : Ast.rule) :
    Gql_xml.Tree.node list =
  check_or_raise (Ast.check_rule r);
  let bindings = Matching.run ?index ?domains data r.query in
  Construct.run data r.construction bindings

let run_program ?index ?domains (data : Gql_data.Graph.t) (p : Ast.program) :
    Gql_xml.Tree.element =
  check_or_raise (Ast.check_program p);
  let children = List.concat_map (fun r -> run_rule ?index ?domains data r) p.rules in
  { Gql_xml.Tree.name = p.result_root; attrs = []; children }

let query_bindings ?index ?domains (data : Gql_data.Graph.t) (q : Ast.query) =
  Matching.run ?index ?domains data q
