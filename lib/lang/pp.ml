let value_literal (v : Gql_data.Value.t) =
  match v with
  | Gql_data.Value.Int i -> string_of_int i
  | Gql_data.Value.Float f -> string_of_float f
  | Gql_data.Value.String s -> Printf.sprintf "%S" s
  | Gql_data.Value.Bool b -> Printf.sprintf "%S" (string_of_bool b)

(* --- XML-GL ---------------------------------------------------------- *)

let xmlgl_operand qname (op : Gql_xmlgl.Ast.operand) =
  let rec go = function
    | Gql_xmlgl.Ast.Const v -> value_literal v
    | Gql_xmlgl.Ast.Self -> "self"
    | Gql_xmlgl.Ast.Node_value n -> qname n
    | Gql_xmlgl.Ast.Arith (op, a, b) ->
      let o =
        match op with
        | Gql_xmlgl.Ast.Add -> "+"
        | Gql_xmlgl.Ast.Sub -> "-"
        | Gql_xmlgl.Ast.Mul -> "*"
        | Gql_xmlgl.Ast.Div -> "/"
      in
      Printf.sprintf "(%s %s %s)" (go a) o (go b)
  in
  go op

let xmlgl_pred qname (p : Gql_xmlgl.Ast.predicate) =
  let cmp = function
    | Gql_xmlgl.Ast.Eq -> "="
    | Gql_xmlgl.Ast.Neq -> "!="
    | Gql_xmlgl.Ast.Lt -> "<"
    | Gql_xmlgl.Ast.Le -> "<="
    | Gql_xmlgl.Ast.Gt -> ">"
    | Gql_xmlgl.Ast.Ge -> ">="
  in
  let rec go = function
    | Gql_xmlgl.Ast.Compare (op, a, b) ->
      Printf.sprintf "%s %s %s" (xmlgl_operand qname a) (cmp op)
        (xmlgl_operand qname b)
    | Gql_xmlgl.Ast.Contains_str (a, s) ->
      Printf.sprintf "%s contains %S" (xmlgl_operand qname a) s
    | Gql_xmlgl.Ast.Starts_with (a, s) ->
      Printf.sprintf "%s starts %S" (xmlgl_operand qname a) s
    | Gql_xmlgl.Ast.Matches (a, re) ->
      Printf.sprintf "%s ~ /%s/" (xmlgl_operand qname a) re
    | Gql_xmlgl.Ast.And (a, b) -> Printf.sprintf "(%s) and (%s)" (go a) (go b)
    | Gql_xmlgl.Ast.Or (a, b) -> Printf.sprintf "(%s) or (%s)" (go a) (go b)
    | Gql_xmlgl.Ast.Not a -> Printf.sprintf "not (%s)" (go a)
  in
  go p

let xmlgl_rule buf (r : Gql_xmlgl.Ast.rule) =
  let qname i = Printf.sprintf "$q%d" i in
  let cname i = Printf.sprintf "c%d" i in
  Buffer.add_string buf "rule\nquery\n";
  Array.iteri
    (fun i (n : Gql_xmlgl.Ast.qnode) ->
      let kind =
        match n.q_kind with
        | Gql_xmlgl.Ast.Q_elem (Gql_xmlgl.Ast.Exact s) -> "elem " ^ s
        | Gql_xmlgl.Ast.Q_elem Gql_xmlgl.Ast.Any_name -> "elem *"
        | Gql_xmlgl.Ast.Q_elem (Gql_xmlgl.Ast.Name_re re) ->
          Printf.sprintf "elem /%s/" re
        | Gql_xmlgl.Ast.Q_content -> "content"
        | Gql_xmlgl.Ast.Q_attr -> "attr"
      in
      let where =
        match n.q_pred with
        | Some p -> " where " ^ xmlgl_pred qname p
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  node %s %s%s\n" (qname i) kind where))
    r.query.q_nodes;
  List.iter
    (fun (e : Gql_xmlgl.Ast.qedge) ->
      let s = qname e.q_src and d = qname e.q_dst in
      match e.q_kind_e with
      | Gql_xmlgl.Ast.Contains { ordered; position } ->
        Buffer.add_string buf
          (Printf.sprintf "  edge %s %s%s%s\n" s d
             (if ordered then " ordered" else "")
             (match position with
             | Some p -> Printf.sprintf " pos %d" p
             | None -> ""))
      | Gql_xmlgl.Ast.Deep -> Buffer.add_string buf (Printf.sprintf "  deep %s %s\n" s d)
      | Gql_xmlgl.Ast.Attr_of a ->
        Buffer.add_string buf (Printf.sprintf "  attredge %s %s %s\n" s a d)
      | Gql_xmlgl.Ast.Ref_to (Some a) ->
        Buffer.add_string buf (Printf.sprintf "  refedge %s %s %s\n" s a d)
      | Gql_xmlgl.Ast.Ref_to None ->
        Buffer.add_string buf (Printf.sprintf "  refedge %s %s\n" s d)
      | Gql_xmlgl.Ast.Absent ->
        Buffer.add_string buf (Printf.sprintf "  absent %s %s\n" s d))
    r.query.q_edges;
  Buffer.add_string buf "construct\n";
  Array.iteri
    (fun i (n : Gql_xmlgl.Ast.cnode) ->
      let kind =
        match n.c_kind with
        | Gql_xmlgl.Ast.C_elem { name; per = None } -> "new " ^ name
        | Gql_xmlgl.Ast.C_elem { name; per = Some q } ->
          Printf.sprintf "new %s per %s" name (qname q)
        | Gql_xmlgl.Ast.C_copy_of { source; deep } ->
          Printf.sprintf "copy %s%s" (qname source) (if deep then " deep" else "")
        | Gql_xmlgl.Ast.C_value_of s -> "value " ^ qname s
        | Gql_xmlgl.Ast.C_const v -> "const " ^ value_literal v
        | Gql_xmlgl.Ast.C_all s -> "all " ^ qname s
        | Gql_xmlgl.Ast.C_group { by } -> "group " ^ qname by
        | Gql_xmlgl.Ast.C_unnest s -> "unnest " ^ qname s
        | Gql_xmlgl.Ast.C_aggregate { fn; source } ->
          let f =
            match fn with
            | Gql_xmlgl.Ast.Count -> "count"
            | Gql_xmlgl.Ast.Sum -> "sum"
            | Gql_xmlgl.Ast.Min -> "min"
            | Gql_xmlgl.Ast.Max -> "max"
            | Gql_xmlgl.Ast.Avg -> "avg"
          in
          f ^ " " ^ qname source
      in
      Buffer.add_string buf (Printf.sprintf "  node %s %s\n" (cname i) kind))
    r.construction.c_nodes;
  List.iter
    (fun root -> Buffer.add_string buf (Printf.sprintf "  root %s\n" (cname root)))
    r.construction.c_roots;
  List.iter
    (fun (e : Gql_xmlgl.Ast.cedge) ->
      Buffer.add_string buf
        (Printf.sprintf "  edge %s %s%s\n" (cname e.c_parent) (cname e.c_child)
           (match e.c_as_attr with
           | Some a -> " attr " ^ a
           | None -> "")))
    (List.sort (fun (a : Gql_xmlgl.Ast.cedge) b -> compare a.c_ord b.c_ord)
       r.construction.c_edges);
  Buffer.add_string buf "end\n"

let xmlgl_program (p : Gql_xmlgl.Ast.program) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "xmlgl\n";
  Buffer.add_string buf (Printf.sprintf "result %s\n" p.result_root);
  List.iter (xmlgl_rule buf) p.rules;
  Buffer.contents buf

(* --- WG-Log ---------------------------------------------------------- *)

let wglog_rule buf (r : Gql_wglog.Ast.rule) =
  let name i = Printf.sprintf "n%d" i in
  Buffer.add_string buf "rule\n";
  Array.iteri
    (fun i (n : Gql_wglog.Ast.node) ->
      let conds =
        match n.n_cond with
        | [] -> ""
        | cs ->
          " where "
          ^ String.concat " and "
              (List.map
                 (function
                   | Gql_wglog.Ast.Cmp (op, v) ->
                     let o =
                       match op with
                       | Gql_wglog.Ast.Eq -> "="
                       | Gql_wglog.Ast.Neq -> "!="
                       | Gql_wglog.Ast.Lt -> "<"
                       | Gql_wglog.Ast.Le -> "<="
                       | Gql_wglog.Ast.Gt -> ">"
                       | Gql_wglog.Ast.Ge -> ">="
                     in
                     o ^ " " ^ value_literal v
                   | Gql_wglog.Ast.Re re -> "/" ^ re ^ "/")
                 cs)
      in
      match n.n_kind, n.n_role with
      | Gql_wglog.Ast.Entity t, Gql_wglog.Ast.Query ->
        Buffer.add_string buf
          (Printf.sprintf "  node %s %s\n" (name i) (Option.value t ~default:"any"))
      | Gql_wglog.Ast.Entity t, Gql_wglog.Ast.Construct ->
        Buffer.add_string buf
          (Printf.sprintf "  cnode %s %s\n" (name i) (Option.value t ~default:"any"))
      | Gql_wglog.Ast.Value (Some v), Gql_wglog.Ast.Query ->
        Buffer.add_string buf
          (Printf.sprintf "  const %s %s\n" (name i) (value_literal v))
      | Gql_wglog.Ast.Value (Some v), Gql_wglog.Ast.Construct ->
        Buffer.add_string buf
          (Printf.sprintf "  cvalue %s %s\n" (name i) (value_literal v))
      | Gql_wglog.Ast.Value None, _ ->
        Buffer.add_string buf (Printf.sprintf "  value %s%s\n" (name i) conds))
    r.nodes;
  List.iter
    (fun (e : Gql_wglog.Ast.edge) ->
      let s = name e.e_src and d = name e.e_dst in
      match e.e_mode, e.e_role with
      | Gql_wglog.Ast.Plain, Gql_wglog.Ast.Query ->
        Buffer.add_string buf (Printf.sprintf "  edge %s %s %s\n" s e.e_label d)
      | Gql_wglog.Ast.Plain, Gql_wglog.Ast.Construct ->
        Buffer.add_string buf (Printf.sprintf "  cedge %s %s %s\n" s e.e_label d)
      | Gql_wglog.Ast.Negated, _ ->
        Buffer.add_string buf (Printf.sprintf "  negedge %s %s %s\n" s e.e_label d)
      | Gql_wglog.Ast.Regex re, _ ->
        Buffer.add_string buf
          (Printf.sprintf "  pathedge %s %s %s\n" s (Label_re.to_string re) d)
      | Gql_wglog.Ast.Collect, _ ->
        Buffer.add_string buf (Printf.sprintf "  collect %s %s %s\n" s e.e_label d))
    r.edges;
  Buffer.add_string buf "end\n"

let wglog_program (p : Gql_wglog.Ast.program) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "wglog\n";
  List.iter (wglog_rule buf) p.rules;
  Buffer.contents buf
