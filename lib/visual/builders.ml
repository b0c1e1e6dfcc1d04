let pred_note (p : Gql_xmlgl.Ast.predicate) : string =
  let open Gql_xmlgl.Ast in
  let op_str = function
    | Eq -> "=" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  in
  let rec operand = function
    | Const v -> Gql_data.Value.to_string v
    | Self -> "."
    | Node_value n -> Printf.sprintf "$%d" n
    | Arith (op, a, b) ->
      let o = match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" in
      Printf.sprintf "(%s%s%s)" (operand a) o (operand b)
  in
  let rec go = function
    | Compare (op, a, b) -> Printf.sprintf "%s%s%s" (operand a) (op_str op) (operand b)
    | Contains_str (a, s) -> Printf.sprintf "contains(%s,%S)" (operand a) s
    | Starts_with (a, s) -> Printf.sprintf "starts(%s,%S)" (operand a) s
    | Matches (a, re) -> Printf.sprintf "%s~/%s/" (operand a) re
    | And (a, b) -> Printf.sprintf "%s & %s" (go a) (go b)
    | Or (a, b) -> Printf.sprintf "%s | %s" (go a) (go b)
    | Not a -> Printf.sprintf "not(%s)" (go a)
  in
  go p

let of_xmlgl_rule ?(title = "XML-GL rule") (r : Gql_xmlgl.Ast.rule) : Diagram.t =
  let open Gql_xmlgl.Ast in
  let d = Diagram.create title in
  let qmap = Hashtbl.create 8 in
  Array.iteri
    (fun qid (n : qnode) ->
      let note = Option.map pred_note n.q_pred in
      let shape, label =
        match n.q_kind with
        | Q_elem (Exact name) -> (Diagram.Box, name)
        | Q_elem Any_name -> (Diagram.Box, "*")
        | Q_elem (Name_re re) -> (Diagram.Box, "/" ^ re ^ "/")
        | Q_content -> (Diagram.Circle_hollow, Option.value note ~default:"")
        | Q_attr -> (Diagram.Circle_filled, Option.value note ~default:"")
      in
      let note =
        match n.q_kind with
        | Q_elem _ -> note
        | Q_content | Q_attr -> None  (* note already used as label *)
      in
      Hashtbl.replace qmap qid
        (Diagram.add_node d ~role:Diagram.Query_part ?note shape label))
    r.query.q_nodes;
  List.iter
    (fun (e : qedge) ->
      let src = Hashtbl.find qmap e.q_src and dst = Hashtbl.find qmap e.q_dst in
      match e.q_kind_e with
      | Contains { ordered; position } ->
        let label =
          match position with Some p -> Printf.sprintf "[%d]" p | None -> ""
        in
        let label = if ordered then label ^ "'" else label in
        Diagram.add_edge d ~role:Diagram.Query_part ~label src dst
      | Deep -> Diagram.add_edge d ~role:Diagram.Query_part ~style:Diagram.Dashed ~label:"*" src dst
      | Attr_of name -> Diagram.add_edge d ~role:Diagram.Query_part ~label:name src dst
      | Ref_to name ->
        Diagram.add_edge d ~role:Diagram.Query_part ~style:Diagram.Dashed
          ~label:(Option.value name ~default:"ref") src dst
      | Absent -> Diagram.add_edge d ~role:Diagram.Query_part ~style:Diagram.Crossed src dst)
    r.query.q_edges;
  (* Construction part. *)
  let cmap = Hashtbl.create 8 in
  Array.iteri
    (fun cid (n : cnode) ->
      let shape, label, note =
        match n.c_kind with
        | C_elem { name; per = None } -> (Diagram.Box, name, None)
        | C_elem { name; per = Some q } ->
          (Diagram.Box, name, Some (Printf.sprintf "per $%d" q))
        | C_copy_of { source; deep } ->
          (Diagram.Box, Printf.sprintf "$%d" source, if deep then Some "*" else None)
        | C_value_of source -> (Diagram.Circle_hollow, Printf.sprintf "$%d" source, None)
        | C_const v -> (Diagram.Circle_hollow, Gql_data.Value.to_string v, None)
        | C_all source -> (Diagram.Triangle, Printf.sprintf "$%d" source, None)
        | C_group { by } -> (Diagram.Round_box, Printf.sprintf "group $%d" by, None)
        | C_unnest s -> (Diagram.Round_box, Printf.sprintf "unnest $%d" s, None)
        | C_aggregate { fn; source } ->
          let f =
            match fn with
            | Count -> "CNT" | Sum -> "SUM" | Min -> "MIN" | Max -> "MAX" | Avg -> "AVG"
          in
          (Diagram.Circle_hollow, Printf.sprintf "%s.$%d" f source, None)
      in
      Hashtbl.replace cmap cid
        (Diagram.add_node d ~role:Diagram.Construct_part ?note shape label))
    r.construction.c_nodes;
  List.iter
    (fun (e : cedge) ->
      Diagram.add_edge d ~role:Diagram.Construct_part ~thick:true
        ?label:(Option.map (fun a -> "@" ^ a) e.c_as_attr |> Option.map Fun.id)
        (Hashtbl.find cmap e.c_parent) (Hashtbl.find cmap e.c_child))
    r.construction.c_edges;
  (* Dotted bindings from construction references back to the query part
     (the paper's "line connecting the relevant query and construction
     node"). *)
  Array.iteri
    (fun cid (n : cnode) ->
      match n.c_kind with
      | C_copy_of { source; _ } | C_value_of source | C_all source
      | C_group { by = source } | C_unnest source
      | C_aggregate { source; _ }
      | C_elem { per = Some source; _ } ->
        Diagram.add_edge d ~style:Diagram.Dashed (Hashtbl.find qmap source)
          (Hashtbl.find cmap cid)
      | C_elem { per = None; _ } | C_const _ -> ())
    r.construction.c_nodes;
  d

let of_wglog_rule ?(title = "WG-Log rule") (r : Gql_wglog.Ast.rule) : Diagram.t =
  let open Gql_wglog.Ast in
  let d = Diagram.create title in
  let map = Hashtbl.create 8 in
  let cond_note conds =
    match conds with
    | [] -> None
    | cs ->
      Some
        (String.concat ","
           (List.map
              (function
                | Cmp (op, v) ->
                  let o =
                    match op with
                    | Eq -> "=" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
                  in
                  o ^ Gql_data.Value.to_string v
                | Re re -> "/" ^ re ^ "/")
              cs))
  in
  Array.iteri
    (fun i (n : node) ->
      let role =
        match n.n_role with
        | Query -> Diagram.Query_part
        | Construct -> Diagram.Construct_part
      in
      let shape, label =
        match n.n_kind with
        | Entity (Some t) -> (Diagram.Box, t)
        | Entity None -> (Diagram.Circle_hollow, "")
        | Value (Some v) -> (Diagram.Round_box, Gql_data.Value.to_string v)
        | Value None -> (Diagram.Round_box, "?")
      in
      Hashtbl.replace map i
        (Diagram.add_node d ~role ?note:(cond_note n.n_cond) shape label))
    r.nodes;
  List.iter
    (fun (e : edge) ->
      let role =
        match e.e_role with
        | Query -> Diagram.Query_part
        | Construct -> Diagram.Construct_part
      in
      let style, label =
        match e.e_mode with
        | Plain -> (Diagram.Solid, e.e_label)
        | Negated -> (Diagram.Crossed, e.e_label)
        | Regex re -> (Diagram.Dashed, Gql_regex.Syntax.to_string Fun.id re)
        | Collect -> (Diagram.Solid, e.e_label ^ " (all)")
      in
      Diagram.add_edge d ~role ~style ~thick:(e.e_role = Construct) ~label
        (Hashtbl.find map e.e_src) (Hashtbl.find map e.e_dst))
    r.edges;
  d
