let escape s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string ?(name = "g") ?(node_attrs = fun _ _ -> [])
    ?(edge_attrs = fun _ -> []) ~node_label ~edge_label g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  rankdir=TB;\n";
  Digraph.iter_nodes
    (fun i p ->
      let attrs =
        ("label", node_label i p) :: node_attrs i p
        |> List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v))
        |> String.concat ", "
      in
      Buffer.add_string buf (Printf.sprintf "  n%d [%s];\n" i attrs))
    g;
  Digraph.iter_edges
    (fun ~src ~dst l ->
      let attrs =
        ("label", edge_label l) :: edge_attrs l
        |> List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v))
        |> String.concat ", "
      in
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [%s];\n" src dst attrs))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
