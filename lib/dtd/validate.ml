type violation = {
  path : Gql_xml.Tree.path;
  element : string;
  message : string;
}

let violation path element message = { path; element; message }

let pp_violation v =
  Printf.sprintf "/%s <%s>: %s"
    (String.concat "/" (List.map string_of_int v.path))
    v.element v.message

type compiled = {
  dtd : Ast.t;
  automata : (string, string Gql_regex.Glushkov.t) Hashtbl.t;
}

let compile (dtd : Ast.t) : compiled =
  let automata = Hashtbl.create 16 in
  List.iter
    (fun (name, cm) ->
      match cm with
      | Ast.Children re -> Hashtbl.replace automata name (Gql_regex.Glushkov.build re)
      | Ast.Empty_content | Ast.Any_content | Ast.Pcdata | Ast.Mixed _ -> ())
    dtd.Ast.elements;
  { dtd; automata }

let nondeterministic_models (c : compiled) =
  Hashtbl.fold
    (fun name auto acc ->
      if Gql_regex.Glushkov.deterministic auto then acc else name :: acc)
    c.automata []

let significant_text s = String.trim s <> ""

let check_element (c : compiled) path (e : Gql_xml.Tree.element) acc =
  let open Gql_xml.Tree in
  match Ast.content_model c.dtd e.name with
  | None -> violation path e.name "element not declared" :: acc
  | Some Ast.Any_content -> acc
  | Some Ast.Empty_content ->
    if e.children = [] then acc
    else violation path e.name "declared EMPTY but has content" :: acc
  | Some Ast.Pcdata ->
    if
      List.for_all
        (function
          | Text _ | Comment _ | Pi _ -> true
          | Element _ -> false)
        e.children
    then acc
    else violation path e.name "declared (#PCDATA) but has element children" :: acc
  | Some (Ast.Mixed allowed) ->
    List.fold_left
      (fun acc child ->
        match child with
        | Element ce when not (List.mem ce.name allowed) ->
          violation path e.name
            (Printf.sprintf "child <%s> not allowed in mixed content" ce.name)
          :: acc
        | Element _ | Text _ | Comment _ | Pi _ -> acc)
      acc e.children
  | Some (Ast.Children _) ->
    let auto = Hashtbl.find c.automata e.name in
    let child_names =
      List.filter_map
        (function Element ce -> Some ce.name | Text _ | Comment _ | Pi _ -> None)
        e.children
    in
    let stray_text =
      List.exists
        (function Text t -> significant_text t | _ -> false)
        e.children
    in
    let acc =
      if stray_text then
        violation path e.name "text not allowed in element content" :: acc
      else acc
    in
    if Gql_regex.Glushkov.accepts auto child_names then acc
    else
      violation path e.name
        (Printf.sprintf "children (%s) do not match content model %s"
           (String.concat "," child_names)
           (Ast.pp_content_model
              (Option.get (Ast.content_model c.dtd e.name))))
      :: acc

let check_attrs (c : compiled) path (e : Gql_xml.Tree.element) acc =
  let defs = Ast.attrs_of c.dtd e.name in
  (* Undeclared attributes: only an error when the element has an ATTLIST
     (common validator behaviour for internal subsets). *)
  let acc =
    List.fold_left
      (fun acc (aname, value) ->
        match List.find_opt (fun d -> d.Ast.attr_name = aname) defs with
        | None ->
          if defs = [] then acc
          else
            violation path e.name
              (Printf.sprintf "attribute %s not declared" aname)
            :: acc
        | Some d -> (
          match d.Ast.attr_type, d.Ast.default with
          | Ast.Enumeration allowed, _ when not (List.mem value allowed) ->
            violation path e.name
              (Printf.sprintf "attribute %s=%S not in enumeration (%s)" aname
                 value
                 (String.concat "|" allowed))
            :: acc
          | _, Ast.Fixed fixed when value <> fixed ->
            violation path e.name
              (Printf.sprintf "attribute %s must be fixed to %S" aname fixed)
            :: acc
          | _ -> acc))
      acc e.attrs
  in
  (* Required attributes present? *)
  List.fold_left
    (fun acc d ->
      match d.Ast.default with
      | Ast.Required when not (List.mem_assoc d.Ast.attr_name e.attrs) ->
        violation path e.name
          (Printf.sprintf "required attribute %s missing" d.Ast.attr_name)
        :: acc
      | Ast.Required | Ast.Implied | Ast.Fixed _ | Ast.Default _ -> acc)
    acc defs

let validate (dtd : Ast.t) (doc : Gql_xml.Tree.doc) : violation list =
  let c = compile dtd in
  let root = doc.root in
  let acc =
    match dtd.Ast.root_hint with
    | Some n when n <> root.name ->
      [ violation [] root.name
          (Printf.sprintf "root element is <%s> but DOCTYPE declares %s"
             root.name n) ]
    | Some _ | None -> []
  in
  let acc =
    Gql_xml.Tree.fold_nodes
      (fun acc path node ->
        match node with
        | Gql_xml.Tree.Element e ->
          check_attrs c path e (check_element c path e acc)
        | Gql_xml.Tree.Text _ | Gql_xml.Tree.Comment _ | Gql_xml.Tree.Pi _ ->
          acc)
      acc root
  in
  (* ID / IDREF discipline. *)
  let ids =
    Gql_xml.Ids.build
      ~is_id:(fun ~element ~attr -> Ast.is_id_attr dtd ~element ~attr)
      ~is_idref:(fun ~element ~attr -> Ast.is_idref_attr dtd ~element ~attr)
      root
  in
  let acc =
    List.fold_left
      (fun acc id -> violation [] root.name (Printf.sprintf "duplicate ID %S" id) :: acc)
      acc ids.Gql_xml.Ids.duplicates
  in
  let acc =
    List.fold_left
      (fun acc (path, attr, target) ->
        violation path "?"
          (Printf.sprintf "IDREF %s=%S does not resolve" attr target)
        :: acc)
      acc
      (Gql_xml.Ids.dangling ids)
  in
  List.rev acc

let is_valid dtd doc = validate dtd doc = []
