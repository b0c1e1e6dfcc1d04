let encode ?dtd ?(resolve_refs = true) (doc : Gql_xml.Tree.doc) :
    Graph.t * (Gql_xml.Tree.path * Graph.node) list =
  let open Gql_xml in
  let t = Graph.create () in
  let path_map = ref [] in
  let is_id, is_idref =
    match dtd with
    | Some d ->
      ( (fun ~element ~attr -> Gql_dtd.Ast.is_id_attr d ~element ~attr),
        fun ~element ~attr -> Gql_dtd.Ast.is_idref_attr d ~element ~attr )
    | None -> (Ids.default_is_id, Ids.default_is_idref)
  in
  let rec encode_element rev_path (e : Tree.element) : Graph.node =
    let node = Graph.add_complex t e.name in
    path_map := (List.rev rev_path, node) :: !path_map;
    List.iter
      (fun (aname, avalue) ->
        (* IDREF attributes become Ref edges in a second pass; every
           attribute is still materialised so queries over attributes work
           uniformly. *)
        let atom = Graph.add_atom t (Value.of_string avalue) in
        Graph.link t ~src:node ~dst:atom (Graph.attr_edge aname))
      e.attrs;
    List.iteri
      (fun i child ->
        match child with
        | Tree.Element ce ->
          let cnode = encode_element (i :: rev_path) ce in
          Graph.link t ~src:node ~dst:cnode (Graph.child_edge ~ord:i "")
        | Tree.Text s ->
          if String.trim s <> "" then begin
            let atom = Graph.add_atom t (Value.of_string s) in
            Graph.link t ~src:node ~dst:atom (Graph.child_edge ~ord:i "")
          end
        | Tree.Comment _ | Tree.Pi _ -> ())
      e.children;
    node
  in
  let root = encode_element [] doc.root in
  Graph.add_root t root;
  (* Second pass: resolve ID/IDREF into Ref edges. *)
  if resolve_refs then begin
    let ids = Ids.build ~is_id ~is_idref doc.root in
    let node_of_path p = List.assoc_opt p !path_map in
    List.iter
      (fun (src_path, attr, target) ->
        match Ids.resolve ids target, node_of_path src_path with
        | Some target_path, Some src_node -> (
          match node_of_path target_path with
          | Some dst_node ->
            Graph.link t ~src:src_node ~dst:dst_node (Graph.ref_edge attr)
          | None -> ())
        | (Some _ | None), _ -> ())
      ids.Ids.refs
  end;
  (t, List.rev !path_map)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let decode (t : Graph.t) (n : Graph.node) : Gql_xml.Tree.element =
  let open Gql_xml.Tree in
  let seen = Hashtbl.create 32 in
  let needs_id = Hashtbl.create 8 in
  (* First pass: which targets of Ref edges need an id attribute? *)
  let assign_id =
    let counter = ref 0 in
    fun node ->
      match Hashtbl.find_opt needs_id node with
      | Some id -> id
      | None ->
        incr counter;
        let id = Printf.sprintf "n%d" !counter in
        Hashtbl.replace needs_id node id;
        id
  in
  let rec go node : element =
    Hashtbl.replace seen node ();
    let name =
      match Graph.kind t node with
      | Graph.Complex l -> l
      | Graph.Atom _ -> "value"
    in
    let attrs =
      List.map (fun (a, v) -> (a, Value.to_string v)) (Graph.attributes t node)
    in
    let ref_attrs =
      List.map
        (fun (rname, target) ->
          let rname = if rname = "" then "idref" else rname in
          (rname, assign_id target))
        (Graph.refs t node)
    in
    let children =
      List.filter_map
        (fun (c, _) ->
          match Graph.kind t c with
          | Graph.Atom v -> Some (Text (Value.to_string v))
          | Graph.Complex _ ->
            if Hashtbl.mem seen c then
              (* Already unfolded elsewhere: reference instead of copy. *)
              Some
                (Element
                   { name = "ref";
                     attrs = [ ("idref", assign_id c) ];
                     children = [] })
            else Some (Element (go c)))
        (Graph.children t node)
    in
    { name; attrs = attrs @ ref_attrs; children }
  in
  let tree = go n in
  (* Second pass: decorate targets with their ids.  Targets are inside
     the decoded subtree iff they were reached by [go]. *)
  if Hashtbl.length needs_id = 0 then tree
  else begin
    (* Re-run the decode, now knowing the ids.  Simpler than mutation on
       an immutable tree and still linear. *)
    Hashtbl.reset seen;
    let rec go2 node : element =
      Hashtbl.replace seen node ();
      let name =
        match Graph.kind t node with
        | Graph.Complex l -> l
        | Graph.Atom _ -> "value"
      in
      let id_attr =
        match Hashtbl.find_opt needs_id node with
        | Some id -> [ ("id", id) ]
        | None -> []
      in
      let attrs =
        List.map (fun (a, v) -> (a, Value.to_string v)) (Graph.attributes t node)
      in
      let ref_attrs =
        List.map
          (fun (rname, target) ->
            let rname = if rname = "" then "idref" else rname in
            (rname, assign_id target))
          (Graph.refs t node)
      in
      let children =
        List.filter_map
          (fun (c, _) ->
            match Graph.kind t c with
            | Graph.Atom v -> Some (Text (Value.to_string v))
            | Graph.Complex _ ->
              if Hashtbl.mem seen c then
                Some
                  (Element
                     { name = "ref";
                       attrs = [ ("idref", assign_id c) ];
                       children = [] })
              else Some (Element (go2 c)))
          (Graph.children t node)
      in
      { name; attrs = id_attr @ attrs @ ref_attrs; children }
    in
    go2 n
  end
