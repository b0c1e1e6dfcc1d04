type node_data =
  | Elem of { name : string; attrs : (string * string) list }
  | Attr of { name : string; value : string; owner : int }
  | Txt of string
  | Com of string
  | P of { target : string; content : string }

type t = {
  data : node_data array;
  parent : int array;
  children : int array array;
  attr_nodes : int array array;
  root : int;
}

let build (document : Gql_xml.Tree.doc) : t =
  let open Gql_xml.Tree in
  let data = ref [] in
  let parent = ref [] in
  let count = ref 0 in
  let children_acc : (int * int list) list ref = ref [] in
  let attrs_acc : (int * int list) list ref = ref [] in
  let fresh d p =
    let id = !count in
    incr count;
    data := d :: !data;
    parent := p :: !parent;
    id
  in
  let rec go_element p (e : element) : int =
    let id = fresh (Elem { name = e.name; attrs = e.attrs }) p in
    let attr_ids =
      List.map
        (fun (name, value) -> fresh (Attr { name; value; owner = id }) id)
        e.attrs
    in
    attrs_acc := (id, attr_ids) :: !attrs_acc;
    let child_ids =
      List.map
        (fun c ->
          match c with
          | Element ce -> go_element id ce
          | Text s -> fresh (Txt s) id
          | Comment s -> fresh (Com s) id
          | Pi (target, content) -> fresh (P { target; content }) id)
        e.children
    in
    children_acc := (id, child_ids) :: !children_acc;
    id
  in
  let root = go_element (-1) document.root in
  let n = !count in
  let data_arr = Array.of_list (List.rev !data) in
  let parent_arr = Array.of_list (List.rev !parent) in
  let children = Array.make n [||] in
  List.iter (fun (id, cs) -> children.(id) <- Array.of_list cs) !children_acc;
  let attr_nodes = Array.make n [||] in
  List.iter (fun (id, ats) -> attr_nodes.(id) <- Array.of_list ats) !attrs_acc;
  { data = data_arr; parent = parent_arr; children; attr_nodes; root }

let n_nodes t = Array.length t.data
let data t i = t.data.(i)
let parent t i = t.parent.(i)
let children t i = t.children.(i)
let attrs t i = t.attr_nodes.(i)

let name t i =
  match t.data.(i) with
  | Elem { name; _ } -> Some name
  | Attr { name; _ } -> Some name
  | Txt _ | Com _ | P _ -> None

let rec string_value t i =
  match t.data.(i) with
  | Txt s -> s
  | Attr { value; _ } -> value
  | Com s -> s
  | P { content; _ } -> content
  | Elem _ ->
    let buf = Buffer.create 16 in
    let rec go j =
      match t.data.(j) with
      | Txt s -> Buffer.add_string buf s
      | Elem _ -> Array.iter go t.children.(j)
      | Attr _ | Com _ | P _ -> ()
    in
    Array.iter go t.children.(i);
    ignore string_value;
    Buffer.contents buf

let rec to_tree t i : Gql_xml.Tree.node =
  match t.data.(i) with
  | Txt s -> Gql_xml.Tree.Text s
  | Com s -> Gql_xml.Tree.Comment s
  | P { target; content } -> Gql_xml.Tree.Pi (target, content)
  | Attr { name; value; _ } ->
    (* An attribute materialises as a small element, as XSLT's copy-of
       does for attribute-only selections. *)
    Gql_xml.Tree.elt name [ Gql_xml.Tree.Text value ]
  | Elem { name; attrs } ->
    Gql_xml.Tree.Element
      {
        Gql_xml.Tree.name;
        attrs;
        children = Array.to_list (Array.map (to_tree t) t.children.(i));
      }
