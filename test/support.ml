(* Assertion helpers shared by the test executables: structural queries
   and equalities over the XML document model, and a parse-then-encode
   shortcut.  None of the library's callers needs them. *)

open Gql_xml.Tree

let child_elements e =
  List.filter_map
    (function Element e' -> Some e' | Text _ | Comment _ | Pi _ -> None)
    e.children

(* Direct text of an element (its own text children only, concatenated). *)
let own_text e =
  String.concat ""
    (List.filter_map
       (function Text s -> Some s | Element _ | Comment _ | Pi _ -> None)
       e.children)

(* All elements of the subtree (including the root), document order. *)
let descendant_elements root_el =
  List.rev
    (fold_nodes
       (fun acc _ n -> match n with Element e -> e :: acc | _ -> acc)
       [] root_el)

(* Elements with a given name anywhere in the subtree. *)
let find_all name root_el =
  List.filter (fun e -> e.name = name) (descendant_elements root_el)

let find_first name root_el =
  match find_all name root_el with [] -> None | e :: _ -> Some e

(* Node at [path], if any. *)
let rec node_at (e : element) (p : path) : node option =
  match p with
  | [] -> Some (Element e)
  | i :: rest -> (
    match List.nth_opt e.children i with
    | None -> None
    | Some (Element e') -> node_at e' rest
    | Some other -> if rest = [] then Some other else None)

let count_nodes root_el = fold_nodes (fun n _ _ -> n + 1) 0 root_el

let max_depth root_el =
  fold_nodes (fun d p _ -> max d (List.length p)) 0 root_el

(* Structural equality, ignoring attribute order. *)
let sort_attrs attrs = List.sort (fun (a, _) (b, _) -> compare a b) attrs

let rec equal_element a b =
  a.name = b.name
  && sort_attrs a.attrs = sort_attrs b.attrs
  && List.length a.children = List.length b.children
  && List.for_all2 equal_node a.children b.children

and equal_node a b =
  match a, b with
  | Element a, Element b -> equal_element a b
  | Text a, Text b -> a = b
  | Comment a, Comment b -> a = b
  | Pi (ta, ca), Pi (tb, cb) -> ta = tb && ca = cb
  | (Element _ | Text _ | Comment _ | Pi _), _ -> false

(* Equality after dropping comments/PIs and whitespace-only text — the
   equality used when comparing query results to golden documents. *)
let rec canonical_element e =
  let keep = function
    | Text s -> if String.trim s = "" then None else Some (Text s)
    | Comment _ | Pi _ -> None
    | Element e' -> Some (Element (canonical_element e'))
  in
  { e with
    attrs = sort_attrs e.attrs;
    children = List.filter_map keep e.children }

let equal_canonical a b = equal_element (canonical_element a) (canonical_element b)

(* Parse an XML source and encode it as a data graph, reading its DTD
   from the document when none is given. *)
let encode_string ?dtd ?resolve_refs src =
  let doc = Gql_xml.Parser.parse_document src in
  let dtd =
    match dtd with
    | Some _ -> dtd
    | None -> Gql_dtd.Parse.of_doc doc
  in
  fst (Gql_data.Codec.encode ?dtd ?resolve_refs doc)

(* Breadth-first order from [starts] over a digraph, following edges
   that satisfy [follow] (default: all). *)
let bfs ?(follow = fun _ -> true) g starts =
  let n = Gql_graph.Digraph.n_nodes g in
  let seen = Array.make n false in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if not seen.(s) then begin
        seen.(s) <- true;
        Queue.add s queue
      end)
    starts;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    order := u :: !order;
    List.iter
      (fun (v, l) ->
        if follow l && not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      (Gql_graph.Digraph.succ g u)
  done;
  List.rev !order
