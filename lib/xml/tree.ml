type node =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of string * string

and element = {
  name : string;
  attrs : (string * string) list;
  children : node list;
}

type doctype = {
  dt_name : string;
  system_id : string option;
  public_id : string option;
  internal_subset : string option;
}

type doc = { doctype : doctype option; root : element }

type path = int list

let element ?(attrs = []) name children = { name; attrs; children }
let elt ?attrs name children = Element (element ?attrs name children)
let text s = Text s
let doc ?doctype root = { doctype; root }

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let attr e name = List.assoc_opt name e.attrs

let rec text_content_el e =
  String.concat ""
    (List.map
       (function
         | Text s -> s
         | Element e' -> text_content_el e'
         | Comment _ | Pi _ -> "")
       e.children)

let text_content = function
  | Element e -> text_content_el e
  | Text s -> s
  | Comment _ | Pi _ -> ""

(* ------------------------------------------------------------------ *)
(* Traversal                                                            *)
(* ------------------------------------------------------------------ *)

let fold_nodes f acc root_el =
  let rec go_el acc rev_path e =
    let acc = f acc (List.rev rev_path) (Element e) in
    let _, acc =
      List.fold_left
        (fun (i, acc) child ->
          let acc =
            match child with
            | Element e' -> go_el acc (i :: rev_path) e'
            | other -> f acc (List.rev (i :: rev_path)) other
          in
          (i + 1, acc))
        (0, acc) e.children
    in
    acc
  in
  go_el acc [] root_el

let iter_nodes f root_el = fold_nodes (fun () p n -> f p n) () root_el
