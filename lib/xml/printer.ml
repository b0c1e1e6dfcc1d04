let escape_text s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\n' -> Buffer.add_string buf "&#10;"
      | '\t' -> Buffer.add_string buf "&#9;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape_attr v);
      Buffer.add_char buf '"')
    attrs

let rec add_node buf = function
  | Tree.Text s -> Buffer.add_string buf (escape_text s)
  | Tree.Comment s ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf s;
    Buffer.add_string buf "-->"
  | Tree.Pi (target, content) ->
    Buffer.add_string buf "<?";
    Buffer.add_string buf target;
    if content <> "" then begin
      Buffer.add_char buf ' ';
      Buffer.add_string buf content
    end;
    Buffer.add_string buf "?>"
  | Tree.Element e -> add_element buf e

and add_element buf (e : Tree.element) =
  Buffer.add_char buf '<';
  Buffer.add_string buf e.name;
  add_attrs buf e.attrs;
  match e.children with
  | [] -> Buffer.add_string buf "/>"
  | children ->
    Buffer.add_char buf '>';
    List.iter (add_node buf) children;
    Buffer.add_string buf "</";
    Buffer.add_string buf e.name;
    Buffer.add_char buf '>'

let node_to_string n =
  let buf = Buffer.create 256 in
  add_node buf n;
  Buffer.contents buf

let doctype_to_string (dt : Tree.doctype) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "<!DOCTYPE ";
  Buffer.add_string buf dt.dt_name;
  (match dt.public_id, dt.system_id with
  | Some pub, Some sys ->
    Buffer.add_string buf (Printf.sprintf " PUBLIC \"%s\" \"%s\"" pub sys)
  | Some pub, None -> Buffer.add_string buf (Printf.sprintf " PUBLIC \"%s\"" pub)
  | None, Some sys -> Buffer.add_string buf (Printf.sprintf " SYSTEM \"%s\"" sys)
  | None, None -> ());
  (match dt.internal_subset with
  | Some s ->
    Buffer.add_string buf " [";
    Buffer.add_string buf s;
    Buffer.add_char buf ']'
  | None -> ());
  Buffer.add_char buf '>';
  Buffer.contents buf

let to_string (d : Tree.doc) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  (match d.doctype with
  | Some dt ->
    Buffer.add_string buf (doctype_to_string dt);
    Buffer.add_char buf '\n'
  | None -> ());
  add_element buf d.root;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                      *)
(* ------------------------------------------------------------------ *)

let has_element_child (e : Tree.element) =
  List.exists (function Tree.Element _ -> true | _ -> false) e.children

let only_structural_children (e : Tree.element) =
  (* True when every text child is whitespace: safe to indent. *)
  List.for_all
    (function Tree.Text s -> String.trim s = "" | _ -> true)
    e.children

let rec add_pretty buf indent (e : Tree.element) =
  let pad = String.make (2 * indent) ' ' in
  Buffer.add_string buf pad;
  Buffer.add_char buf '<';
  Buffer.add_string buf e.name;
  add_attrs buf e.attrs;
  match e.children with
  | [] -> Buffer.add_string buf "/>\n"
  | children when has_element_child e && only_structural_children e ->
    Buffer.add_string buf ">\n";
    List.iter
      (function
        | Tree.Element e' -> add_pretty buf (indent + 1) e'
        | Tree.Text _ -> ()
        | (Tree.Comment _ | Tree.Pi _) as n ->
          Buffer.add_string buf (String.make (2 * (indent + 1)) ' ');
          add_node buf n;
          Buffer.add_char buf '\n')
      children;
    Buffer.add_string buf pad;
    Buffer.add_string buf "</";
    Buffer.add_string buf e.name;
    Buffer.add_string buf ">\n"
  | children ->
    Buffer.add_char buf '>';
    List.iter (add_node buf) children;
    Buffer.add_string buf "</";
    Buffer.add_string buf e.name;
    Buffer.add_string buf ">\n"

let element_to_string_pretty e =
  let buf = Buffer.create 1024 in
  add_pretty buf 0 e;
  Buffer.contents buf

let to_string_pretty (d : Tree.doc) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  (match d.doctype with
  | Some dt ->
    Buffer.add_string buf (doctype_to_string dt);
    Buffer.add_char buf '\n'
  | None -> ());
  add_pretty buf 0 d.root;
  Buffer.contents buf
