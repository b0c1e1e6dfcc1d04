type mult = One | Opt | Star | Plus

let mult_to_string = function One -> "1" | Opt -> "?" | Star -> "*" | Plus -> "+"

let mult_allows m count =
  match m with
  | One -> count = 1
  | Opt -> count <= 1
  | Star -> true
  | Plus -> count >= 1

type decl = {
  d_name : string;
  d_ordered : bool;
  d_children : (string * mult) list;
  d_text : mult option;
  d_attrs : (string * bool) list;
  d_open : bool;
}

type t = { root : string option; decls : decl list }

let find t name = List.find_opt (fun d -> d.d_name = name) t.decls

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

type violation = { v_element : string; v_message : string }

let mult_regex name m =
  let open Gql_regex.Syntax in
  let s = sym name in
  match m with One -> s | Opt -> opt s | Star -> star s | Plus -> plus s

let content_regex d =
  Gql_regex.Syntax.seq_list
    (List.map (fun (n, m) -> mult_regex n m) d.d_children)

let validate_node (t : t) (data : Gql_data.Graph.t) (n : Gql_data.Graph.node)
    (acc : violation list) : violation list =
  let open Gql_data in
  match Graph.kind data n with
  | Graph.Atom _ -> acc
  | Graph.Complex label -> (
    match find t label with
    | None ->
      if t.decls = [] then acc
      else { v_element = label; v_message = "element not declared" } :: acc
    | Some d ->
      let children = Graph.children data n in
      let elem_children =
        List.filter_map
          (fun (c, _) ->
            match Graph.kind data c with
            | Graph.Complex l -> Some l
            | Graph.Atom _ -> None)
          children
      in
      let text_count =
        List.length
          (List.filter (fun (c, _) -> Graph.is_atom data c) children)
      in
      let acc =
        (* text discipline *)
        match d.d_text with
        | Some m when not (mult_allows m text_count) ->
          { v_element = label;
            v_message =
              Printf.sprintf "text content count %d violates multiplicity %s"
                text_count (mult_to_string m) }
          :: acc
        | None when text_count > 0 && not d.d_open ->
          { v_element = label; v_message = "unexpected text content" } :: acc
        | Some _ | None -> acc
      in
      let acc =
        if d.d_ordered then begin
          (* DTD-style: regular expression over the child label word *)
          let auto = Gql_regex.Glushkov.build (content_regex d) in
          if Gql_regex.Glushkov.accepts auto elem_children then acc
          else
            { v_element = label;
              v_message =
                Printf.sprintf "ordered children (%s) do not match schema"
                  (String.concat "," elem_children) }
            :: acc
        end
        else begin
          (* beyond-DTD: per-label counting, order-insensitive *)
          let count l =
            List.length (List.filter (fun x -> x = l) elem_children)
          in
          let acc =
            List.fold_left
              (fun acc (cname, m) ->
                if mult_allows m (count cname) then acc
                else
                  { v_element = label;
                    v_message =
                      Printf.sprintf "%d occurrence(s) of <%s> violate multiplicity %s"
                        (count cname) cname (mult_to_string m) }
                  :: acc)
              acc d.d_children
          in
          if d.d_open then acc
          else
            List.fold_left
              (fun acc cname ->
                if List.mem_assoc cname d.d_children then acc
                else
                  { v_element = label;
                    v_message = Printf.sprintf "undeclared child <%s>" cname }
                  :: acc)
              acc
              (List.sort_uniq compare elem_children)
        end
      in
      (* attributes *)
      let present = List.map fst (Graph.attributes data n) in
      let acc =
        List.fold_left
          (fun acc (aname, required) ->
            if required && not (List.mem aname present) then
              { v_element = label;
                v_message = Printf.sprintf "required attribute %s missing" aname }
              :: acc
            else acc)
          acc d.d_attrs
      in
      if d.d_open then acc
      else
        List.fold_left
          (fun acc aname ->
            if List.mem_assoc aname d.d_attrs then acc
            else
              { v_element = label;
                v_message = Printf.sprintf "undeclared attribute %s" aname }
              :: acc)
          acc present)

let validate (t : t) (data : Gql_data.Graph.t) : violation list =
  let open Gql_data in
  let acc = ref [] in
  (match t.root, Graph.roots data with
  | Some r, root :: _ -> (
    match Graph.label data root with
    | Some l when l <> r ->
      acc :=
        [ { v_element = l;
            v_message = Printf.sprintf "root is <%s>, schema expects <%s>" l r } ]
    | Some _ | None -> ())
  | _ -> ());
  for n = 0 to Graph.n_nodes data - 1 do
    acc := validate_node t data n !acc
  done;
  List.rev !acc

let is_valid t data = validate t data = []

(* ------------------------------------------------------------------ *)
(* DTD interchange                                                     *)
(* ------------------------------------------------------------------ *)

exception Not_translatable of string

(* A content model is "flat" when it is a sequence of names each carrying
   at most one postfix operator — the shape a multiplicity-labelled
   schema graph can draw.  The BOOK/AUTHOR DTD of the paper is flat. *)
let rec flatten_seq (re : string Gql_regex.Syntax.t) :
    (string * mult) list =
  let open Gql_regex.Syntax in
  match re with
  | Eps -> []
  | Sym s -> [ (s, One) ]
  | Opt (Sym s) -> [ (s, Opt) ]
  | Star (Sym s) -> [ (s, Star) ]
  | Plus (Sym s) -> [ (s, Plus) ]
  | Seq (a, b) -> flatten_seq a @ flatten_seq b
  | Empty | Alt _ | Star _ | Plus _ | Opt _ ->
    raise
      (Not_translatable
         (Printf.sprintf "content model %s is not a flat sequence"
            (to_string Fun.id re)))

let of_dtd (dtd : Gql_dtd.Ast.t) : t =
  let decl_of (name, cm) =
    let d_children, d_text, d_ordered =
      match cm with
      | Gql_dtd.Ast.Empty_content -> ([], None, true)
      | Gql_dtd.Ast.Any_content ->
        raise (Not_translatable (name ^ ": ANY content"))
      | Gql_dtd.Ast.Pcdata -> ([], Some Star, true)
      | Gql_dtd.Ast.Mixed names ->
        (* mixed content: text and the listed elements, unordered *)
        (List.map (fun n -> (n, Star)) names, Some Star, false)
      | Gql_dtd.Ast.Children re -> (flatten_seq re, None, true)
    in
    let d_attrs =
      List.map
        (fun (a : Gql_dtd.Ast.attr_def) ->
          (a.attr_name, a.default = Gql_dtd.Ast.Required))
        (Gql_dtd.Ast.attrs_of dtd name)
    in
    { d_name = name; d_ordered; d_children; d_text; d_attrs; d_open = false }
  in
  { root = dtd.Gql_dtd.Ast.root_hint; decls = List.map decl_of dtd.elements }

let to_dtd ?(force_order = false) (t : t) : Gql_dtd.Ast.t =
  let elements =
    List.map
      (fun d ->
        if (not d.d_ordered) && d.d_children <> [] && not force_order then
          raise
            (Not_translatable
               (d.d_name ^ ": unordered content is not DTD-expressible"));
        let cm =
          match d.d_children, d.d_text with
          | [], None -> Gql_dtd.Ast.Empty_content
          | [], Some _ -> Gql_dtd.Ast.Pcdata
          | children, None ->
            Gql_dtd.Ast.Children
              (Gql_regex.Syntax.seq_list
                 (List.map (fun (n, m) -> mult_regex n m) children))
          | children, Some _ -> Gql_dtd.Ast.Mixed (List.map fst children)
        in
        (d.d_name, cm))
      t.decls
  in
  let attlists =
    List.filter_map
      (fun d ->
        if d.d_attrs = [] then None
        else
          Some
            ( d.d_name,
              List.map
                (fun (aname, required) ->
                  {
                    Gql_dtd.Ast.attr_name = aname;
                    attr_type = Gql_dtd.Ast.Cdata;
                    default =
                      (if required then Gql_dtd.Ast.Required
                       else Gql_dtd.Ast.Implied);
                  })
                d.d_attrs ))
      t.decls
  in
  { Gql_dtd.Ast.root_hint = t.root; elements; attlists }

let book_schema : t =
  {
    root = Some "BOOK";
    decls =
      [
        {
          d_name = "BOOK";
          d_ordered = false;  (* the figure's content is unordered — the
                                 point of the comparison *)
          d_children =
            [ ("title", Opt); ("price", One); ("AUTHOR", Star) ];
          d_text = None;
          d_attrs = [ ("isbn", true) ];
          d_open = false;
        };
        {
          d_name = "title";
          d_ordered = true;
          d_children = [];
          d_text = Some Star;
          d_attrs = [];
          d_open = false;
        };
        {
          d_name = "price";
          d_ordered = true;
          d_children = [];
          d_text = Some Star;
          d_attrs = [];
          d_open = false;
        };
        {
          d_name = "AUTHOR";
          d_ordered = true;
          d_children = [ ("first-name", One); ("last-name", One) ];
          d_text = None;
          d_attrs = [];
          d_open = false;
        };
        {
          d_name = "first-name";
          d_ordered = true;
          d_children = [];
          d_text = Some Star;
          d_attrs = [];
          d_open = false;
        };
        {
          d_name = "last-name";
          d_ordered = true;
          d_children = [];
          d_text = Some Star;
          d_attrs = [];
          d_open = false;
        };
      ];
  }
