type t = {
  ids : (string, Tree.path) Hashtbl.t;
  refs : (Tree.path * string * string) list;
  duplicates : string list;
}

let default_is_id ~element:_ ~attr = String.lowercase_ascii attr = "id"

let default_is_idref ~element:_ ~attr =
  let a = String.lowercase_ascii attr in
  a = "idref" || a = "ref" || a = "idrefs"

let build ?(is_id = default_is_id) ?(is_idref = default_is_idref) root_el =
  let ids = Hashtbl.create 64 in
  let refs = ref [] in
  let duplicates = ref [] in
  Tree.iter_nodes
    (fun path node ->
      match node with
      | Tree.Element e ->
        List.iter
          (fun (attr, value) ->
            if is_id ~element:e.Tree.name ~attr then begin
              if Hashtbl.mem ids value then duplicates := value :: !duplicates
              else Hashtbl.add ids value path
            end
            else if is_idref ~element:e.Tree.name ~attr then
              (* IDREFS: whitespace-separated list of targets. *)
              List.iter
                (fun target ->
                  if target <> "" then refs := (path, attr, target) :: !refs)
                (String.split_on_char ' ' value))
          e.Tree.attrs
      | Tree.Text _ | Tree.Comment _ | Tree.Pi _ -> ())
    root_el;
  { ids; refs = List.rev !refs; duplicates = List.rev !duplicates }

let resolve t id = Hashtbl.find_opt t.ids id

let dangling t =
  List.filter (fun (_, _, target) -> not (Hashtbl.mem t.ids target)) t.refs
