(* Addresses of deletable element subtrees: a path of child indexes
   from the root.  The root itself is never a candidate — an empty
   document is not well-formed. *)
let subtree_paths (root : Gql_xml.Tree.element) : int list list =
  let acc = ref [] in
  let rec walk (e : Gql_xml.Tree.element) (path : int list) =
    List.iteri
      (fun i node ->
        match node with
        | Gql_xml.Tree.Element child ->
          acc := List.rev (i :: path) :: !acc;
          walk child (i :: path)
        | Gql_xml.Tree.Text _ ->
          (* text slots participate too: a failure may hinge on one value *)
          acc := List.rev (i :: path) :: !acc
        | _ -> ())
      e.Gql_xml.Tree.children
  in
  walk root [];
  !acc

let remove_at (root : Gql_xml.Tree.element) (path : int list) :
    Gql_xml.Tree.element =
  let rec go e = function
    | [] -> e
    | [ last ] ->
      { e with
        Gql_xml.Tree.children =
          List.filteri (fun i _ -> i <> last) e.Gql_xml.Tree.children
      }
    | i :: rest ->
      { e with
        Gql_xml.Tree.children =
          List.mapi
            (fun j node ->
              match node with
              | Gql_xml.Tree.Element child when j = i ->
                Gql_xml.Tree.Element (go child rest)
              | node -> node)
            e.Gql_xml.Tree.children
      }
  in
  go root path

(* Subtree size, to try big deletions first. *)
let rec el_size (e : Gql_xml.Tree.element) =
  1
  + List.fold_left
      (fun n -> function
        | Gql_xml.Tree.Element c -> n + el_size c
        | _ -> n + 1)
      0 e.Gql_xml.Tree.children

let size_at (root : Gql_xml.Tree.element) (path : int list) : int =
  let rec go e = function
    | [] -> el_size e
    | i :: rest -> (
      match List.nth_opt e.Gql_xml.Tree.children i with
      | Some (Gql_xml.Tree.Element c) -> go c rest
      | Some _ -> 1
      | None -> 0)
  in
  go root path

let shrink_doc ~(still_fails : xml:string -> source:string -> bool)
    ~(source : string) (xml : string) : string =
  match Gql_xml.Parser.parse_document_result xml with
  | Error _ -> xml
  | Ok doc ->
    let improved = ref true in
    let current = ref doc.Gql_xml.Tree.root in
    while !improved do
      improved := false;
      let candidates =
        subtree_paths !current
        |> List.map (fun p -> (size_at !current p, p))
        |> List.sort (fun (a, _) (b, _) -> compare b a)
        |> List.map snd
      in
      List.iter
        (fun path ->
          if not !improved then begin
            let smaller = remove_at !current path in
            let xml' =
              Gql_xml.Printer.to_string
                { doc with Gql_xml.Tree.root = smaller }
            in
            if still_fails ~xml:xml' ~source then begin
              current := smaller;
              improved := true
            end
          end)
        candidates
    done;
    Gql_xml.Printer.to_string { doc with Gql_xml.Tree.root = !current }

let shrink_query ~(parses : string -> bool)
    ~(still_fails : xml:string -> source:string -> bool) ~(xml : string)
    (source : string) : string =
  let improved = ref true in
  let current = ref source in
  while !improved do
    improved := false;
    let lines = String.split_on_char '\n' !current in
    let n = List.length lines in
    let rec try_drop i =
      if i < n && not !improved then begin
        let candidate =
          lines
          |> List.filteri (fun j _ -> j <> i)
          |> String.concat "\n"
        in
        if parses candidate && still_fails ~xml ~source:candidate then begin
          current := candidate;
          improved := true
        end
        else try_drop (i + 1)
      end
    in
    try_drop 0;
    (* clause-internal reductions for MATCH sources (no-ops elsewhere:
       candidates is empty when the source is not a MATCH query) *)
    if not !improved then
      List.iter
        (fun candidate ->
          if
            (not !improved) && parses candidate
            && still_fails ~xml ~source:candidate
          then begin
            current := candidate;
            improved := true
          end)
        (Gql_match.Reduce.candidates !current)
  done;
  !current

let minimize ~(parses : string -> bool)
    ~(still_fails : xml:string -> source:string -> bool) ~(xml : string)
    ~(source : string) : string * string =
  let xml = ref xml and source = ref source in
  let changed = ref true in
  (* alternate: a smaller doc can unlock query lines and vice versa *)
  while !changed do
    changed := false;
    if !xml <> "" then begin
      let xml' = shrink_doc ~still_fails ~source:!source !xml in
      if xml' <> !xml then begin
        xml := xml';
        changed := true
      end
    end;
    let source' = shrink_query ~parses ~still_fails ~xml:!xml !source in
    if source' <> !source then begin
      source := source';
      changed := true
    end
  done;
  (!xml, !source)
